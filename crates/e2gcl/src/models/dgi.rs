//! Deep Graph Infomax (Veličković et al. 2019).
//!
//! Maximises mutual information between node embeddings and a graph-level
//! summary: positives are real nodes, negatives come from a feature-shuffled
//! corruption, and a bilinear discriminator tells them apart.

use crate::config::TrainConfig;
use crate::engine::{EpochCtx, EpochDriver, EpochOutcome, EpochStep};
use crate::models::{ContrastiveModel, PretrainResult};
use e2gcl_graph::{norm, CsrGraph, SparseMatrix};
use e2gcl_linalg::init;
use e2gcl_linalg::{activations, ops, Matrix, SeedRng, TrainError};
use e2gcl_nn::{loss, optim::Optimizer, Adam, GcnEncoder, GcnWorkspace};

/// Bilinear discriminator `D(h, s) = h^T W s` shared by DGI and MVGRL.
#[derive(Clone, Debug)]
pub struct BilinearDiscriminator {
    /// Bilinear form (`d x d`).
    pub w: Matrix,
}

/// Gradients produced by [`BilinearDiscriminator::backward`].
pub struct BilinearGrads {
    /// `∂L/∂W`.
    pub dw: Matrix,
    /// `∂L/∂H` for the scored rows.
    pub dh: Matrix,
    /// `∂L/∂s`.
    pub ds: Vec<f32>,
}

impl BilinearDiscriminator {
    /// Xavier-initialised discriminator of width `d`.
    pub fn new(d: usize, rng: &mut SeedRng) -> Self {
        Self {
            w: init::xavier_uniform(d, d, rng),
        }
    }

    /// Scores every row of `h` against summary `s`: `logit_v = h_v · (W s)`.
    pub fn score(&self, h: &Matrix, s: &[f32]) -> Vec<f32> {
        let ws = self.w_s(s);
        (0..h.rows()).map(|v| ops::dot(h.row(v), &ws)).collect()
    }

    fn w_s(&self, s: &[f32]) -> Vec<f32> {
        (0..self.w.rows())
            .map(|r| ops::dot(self.w.row(r), s))
            .collect()
    }

    /// Backward pass given `dlogits` (one per row of `h`).
    pub fn backward(&self, h: &Matrix, s: &[f32], dlogits: &[f32]) -> BilinearGrads {
        let d = self.w.rows();
        let ws = self.w_s(s);
        let mut dh = Matrix::zeros(h.rows(), d);
        let mut dw = Matrix::zeros(d, d);
        let mut ds = vec![0.0f32; d];
        // Accumulate g_v = Σ dlogit_v · h_v once, then dW = g s^T.
        let mut g = vec![0.0f32; d];
        for (v, &dl) in dlogits.iter().enumerate() {
            ops::axpy_slice(dh.row_mut(v), dl, &ws);
            ops::axpy_slice(&mut g, dl, h.row(v));
        }
        for (r, &gv) in g.iter().enumerate() {
            ops::axpy_slice(dw.row_mut(r), gv, s);
        }
        // ds = W^T g.
        for (r, &gr) in g.iter().enumerate() {
            ops::axpy_slice(&mut ds, gr, self.w.row(r));
        }
        BilinearGrads { dw, dh, ds }
    }
}

/// Sigmoid readout summary `s = σ(mean_v h_v)` with its backward helper.
pub fn summary(h: &Matrix) -> (Vec<f32>, Vec<f32>) {
    let mean = h.col_means();
    let s: Vec<f32> = mean.iter().map(|&m| activations::sigmoid(m)).collect();
    // σ'(m) = s(1−s), needed to push ds back into dH.
    let dsig: Vec<f32> = s.iter().map(|&v| v * (1.0 - v)).collect();
    (s, dsig)
}

/// Spreads `ds` through the sigmoid-mean readout into every row of `dh`.
pub fn summary_backward(dh: &mut Matrix, ds: &[f32], dsig: &[f32]) {
    let n = dh.rows().max(1) as f32;
    let per_row: Vec<f32> = ds.iter().zip(dsig).map(|(&d, &g)| d * g / n).collect();
    for v in 0..dh.rows() {
        ops::axpy_slice(dh.row_mut(v), 1.0, &per_row);
    }
}

/// Row-shuffled copy of `x` — DGI's corruption function.
pub fn shuffle_rows(x: &Matrix, rng: &mut SeedRng) -> Matrix {
    let mut perm: Vec<usize> = (0..x.rows()).collect();
    rng.shuffle(&mut perm);
    x.select_rows(&perm)
}

/// The DGI model.
#[derive(Clone, Debug, Default)]
pub struct DgiModel;

impl DgiModel {
    /// One discriminator pass: returns `(loss, dH_real, dH_corrupt, grads)`.
    #[allow(clippy::type_complexity)]
    fn discriminate(
        disc: &BilinearDiscriminator,
        h_real: &Matrix,
        h_corrupt: &Matrix,
    ) -> (f32, Matrix, Matrix, Matrix) {
        let (s, dsig) = summary(h_real);
        let pos_logits = disc.score(h_real, &s);
        let neg_logits = disc.score(h_corrupt, &s);
        let n = h_real.rows();
        let mut logits = pos_logits;
        logits.extend(neg_logits);
        let mut targets = vec![1.0f32; n];
        targets.extend(std::iter::repeat_n(0.0, n));
        let (l, dlogits) = loss::bce_with_logits(&logits, &targets);
        let gp = disc.backward(h_real, &s, &dlogits[..n]);
        let gn = disc.backward(h_corrupt, &s, &dlogits[n..]);
        let mut d_real = gp.dh;
        let d_corrupt = gn.dh;
        // Summary gradient flows into the real embeddings.
        let ds_total: Vec<f32> = gp.ds.iter().zip(&gn.ds).map(|(a, b)| a + b).collect();
        summary_backward(&mut d_real, &ds_total, &dsig);
        let mut dw = gp.dw;
        dw.add_assign(&gn.dw);
        (l, d_real, d_corrupt, dw)
    }
}

impl ContrastiveModel for DgiModel {
    fn name(&self) -> String {
        "DGI".to_string()
    }

    fn pretrain(
        &self,
        g: &CsrGraph,
        x: &Matrix,
        cfg: &TrainConfig,
        rng: &mut SeedRng,
    ) -> Result<PretrainResult, TrainError> {
        crate::models::ensure_whole_graph_full_loss(cfg, &self.name())?;
        let driver = EpochDriver::new(cfg);
        let adj: SparseMatrix = norm::normalized_adjacency(g);
        let encoder = GcnEncoder::new(&cfg.encoder_dims(x.cols()), &mut rng.fork("init"));
        let disc = BilinearDiscriminator::new(cfg.embed_dim, &mut rng.fork("disc"));
        let opt = Adam::with_weight_decay(cfg.lr, cfg.weight_decay);
        let disc_opt = Adam::new(cfg.lr);
        let train_rng = rng.fork("train");
        driver.run(&mut DgiStep {
            x,
            adj,
            encoder,
            disc,
            opt,
            disc_opt,
            train_rng,
            ws_real: GcnWorkspace::new(),
            ws_corrupt: GcnWorkspace::new(),
            dw: Matrix::default(),
        })
    }
}

/// One DGI epoch: real vs feature-shuffled embeddings scored against the
/// sigmoid-mean summary by the bilinear discriminator.
struct DgiStep<'a> {
    x: &'a Matrix,
    adj: SparseMatrix,
    encoder: GcnEncoder,
    disc: BilinearDiscriminator,
    opt: Adam,
    disc_opt: Adam,
    train_rng: SeedRng,
    ws_real: GcnWorkspace,
    ws_corrupt: GcnWorkspace,
    /// Discriminator gradient of the current epoch (auxiliary: scanned via
    /// `aux_grads_bad`, stepped in `apply`, never clipped — as before).
    dw: Matrix,
}

impl EpochStep for DgiStep<'_> {
    fn epoch(&mut self, cx: &mut EpochCtx<'_>) -> EpochOutcome {
        let x_corrupt = shuffle_rows(self.x, &mut self.train_rng);
        self.encoder
            .forward_with(&self.adj, self.x, &mut self.ws_real);
        self.encoder
            .forward_with(&self.adj, &x_corrupt, &mut self.ws_corrupt);
        let (l, d_real, d_corrupt, dw) =
            DgiModel::discriminate(&self.disc, self.ws_real.output(), self.ws_corrupt.output());
        self.dw = dw;
        self.encoder
            .backward_with(&self.adj, &mut self.ws_real, &d_real);
        self.encoder
            .backward_with(&self.adj, &mut self.ws_corrupt, &d_corrupt);
        for (acc, g) in self
            .ws_real
            .grads_mut()
            .iter_mut()
            .zip(self.ws_corrupt.grads())
        {
            acc.axpy(1.0, g);
        }
        let embeddings_bad = cx
            .guard
            .embeddings_bad(&[self.ws_real.output(), self.ws_corrupt.output()]);
        EpochOutcome::Step {
            loss: l,
            embeddings_bad,
        }
    }

    fn grads_mut(&mut self) -> &mut [Matrix] {
        self.ws_real.grads_mut()
    }

    fn aux_grads_bad(&self) -> bool {
        self.dw.has_non_finite()
    }

    fn apply(&mut self, _epoch: usize, lr: f32, _loss: f32) {
        self.opt.lr = lr;
        self.opt
            .step(self.encoder.params_mut(), self.ws_real.grads());
        self.disc_opt.lr = lr;
        self.disc_opt.step(
            std::slice::from_mut(&mut self.disc.w),
            std::slice::from_ref(&self.dw),
        );
    }

    fn embed(&mut self) -> Matrix {
        self.encoder.embed(&self.adj, self.x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use e2gcl_datasets::{spec, NodeDataset};

    #[test]
    fn bilinear_grad_check() {
        let mut rng = SeedRng::new(0);
        let disc = BilinearDiscriminator::new(3, &mut rng);
        let mut h = Matrix::zeros(4, 3);
        for v in h.as_mut_slice() {
            *v = rng.normal();
        }
        let s = vec![0.3f32, -0.7, 0.5];
        // Loss = 0.5 Σ logit², so dlogits = logits.
        let logits = disc.score(&h, &s);
        let grads = disc.backward(&h, &s, &logits);
        let eps = 1e-3f32;
        let f = |disc: &BilinearDiscriminator, h: &Matrix, s: &[f32]| -> f32 {
            0.5 * disc.score(h, s).iter().map(|l| l * l).sum::<f32>()
        };
        // dW check.
        let mut d2 = disc.clone();
        for r in 0..3 {
            for c in 0..3 {
                let orig = d2.w.get(r, c);
                d2.w.set(r, c, orig + eps);
                let lp = f(&d2, &h, &s);
                d2.w.set(r, c, orig - eps);
                let lm = f(&d2, &h, &s);
                d2.w.set(r, c, orig);
                let fd = (lp - lm) / (2.0 * eps);
                assert!(
                    (fd - grads.dw.get(r, c)).abs() < 2e-2 * (1.0 + fd.abs()),
                    "dW({r},{c})"
                );
            }
        }
        // dH check.
        let mut hm = h.clone();
        for r in 0..4 {
            for c in 0..3 {
                let orig = hm.get(r, c);
                hm.set(r, c, orig + eps);
                let lp = f(&disc, &hm, &s);
                hm.set(r, c, orig - eps);
                let lm = f(&disc, &hm, &s);
                hm.set(r, c, orig);
                let fd = (lp - lm) / (2.0 * eps);
                assert!(
                    (fd - grads.dh.get(r, c)).abs() < 2e-2 * (1.0 + fd.abs()),
                    "dH({r},{c})"
                );
            }
        }
        // ds check.
        let mut sm = s.clone();
        for c in 0..3 {
            let orig = sm[c];
            sm[c] = orig + eps;
            let lp = f(&disc, &h, &sm);
            sm[c] = orig - eps;
            let lm = f(&disc, &h, &sm);
            sm[c] = orig;
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - grads.ds[c]).abs() < 2e-2 * (1.0 + fd.abs()),
                "ds({c})"
            );
        }
    }

    #[test]
    fn shuffle_rows_is_permutation() {
        let mut rng = SeedRng::new(1);
        let x = Matrix::from_rows(&[&[1.0], &[2.0], &[3.0], &[4.0]]);
        let s = shuffle_rows(&x, &mut rng);
        let mut vals: Vec<f32> = s.as_slice().to_vec();
        vals.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(vals, vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn dgi_trains_and_loss_falls() {
        let d = NodeDataset::generate(&spec("cora-sim").unwrap(), 0.05, 0);
        let cfg = TrainConfig {
            epochs: 15,
            ..Default::default()
        };
        let out = DgiModel
            .pretrain(&d.graph, &d.features, &cfg, &mut SeedRng::new(2))
            .unwrap();
        assert!(!out.embeddings.has_non_finite());
        let first = out.loss_curve[0];
        let last = *out.loss_curve.last().unwrap();
        assert!(last < first, "{first} -> {last}");
    }
}
