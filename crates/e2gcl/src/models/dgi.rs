//! Deep Graph Infomax (Veličković et al. 2019), and the local–global
//! contrast mode it shares with MVGRL.
//!
//! DGI maximises mutual information between node embeddings and a
//! graph-level summary: positives are real nodes, negatives come from a
//! feature-shuffled corruption, and a bilinear discriminator tells them
//! apart. `LocalGlobalStep` is that contrast over a list of views, each
//! with its own GCN encoder: the nodes of view `i` are scored against the
//! summary of view `(i + 1) mod V`. DGI is the one-view case, scored
//! against its own summary; MVGRL ([`crate::models::mvgrl`]) passes two
//! views and so scores across them.

use crate::config::TrainConfig;
use crate::engine::{EpochCtx, EpochDriver, EpochOutcome, EpochStep};
use crate::models::{ContrastiveModel, PretrainResult};
use e2gcl_graph::{norm, CsrGraph, SparseMatrix};
use e2gcl_linalg::init;
use e2gcl_linalg::{activations, ops, Matrix, SeedRng, TrainError};
use e2gcl_nn::{loss, optim, optim::Optimizer, Adam, GcnEncoder, GcnWorkspace};
use e2gcl_views::uniform;
use std::borrow::Cow;

/// Bilinear discriminator `D(h, s) = h^T W s` shared by DGI and MVGRL.
#[derive(Clone, Debug)]
pub struct BilinearDiscriminator {
    /// Bilinear form (`d x d`).
    pub w: Matrix,
}

/// One scored block's buffers: `W s` from [`BilinearDiscriminator::score`]
/// and the gradients [`BilinearDiscriminator::backward`] writes. A step
/// holds one per block and reuses it every epoch.
#[derive(Clone, Debug, Default)]
pub struct BilinearGrads {
    /// `∂L/∂W`.
    pub dw: Matrix,
    /// `∂L/∂H` for the scored rows.
    pub dh: Matrix,
    /// `∂L/∂s`.
    pub ds: Vec<f32>,
    /// `W s` of the last scored summary.
    ws: Vec<f32>,
    /// `Σ_v dlogit_v · h_v`.
    g: Vec<f32>,
}

impl BilinearDiscriminator {
    /// Xavier-initialised discriminator of width `d`.
    pub fn new(d: usize, rng: &mut SeedRng) -> Self {
        Self {
            w: init::xavier_uniform(d, d, rng),
        }
    }

    /// Scores every row of `h` against summary `s`, `logit_v = h_v · (W s)`,
    /// appending to `logits`. Keeps `W s` in `buf` for [`Self::backward`].
    pub fn score(&self, h: &Matrix, s: &[f32], buf: &mut BilinearGrads, logits: &mut Vec<f32>) {
        buf.ws.clear();
        buf.ws
            .extend((0..self.w.rows()).map(|r| ops::dot(self.w.row(r), s)));
        logits.extend((0..h.rows()).map(|v| ops::dot(h.row(v), &buf.ws)));
    }

    /// Backward pass given `dlogits` (one per row of `h`), into `buf`, whose
    /// `W s` the [`Self::score`] call on the same `(h, s)` left there.
    pub fn backward(&self, h: &Matrix, s: &[f32], dlogits: &[f32], buf: &mut BilinearGrads) {
        let d = self.w.rows();
        let BilinearGrads { dw, dh, ds, ws, g } = buf;
        assert_eq!(ws.len(), d, "score(h, s) must precede backward");
        dh.reset_zeroed(h.rows(), d);
        dw.reset_zeroed(d, d);
        ds.clear();
        ds.resize(d, 0.0);
        // Accumulate g_v = Σ dlogit_v · h_v once, then dW = g s^T.
        g.clear();
        g.resize(d, 0.0);
        for (v, &dl) in dlogits.iter().enumerate() {
            ops::axpy_slice(dh.row_mut(v), dl, ws);
            ops::axpy_slice(g, dl, h.row(v));
        }
        for (r, &gv) in g.iter().enumerate() {
            ops::axpy_slice(dw.row_mut(r), gv, s);
        }
        // ds = W^T g.
        for (r, &gr) in g.iter().enumerate() {
            ops::axpy_slice(ds, gr, self.w.row(r));
        }
    }
}

/// Sigmoid readout summary `s = σ(mean_v h_v)` with its backward helper.
fn summary(h: &Matrix) -> (Vec<f32>, Vec<f32>) {
    let mean = h.col_means();
    let s: Vec<f32> = mean.iter().map(|&m| activations::sigmoid(m)).collect();
    // σ'(m) = s(1−s), needed to push ds back into dH.
    let dsig: Vec<f32> = s.iter().map(|&v| v * (1.0 - v)).collect();
    (s, dsig)
}

/// Spreads `ds` through the sigmoid-mean readout into every row of `dh`.
fn summary_backward(dh: &mut Matrix, ds: &[f32], dsig: &[f32]) {
    let n = dh.rows().max(1) as f32;
    let per_row: Vec<f32> = ds.iter().zip(dsig).map(|(&d, &g)| d * g / n).collect();
    for v in 0..dh.rows() {
        ops::axpy_slice(dh.row_mut(v), 1.0, &per_row);
    }
}

/// Row-shuffled copy of `x` into `out` — DGI's corruption function.
fn shuffle_rows(x: &Matrix, rng: &mut SeedRng, out: &mut Matrix) {
    let mut perm: Vec<usize> = (0..x.rows()).collect();
    rng.shuffle(&mut perm);
    x.select_rows_into(&perm, out);
}

/// The DGI model.
#[derive(Clone, Debug, Default)]
pub struct DgiModel;

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
        let adj = norm::normalized_adjacency(g);
        let encoder = GcnEncoder::new(&cfg.encoder_dims(x.cols()), &mut rng.fork("init"));
        driver.run(&mut LocalGlobalStep::new(
            x,
            None,
            vec![(adj, encoder)],
            cfg,
            rng,
        ))
    }
}

/// One view of a [`LocalGlobalStep`]: its adjacency, its own encoder and
/// optimiser, and workspaces for the real and the corrupt pass.
struct View {
    adj: SparseMatrix,
    encoder: GcnEncoder,
    opt: Adam,
    real: GcnWorkspace,
    corrupt: GcnWorkspace,
}

/// One local–global epoch (DGI, MVGRL): every view encodes its real and the
/// row-shuffled features, and the bilinear discriminator scores view `i`
/// against the sigmoid-mean summary of view `(i + 1) mod V`.
///
/// The float order is fixed: logits are the positives in view order, then
/// the negatives; a summary's gradient is the sum of the positive and the
/// negative `ds` of the view scored against it; the discriminator gradient
/// sums the positive terms, then the negative ones, left to right.
pub(crate) struct LocalGlobalStep<'a> {
    x: &'a Matrix,
    /// Uniform feature perturbation drawn per view each epoch (MVGRL+FP).
    perturb: Option<f32>,
    /// The perturbed features of the current epoch, one per view.
    perturbed: Vec<Matrix>,
    views: Vec<View>,
    disc: BilinearDiscriminator,
    disc_opt: Adam,
    train_rng: SeedRng,
    /// Row-shuffled features of the current epoch.
    x_corrupt: Matrix,
    /// Discriminator buffers, one per scored block (`2V`). Block 0's `dw`
    /// holds the epoch's discriminator gradient, summed over the blocks
    /// (auxiliary: scanned via `aux_grads_bad`, stepped in `apply`, never
    /// clipped).
    blocks: Vec<BilinearGrads>,
    /// Logits of the current epoch: the blocks' rows in block order.
    logits: Vec<f32>,
}

impl<'a> LocalGlobalStep<'a> {
    /// A step over `views` (`(adjacency, encoder)` pairs, built by the
    /// model). Forks `"disc"` then `"train"` off `rng`, after the model's
    /// own encoder forks.
    pub(crate) fn new(
        x: &'a Matrix,
        perturb: Option<f32>,
        views: Vec<(SparseMatrix, GcnEncoder)>,
        cfg: &TrainConfig,
        rng: &mut SeedRng,
    ) -> Self {
        let disc = BilinearDiscriminator::new(cfg.embed_dim, &mut rng.fork("disc"));
        let blocks = vec![BilinearGrads::default(); 2 * views.len()];
        let perturbed = views.iter().map(|_| Matrix::default()).collect();
        let views = views
            .into_iter()
            .map(|(adj, encoder)| View {
                adj,
                encoder,
                opt: Adam::with_weight_decay(cfg.lr, cfg.weight_decay),
                real: GcnWorkspace::new(),
                corrupt: GcnWorkspace::new(),
            })
            .collect();
        Self {
            x,
            perturb,
            perturbed,
            views,
            disc,
            disc_opt: Adam::new(cfg.lr),
            train_rng: rng.fork("train"),
            x_corrupt: Matrix::default(),
            blocks,
            logits: Vec::new(),
        }
    }
}

impl EpochStep for LocalGlobalStep<'_> {
    fn epoch(&mut self, cx: &mut EpochCtx<'_>) -> EpochOutcome {
        let (n, v) = (self.x.rows(), self.views.len());
        let mut features: Vec<Cow<'_, Matrix>> = match self.perturb {
            Some(p) => {
                for xv in &mut self.perturbed {
                    xv.clone_from(self.x);
                    uniform::perturb_features_uniform_in_place(xv, p, &mut self.train_rng);
                }
                self.perturbed.iter().map(Cow::Borrowed).collect()
            }
            None => vec![Cow::Borrowed(self.x); v],
        };
        cx.fault.corrupt_view_features(cx.epoch, &mut features[0]);
        shuffle_rows(self.x, &mut self.train_rng, &mut self.x_corrupt);
        for (view, xv) in self.views.iter_mut().zip(&features) {
            view.encoder.forward_with(&view.adj, xv, &mut view.real);
            view.encoder
                .forward_with(&view.adj, &self.x_corrupt, &mut view.corrupt);
        }
        let summaries: Vec<(Vec<f32>, Vec<f32>)> = self
            .views
            .iter()
            .map(|view| summary(view.real.output()))
            .collect();
        // Scored block k: the real rows of view k for k < V, then the
        // corrupt rows of view k − V; view i against summary (i + 1) mod V.
        let scored: Vec<(&Matrix, &[f32])> = (0..2 * v)
            .map(|k| {
                let view = &self.views[k % v];
                let h = if k < v {
                    view.real.output()
                } else {
                    view.corrupt.output()
                };
                (h, summaries[(k % v + 1) % v].0.as_slice())
            })
            .collect();
        self.logits.clear();
        for (&(h, s), buf) in scored.iter().zip(&mut self.blocks) {
            self.disc.score(h, s, buf, &mut self.logits);
        }
        let mut targets = vec![1.0f32; v * n];
        targets.extend(std::iter::repeat_n(0.0, v * n));
        let (l, dl) = loss::bce_with_logits(&self.logits, &targets);
        for (k, (&(h, s), buf)) in scored.iter().zip(&mut self.blocks).enumerate() {
            self.disc.backward(h, s, &dl[k * n..(k + 1) * n], buf);
        }
        // The discriminator gradient accumulates into block 0's.
        let (first, rest) = self.blocks.split_first_mut().expect("2V blocks");
        for b in rest.iter() {
            first.dw.add_assign(&b.dw);
        }
        let (real, corrupt) = self.blocks.split_at_mut(v);
        for (j, view) in self.views.iter_mut().enumerate() {
            // Summary j is scored against the rows of view (j − 1) mod V.
            let i = (j + v - 1) % v;
            let ds: Vec<f32> = real[i]
                .ds
                .iter()
                .zip(&corrupt[i].ds)
                .map(|(a, b)| a + b)
                .collect();
            summary_backward(&mut real[j].dh, &ds, &summaries[j].1);
            view.encoder
                .backward_with(&view.adj, &mut view.real, &real[j].dh);
            view.encoder
                .backward_with(&view.adj, &mut view.corrupt, &corrupt[j].dh);
            for (acc, g) in view.real.grads_mut().iter_mut().zip(view.corrupt.grads()) {
                acc.axpy(1.0, g);
            }
        }
        let outputs: Vec<&Matrix> = self
            .views
            .iter()
            .flat_map(|view| [view.real.output(), view.corrupt.output()])
            .collect();
        EpochOutcome::Step {
            loss: l,
            embeddings_bad: cx.guard.embeddings_bad(&outputs),
        }
    }

    fn grads_mut(&mut self) -> &mut [Matrix] {
        self.views[0].real.grads_mut()
    }

    fn aux_grads_bad(&self) -> bool {
        self.views[1..]
            .iter()
            .any(|view| optim::grads_non_finite(view.real.grads()))
            || self.blocks[0].dw.has_non_finite()
    }

    // Each view's encoder is clipped as its own group, with its own global
    // norm.
    fn clip(&mut self, max_norm: f32) {
        for view in &mut self.views {
            optim::clip_grad_norm(view.real.grads_mut(), max_norm);
        }
    }

    fn apply(&mut self, _epoch: usize, lr: f32, _loss: f32) {
        for view in &mut self.views {
            view.opt.lr = lr;
            view.opt.step(view.encoder.params_mut(), view.real.grads());
        }
        self.disc_opt.lr = lr;
        self.disc_opt.step(
            std::slice::from_mut(&mut self.disc.w),
            std::slice::from_ref(&self.blocks[0].dw),
        );
    }

    /// The sum of the views' embeddings.
    fn embed(&mut self) -> Matrix {
        let x = self.x;
        self.views
            .iter()
            .map(|view| view.encoder.embed(&view.adj, x))
            .reduce(|mut h, e| {
                h.add_assign(&e);
                h
            })
            .expect("a local-global step has a view")
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
        let mut grads = BilinearGrads::default();
        let mut logits = Vec::new();
        disc.score(&h, &s, &mut grads, &mut logits);
        disc.backward(&h, &s, &logits, &mut grads);
        let eps = 1e-3f32;
        let f = |disc: &BilinearDiscriminator, h: &Matrix, s: &[f32]| -> f32 {
            let mut logits = Vec::new();
            disc.score(h, s, &mut BilinearGrads::default(), &mut logits);
            0.5 * logits.iter().map(|l| l * l).sum::<f32>()
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
        let mut s = Matrix::default();
        shuffle_rows(&x, &mut rng, &mut s);
        let mut vals: Vec<f32> = s.as_slice().to_vec();
        vals.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(vals, vec![1.0, 2.0, 3.0, 4.0]);
    }

    /// MVGRL's clip scales each encoder by its own group norm: a view above
    /// `max` lands on it, a view below is left bit for bit. Clipping the two
    /// groups jointly fails both checks.
    #[test]
    fn mvgrl_clips_each_view_as_its_own_group() {
        use crate::guard::{FaultPlan, GuardConfig, NumericGuard};
        use crate::models::mvgrl::MvgrlModel;
        let d = NodeDataset::generate(&spec("cora-sim").unwrap(), 0.05, 0);
        let cfg = TrainConfig::default();
        let mut step =
            MvgrlModel::default().step(&d.graph, &d.features, &cfg, &mut SeedRng::new(3));
        let guard = NumericGuard::new(&GuardConfig::default());
        let outcome = step.epoch(&mut EpochCtx {
            epoch: 0,
            lr: cfg.lr,
            fault: &FaultPlan::default(),
            guard: &guard,
        });
        assert!(matches!(outcome, EpochOutcome::Step { .. }));
        let grads: Vec<Vec<Matrix>> = step
            .views
            .iter()
            .map(|view| view.real.grads().to_vec())
            .collect();
        let norms: Vec<f32> = grads.iter().map(|g| optim::global_grad_norm(g)).collect();
        assert_eq!(norms.len(), 2);
        assert!(norms[0] != norms[1], "{norms:?}");
        let (lo, hi) = (norms[0].min(norms[1]), norms[0].max(norms[1]));
        for max in [0.5 * lo, 0.5 * (lo + hi)] {
            for (view, g) in step.views.iter_mut().zip(&grads) {
                view.real.grads_mut().clone_from_slice(g);
            }
            step.clip(max);
            for ((view, g), &before) in step.views.iter().zip(&grads).zip(&norms) {
                if before > max {
                    let after = optim::global_grad_norm(view.real.grads());
                    assert!((after - max).abs() <= 1e-4 * max, "{after} vs {max}");
                } else {
                    assert_eq!(view.real.grads(), g.as_slice());
                }
            }
        }
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
