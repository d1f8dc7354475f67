//! GAE and VGAE (Kipf & Welling 2016): (variational) graph auto-encoders.
//!
//! The encoder is the same 2-layer GCN as every other model; the decoder is
//! the inner-product edge decoder `p(u,v) = σ(z_u · z_v)` trained with BCE
//! over positive edges and sampled non-edges. VGAE adds the reparameterised
//! Gaussian posterior and KL regulariser.

use crate::config::TrainConfig;
use crate::engine::{EpochCtx, EpochDriver, EpochOutcome, EpochStep};
use crate::models::{ContrastiveModel, PretrainResult};
use e2gcl_datasets::split::sample_non_edges;
use e2gcl_graph::{norm, CsrGraph, SparseMatrix};
use e2gcl_linalg::{ops, Matrix, SeedRng, TrainError};
use e2gcl_nn::{loss, optim::Optimizer, Adam, GcnEncoder, GcnWorkspace};
use std::time::Instant;

/// Edges scored per epoch (positives; an equal number of negatives is
/// sampled). Caps the decoder cost on dense graphs.
const EDGE_BATCH: usize = 4000;

/// Inner-product decoder pass shared by GAE and VGAE: BCE over `pos` and
/// `neg` pairs. Returns `(loss, dZ)`.
fn reconstruction(z: &Matrix, pos: &[(usize, usize)], neg: &[(usize, usize)]) -> (f32, Matrix) {
    let mut logits = Vec::with_capacity(pos.len() + neg.len());
    for &(u, v) in pos.iter().chain(neg) {
        logits.push(ops::dot(z.row(u), z.row(v)));
    }
    let mut targets = vec![1.0f32; pos.len()];
    targets.extend(std::iter::repeat_n(0.0, neg.len()));
    let (l, dl) = loss::bce_with_logits(&logits, &targets);
    let mut dz = Matrix::zeros(z.rows(), z.cols());
    for (&(u, v), &g) in pos.iter().chain(neg).zip(&dl) {
        let zu = z.row(u).to_vec();
        let zv = z.row(v).to_vec();
        ops::axpy_slice(dz.row_mut(u), g, &zv);
        ops::axpy_slice(dz.row_mut(v), g, &zu);
    }
    (l, dz)
}

/// Samples an epoch's positive-edge batch.
fn edge_batch(g: &CsrGraph, rng: &mut SeedRng) -> Vec<(usize, usize)> {
    let all: Vec<(usize, usize)> = g.edges().collect();
    if all.len() <= EDGE_BATCH {
        return all;
    }
    rng.sample_without_replacement(all.len(), EDGE_BATCH)
        .into_iter()
        .map(|i| all[i])
        .collect()
}

/// The (non-variational) graph auto-encoder.
#[derive(Clone, Debug, Default)]
pub struct GaeModel;

impl ContrastiveModel for GaeModel {
    fn name(&self) -> String {
        "GAE".to_string()
    }

    fn pretrain(
        &self,
        g: &CsrGraph,
        x: &Matrix,
        cfg: &TrainConfig,
        rng: &mut SeedRng,
    ) -> Result<PretrainResult, TrainError> {
        crate::models::ensure_full_graph_only(cfg, &self.name())?;
        crate::models::ensure_full_loss_only(cfg, &self.name())?;
        let start = Instant::now();
        let adj = norm::normalized_adjacency(g);
        let encoder = GcnEncoder::new(&cfg.encoder_dims(x.cols()), &mut rng.fork("init"));
        let opt = Adam::with_weight_decay(cfg.lr, cfg.weight_decay);
        let train_rng = rng.fork("train");
        let mut step = GaeStep {
            g,
            x,
            adj,
            encoder,
            opt,
            train_rng,
            ws: GcnWorkspace::new(),
        };
        let run = EpochDriver::new(cfg).run(&mut step, start)?;
        Ok(PretrainResult::from_run(
            run,
            None,
            std::time::Duration::ZERO,
            start,
        ))
    }
}

/// One GAE epoch: encode, score an edge batch with the inner-product
/// decoder, and backprop the BCE reconstruction gradient.
struct GaeStep<'a> {
    g: &'a CsrGraph,
    x: &'a Matrix,
    adj: SparseMatrix,
    encoder: GcnEncoder,
    opt: Adam,
    train_rng: SeedRng,
    ws: GcnWorkspace,
}

impl EpochStep for GaeStep<'_> {
    fn epoch(&mut self, cx: &mut EpochCtx<'_>) -> EpochOutcome {
        self.encoder.forward_with(&self.adj, self.x, &mut self.ws);
        let pos = edge_batch(self.g, &mut self.train_rng);
        let neg = sample_non_edges(self.g, pos.len(), &mut self.train_rng);
        let (l, dz) = reconstruction(self.ws.output(), &pos, &neg);
        self.encoder.backward_with(&self.adj, &mut self.ws, &dz);
        let embeddings_bad = cx.guard.embeddings_bad(&[self.ws.output()]);
        EpochOutcome::Step {
            loss: l,
            embeddings_bad,
        }
    }

    fn grads_mut(&mut self) -> &mut [Matrix] {
        self.ws.grads_mut()
    }

    fn apply(&mut self, _epoch: usize, lr: f32, _loss: f32) {
        self.opt.lr = lr;
        self.opt.step(self.encoder.params_mut(), self.ws.grads());
    }

    fn embed(&mut self) -> Matrix {
        self.encoder.embed(&self.adj, self.x)
    }
}

/// The variational graph auto-encoder.
#[derive(Clone, Debug)]
pub struct VgaeModel {
    /// Weight of the KL regulariser.
    pub kl_weight: f32,
}

impl Default for VgaeModel {
    fn default() -> Self {
        // Down-weighted KL: the full ELBO weight drowns reconstruction at
        // these embedding widths (52% vs 82% on the Cora analog).
        Self { kl_weight: 0.1 }
    }
}

impl ContrastiveModel for VgaeModel {
    fn name(&self) -> String {
        "VGAE".to_string()
    }

    fn pretrain(
        &self,
        g: &CsrGraph,
        x: &Matrix,
        cfg: &TrainConfig,
        rng: &mut SeedRng,
    ) -> Result<PretrainResult, TrainError> {
        crate::models::ensure_full_graph_only(cfg, &self.name())?;
        crate::models::ensure_full_loss_only(cfg, &self.name())?;
        let start = Instant::now();
        let adj = norm::normalized_adjacency(g);
        let d = cfg.embed_dim;
        // Encoder emits [μ | log σ²] side by side.
        let dims = vec![x.cols(), cfg.hidden_dim, 2 * d];
        let encoder = GcnEncoder::new(&dims, &mut rng.fork("init"));
        let opt = Adam::with_weight_decay(cfg.lr, cfg.weight_decay);
        let train_rng = rng.fork("train");
        let n = g.num_nodes();
        let mut step = VgaeStep {
            g,
            x,
            adj,
            encoder,
            opt,
            train_rng,
            d,
            kl_scale: self.kl_weight / n as f32,
            ws: GcnWorkspace::new(),
            z: Matrix::default(),
            eps: Matrix::default(),
            d_out: Matrix::default(),
        };
        let run = EpochDriver::new(cfg).run(&mut step, start)?;
        Ok(PretrainResult::from_run(
            run,
            None,
            std::time::Duration::ZERO,
            start,
        ))
    }
}

/// One VGAE epoch: encode to `[μ | log σ²]`, reparameterise, decode an edge
/// batch, and backprop reconstruction + KL through the posterior.
struct VgaeStep<'a> {
    g: &'a CsrGraph,
    x: &'a Matrix,
    adj: SparseMatrix,
    encoder: GcnEncoder,
    opt: Adam,
    train_rng: SeedRng,
    /// Latent width (the encoder's output is `2 * d` wide).
    d: usize,
    kl_scale: f32,
    ws: GcnWorkspace,
    z: Matrix,
    eps: Matrix,
    d_out: Matrix,
}

impl EpochStep for VgaeStep<'_> {
    fn epoch(&mut self, cx: &mut EpochCtx<'_>) -> EpochOutcome {
        let (n, d) = (self.g.num_nodes(), self.d);
        self.encoder.forward_with(&self.adj, self.x, &mut self.ws);
        let out = self.ws.output();
        // Split, reparameterise.
        self.z.reset_zeroed(n, d);
        self.eps.reset_zeroed(n, d);
        for v in 0..n {
            for j in 0..d {
                let mu = out.get(v, j);
                let logvar = out.get(v, d + j).clamp(-10.0, 10.0);
                let e = self.train_rng.normal();
                self.eps.set(v, j, e);
                self.z.set(v, j, mu + e * (0.5 * logvar).exp());
            }
        }
        let pos = edge_batch(self.g, &mut self.train_rng);
        let neg = sample_non_edges(self.g, pos.len(), &mut self.train_rng);
        let (recon, dz) = reconstruction(&self.z, &pos, &neg);
        // KL(q || N(0,I)) and total gradient wrt [μ | log σ²].
        let kl_scale = self.kl_scale;
        let mut kl = 0.0f64;
        self.d_out.reset_zeroed(n, 2 * d);
        for v in 0..n {
            for j in 0..d {
                let mu = out.get(v, j);
                let logvar = out.get(v, d + j).clamp(-10.0, 10.0);
                kl += f64::from(-0.5 * (1.0 + logvar - mu * mu - logvar.exp()) * kl_scale);
                let dzv = dz.get(v, j);
                self.d_out.set(v, j, dzv + kl_scale * mu);
                self.d_out.set(
                    v,
                    d + j,
                    dzv * self.eps.get(v, j) * 0.5 * (0.5 * logvar).exp()
                        + kl_scale * 0.5 * (logvar.exp() - 1.0),
                );
            }
        }
        self.encoder
            .backward_with(&self.adj, &mut self.ws, &self.d_out);
        let embeddings_bad = cx.guard.embeddings_bad(&[&self.z]);
        EpochOutcome::Step {
            loss: recon + kl as f32,
            embeddings_bad,
        }
    }

    fn grads_mut(&mut self) -> &mut [Matrix] {
        self.ws.grads_mut()
    }

    fn apply(&mut self, _epoch: usize, lr: f32, _loss: f32) {
        self.opt.lr = lr;
        self.opt.step(self.encoder.params_mut(), self.ws.grads());
    }

    fn embed(&mut self) -> Matrix {
        mu_embeddings(&self.encoder, &self.adj, self.x, self.d)
    }
}

/// Inference embeddings of VGAE: the posterior means μ.
fn mu_embeddings(
    encoder: &GcnEncoder,
    adj: &e2gcl_graph::SparseMatrix,
    x: &Matrix,
    d: usize,
) -> Matrix {
    let full = encoder.embed(adj, x);
    let mut mu = Matrix::zeros(full.rows(), d);
    for v in 0..full.rows() {
        mu.row_mut(v).copy_from_slice(&full.row(v)[..d]);
    }
    mu
}

#[cfg(test)]
mod tests {
    use super::*;
    use e2gcl_datasets::{spec, NodeDataset};

    fn tiny() -> (NodeDataset, TrainConfig) {
        (
            NodeDataset::generate(&spec("cora-sim").unwrap(), 0.05, 0),
            TrainConfig {
                epochs: 15,
                ..Default::default()
            },
        )
    }

    #[test]
    fn reconstruction_grad_check() {
        let mut rng = SeedRng::new(0);
        let mut z = Matrix::zeros(5, 3);
        for v in z.as_mut_slice() {
            *v = rng.normal() * 0.5;
        }
        let pos = vec![(0usize, 1usize), (2, 3)];
        let neg = vec![(0usize, 4usize), (1, 3)];
        let (_, dz) = reconstruction(&z, &pos, &neg);
        let eps = 1e-3f32;
        for r in 0..5 {
            for c in 0..3 {
                let orig = z.get(r, c);
                z.set(r, c, orig + eps);
                let lp = reconstruction(&z, &pos, &neg).0;
                z.set(r, c, orig - eps);
                let lm = reconstruction(&z, &pos, &neg).0;
                z.set(r, c, orig);
                let fd = (lp - lm) / (2.0 * eps);
                assert!(
                    (fd - dz.get(r, c)).abs() < 2e-2 * (1.0 + fd.abs()),
                    "dz({r},{c}): {fd} vs {}",
                    dz.get(r, c)
                );
            }
        }
    }

    #[test]
    fn gae_learns_to_reconstruct() {
        let (d, cfg) = tiny();
        let out = GaeModel
            .pretrain(&d.graph, &d.features, &cfg, &mut SeedRng::new(1))
            .unwrap();
        assert!(!out.embeddings.has_non_finite());
        assert!(
            out.loss_curve.last().unwrap() < &out.loss_curve[0],
            "{:?}",
            out.loss_curve
        );
    }

    #[test]
    fn vgae_trains_without_nans() {
        let (d, cfg) = tiny();
        let out = VgaeModel::default()
            .pretrain(&d.graph, &d.features, &cfg, &mut SeedRng::new(2))
            .unwrap();
        assert!(!out.embeddings.has_non_finite());
        assert_eq!(out.embeddings.cols(), cfg.embed_dim);
    }
}
