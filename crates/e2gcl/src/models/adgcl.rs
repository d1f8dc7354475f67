//! ADGCL (Suresh et al. 2021): adversarial graph augmentation.
//!
//! A learnable augmenter holds one drop logit per edge; the encoder
//! minimises InfoNCE between the original and the augmented view while the
//! augmenter *maximises* it (minus a drop-ratio regulariser), so the views
//! keep exactly the information the encoder cannot afford to lose.
//!
//! Simplification vs the original (documented in `DESIGN.md`): the paper's
//! GIN + Gumbel-relaxed augmenter is specialised to the edge-drop augmenter
//! (the operation Table I credits ADGCL with), and the augmenter gradient is
//! estimated with REINFORCE + a moving-average baseline instead of the
//! Gumbel reparameterisation — same objective, derivative-free estimator.

use crate::config::TrainConfig;
use crate::engine::{EpochCtx, EpochDriver, EpochOutcome, EpochStep};
use crate::models::{shuffled_batches, ContrastiveModel, PretrainResult};
use e2gcl_graph::{norm, CsrGraph, SparseMatrix};
use e2gcl_linalg::{activations, Matrix, SeedRng, TrainError};
use e2gcl_nn::loss::InfoNceScratch;
use e2gcl_nn::{loss, optim::Optimizer, Adam, GcnEncoder, GcnWorkspace, Mlp, MlpWorkspace};
use e2gcl_views::uniform;
use std::time::Instant;

/// ADGCL configuration.
#[derive(Clone, Debug)]
pub struct AdgclConfig {
    /// InfoNCE temperature.
    pub tau: f32,
    /// Augmenter learning rate (REINFORCE ascent).
    pub aug_lr: f32,
    /// Drop-ratio regulariser weight λ.
    pub lambda: f32,
    /// Fig. 2 upgrade: uniform feature perturbation on the view (`+FP`).
    pub extra_feature_perturb: Option<f32>,
    /// Fig. 2 upgrade: fraction of `|E|` random edges added to the view
    /// (`+EA`).
    pub extra_edge_add: Option<f32>,
}

impl Default for AdgclConfig {
    fn default() -> Self {
        Self {
            tau: 0.5,
            aug_lr: 0.5,
            lambda: 0.3,
            extra_feature_perturb: None,
            extra_edge_add: None,
        }
    }
}

/// The ADGCL model.
#[derive(Clone, Debug, Default)]
pub struct AdgclModel {
    /// Model configuration.
    pub config: AdgclConfig,
}

impl AdgclModel {
    /// With explicit configuration.
    pub fn new(config: AdgclConfig) -> Self {
        Self { config }
    }
}

impl ContrastiveModel for AdgclModel {
    fn name(&self) -> String {
        let mut name = "ADGCL".to_string();
        if self.config.extra_feature_perturb.is_some() {
            name.push_str("+FP");
        }
        if self.config.extra_edge_add.is_some() {
            name.push_str("+EA");
        }
        name
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
        let edges: Vec<(usize, usize)> = g.edges().collect();
        // Augmenter state: per-edge drop logits, initialised to drop ~20%.
        let logits = vec![-1.4f32; edges.len()];
        let adj_orig = norm::normalized_adjacency(g);
        let encoder = GcnEncoder::new(&cfg.encoder_dims(x.cols()), &mut rng.fork("init"));
        let head = Mlp::new(cfg.embed_dim, 32, 32, &mut rng.fork("head"));
        let opt = Adam::with_weight_decay(cfg.lr, cfg.weight_decay);
        let train_rng = rng.fork("train");
        let mut step = AdgclStep {
            config: &self.config,
            g,
            x,
            cfg,
            edges,
            logits,
            baseline: 0.0,
            probs: Vec::new(),
            dropped: Vec::new(),
            adj_orig,
            encoder,
            head,
            opt,
            train_rng,
            ws1: GcnWorkspace::new(),
            ws2: GcnWorkspace::new(),
            head_ws1: MlpWorkspace::new(),
            head_ws2: MlpWorkspace::new(),
            nce: InfoNceScratch::default(),
            d_h1: Matrix::default(),
            d_h2: Matrix::default(),
            hb1: Matrix::default(),
            hb2: Matrix::default(),
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

/// One ADGCL epoch: sample the adversarial edge-drop view, contrast it
/// against the original with InfoNCE, and (in `apply`) take the augmenter's
/// REINFORCE ascent step alongside the encoder descent.
struct AdgclStep<'a> {
    config: &'a AdgclConfig,
    g: &'a CsrGraph,
    x: &'a Matrix,
    cfg: &'a TrainConfig,
    edges: Vec<(usize, usize)>,
    logits: Vec<f32>,
    baseline: f32,
    /// This epoch's drop probabilities / Bernoulli draws, kept for the
    /// REINFORCE update in `apply`.
    probs: Vec<f32>,
    dropped: Vec<bool>,
    adj_orig: SparseMatrix,
    encoder: GcnEncoder,
    head: Mlp,
    opt: Adam,
    train_rng: SeedRng,
    ws1: GcnWorkspace,
    ws2: GcnWorkspace,
    head_ws1: MlpWorkspace,
    head_ws2: MlpWorkspace,
    nce: InfoNceScratch,
    d_h1: Matrix,
    d_h2: Matrix,
    hb1: Matrix,
    hb2: Matrix,
}

impl EpochStep for AdgclStep<'_> {
    fn epoch(&mut self, cx: &mut EpochCtx<'_>) -> EpochOutcome {
        let n = self.g.num_nodes();
        let cfg = self.cfg;
        // Sample the augmented view from the current drop distribution.
        self.probs = self
            .logits
            .iter()
            .map(|&s| activations::sigmoid(s))
            .collect();
        self.dropped = self
            .probs
            .iter()
            .map(|&p| self.train_rng.bernoulli(p))
            .collect();
        let kept: Vec<(usize, usize)> = self
            .edges
            .iter()
            .zip(&self.dropped)
            .filter(|&(_, &d)| !d)
            .map(|(&e, _)| e)
            .collect();
        let mut g2 = CsrGraph::from_edges(n, &kept);
        let mut x2 = self.x.clone();
        if let Some(p) = self.config.extra_feature_perturb {
            x2 = uniform::perturb_features_uniform(&x2, p, &mut self.train_rng);
        }
        if let Some(frac) = self.config.extra_edge_add {
            let count = ((self.g.num_edges() as f32) * frac).round() as usize;
            g2 = uniform::add_edges_uniform(&g2, count, &mut self.train_rng);
        }
        cx.fault.corrupt_features(cx.epoch, &mut x2);
        let a2 = norm::normalized_adjacency(&g2);
        self.encoder
            .forward_with(&self.adj_orig, self.x, &mut self.ws1);
        self.encoder.forward_with(&a2, &x2, &mut self.ws2);
        self.d_h1.reset_zeroed(n, cfg.embed_dim);
        self.d_h2.reset_zeroed(n, cfg.embed_dim);
        let batches = shuffled_batches((0..n).collect(), cfg.batch_size, &mut self.train_rng);
        let num_batches = batches.len() as f32;
        let mut epoch_loss = 0.0;
        for batch in batches {
            if batch.len() < 2 {
                continue;
            }
            self.ws1.output().select_rows_into(&batch, &mut self.hb1);
            self.ws2.output().select_rows_into(&batch, &mut self.hb2);
            self.head.forward_with(&self.hb1, &mut self.head_ws1);
            self.head.forward_with(&self.hb2, &mut self.head_ws2);
            let batch_loss = loss::info_nce_with(
                self.head_ws1.output(),
                self.head_ws2.output(),
                self.config.tau,
                &mut self.nce,
            );
            epoch_loss += batch_loss / num_batches;
            self.head
                .backward_with(&self.hb1, self.nce.d_z1(), &mut self.head_ws1);
            self.head
                .backward_with(&self.hb2, self.nce.d_z2(), &mut self.head_ws2);
            for (i, &v) in batch.iter().enumerate() {
                for (dst, &src) in self
                    .d_h1
                    .row_mut(v)
                    .iter_mut()
                    .zip(self.head_ws1.d_input().row(i))
                {
                    *dst += src / num_batches;
                }
                for (dst, &src) in self
                    .d_h2
                    .row_mut(v)
                    .iter_mut()
                    .zip(self.head_ws2.d_input().row(i))
                {
                    *dst += src / num_batches;
                }
            }
            // The head steps inside the epoch, before the guard verdict: on
            // a retry only the encoder update is discarded (as before).
            self.head
                .step(self.head_ws1.grads(), cx.lr / num_batches, 0.0);
            self.head
                .step(self.head_ws2.grads(), cx.lr / num_batches, 0.0);
        }
        self.encoder
            .backward_with(&self.adj_orig, &mut self.ws1, &self.d_h1);
        self.encoder.backward_with(&a2, &mut self.ws2, &self.d_h2);
        for (acc, g) in self.ws1.grads_mut().iter_mut().zip(self.ws2.grads()) {
            acc.axpy(1.0, g);
        }
        let embeddings_bad = cx
            .guard
            .embeddings_bad(&[self.ws1.output(), self.ws2.output()]);
        EpochOutcome::Step {
            loss: epoch_loss,
            embeddings_bad,
        }
    }

    fn grads_mut(&mut self) -> &mut [Matrix] {
        self.ws1.grads_mut()
    }

    fn apply(&mut self, _epoch: usize, lr: f32, loss: f32) {
        self.opt.lr = lr;
        self.opt.step(self.encoder.params_mut(), self.ws1.grads());
        // Augmenter REINFORCE ascent on (loss − λ·E[drop]), driven by the
        // same (possibly fault-corrupted) loss the guard inspected.
        let advantage = loss - self.baseline;
        self.baseline = 0.9 * self.baseline + 0.1 * loss;
        for ((s, &p), &was_dropped) in self.logits.iter_mut().zip(&self.probs).zip(&self.dropped) {
            let dlogp = if was_dropped { 1.0 - p } else { -p };
            *s += self.config.aug_lr * (advantage * dlogp - self.config.lambda * p * (1.0 - p));
            *s = s.clamp(-4.0, 4.0);
        }
    }

    fn embed(&mut self) -> Matrix {
        self.encoder.embed(&self.adj_orig, self.x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use e2gcl_datasets::{spec, NodeDataset};

    #[test]
    fn adgcl_trains_without_nans() {
        let d = NodeDataset::generate(&spec("cora-sim").unwrap(), 0.05, 0);
        let cfg = TrainConfig {
            epochs: 6,
            batch_size: 64,
            ..Default::default()
        };
        let out = AdgclModel::default()
            .pretrain(&d.graph, &d.features, &cfg, &mut SeedRng::new(0))
            .unwrap();
        assert!(!out.embeddings.has_non_finite());
        assert_eq!(out.loss_curve.len(), 6);
    }

    #[test]
    fn upgraded_names() {
        let m = AdgclModel::new(AdgclConfig {
            extra_feature_perturb: Some(0.1),
            extra_edge_add: Some(0.05),
            ..Default::default()
        });
        assert_eq!(m.name(), "ADGCL+FP+EA");
    }
}
