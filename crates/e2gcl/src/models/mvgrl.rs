//! MVGRL (Hassani & Khasahmadi 2020): contrastive multi-view learning
//! between the original adjacency and a PPR-diffusion view.
//!
//! Two view-specific GCN encoders are trained with a cross-view
//! node-vs-summary discriminator (DGI-style): node embeddings from one view
//! contrast against the graph summary of the *other* view; negatives come
//! from feature shuffling. Inference sums the two views' embeddings.
//!
//! The `extra_feature_perturb` hook adds uniform feature perturbation to
//! both views — the Fig. 2 `MVGRL+FP` upgrade.

use crate::config::TrainConfig;
use crate::engine::{EpochCtx, EpochDriver, EpochOutcome, EpochStep};
use crate::models::dgi::{shuffle_rows, summary, summary_backward, BilinearDiscriminator};
use crate::models::{ContrastiveModel, PretrainResult};
use e2gcl_graph::{norm, ppr, CsrGraph, SparseMatrix};
use e2gcl_linalg::{Matrix, SeedRng, TrainError};
use e2gcl_nn::{loss, optim, optim::Optimizer, Adam, GcnEncoder, GcnWorkspace};
use e2gcl_views::uniform;
use std::time::Instant;

/// MVGRL configuration.
#[derive(Clone, Debug)]
pub struct MvgrlConfig {
    /// PPR teleport probability.
    pub alpha: f32,
    /// PPR push tolerance.
    pub epsilon: f32,
    /// Edges kept per node in the diffusion view.
    pub top_k: usize,
    /// Fig. 2 upgrade: uniform feature perturbation on both views (`+FP`).
    pub extra_feature_perturb: Option<f32>,
}

impl Default for MvgrlConfig {
    fn default() -> Self {
        Self {
            alpha: 0.2,
            epsilon: 1e-3,
            top_k: 16,
            extra_feature_perturb: None,
        }
    }
}

/// The MVGRL model.
#[derive(Clone, Debug, Default)]
pub struct MvgrlModel {
    /// Model configuration.
    pub config: MvgrlConfig,
}

impl MvgrlModel {
    /// With explicit configuration.
    pub fn new(config: MvgrlConfig) -> Self {
        Self { config }
    }
}

impl ContrastiveModel for MvgrlModel {
    fn name(&self) -> String {
        if self.config.extra_feature_perturb.is_some() {
            "MVGRL+FP".to_string()
        } else {
            "MVGRL".to_string()
        }
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
        let diffusion =
            ppr::ppr_diffusion_graph(g, self.config.alpha, self.config.epsilon, self.config.top_k);
        let a1 = norm::normalized_adjacency(g);
        let a2 = norm::normalized_adjacency(&diffusion);
        let dims = cfg.encoder_dims(x.cols());
        let enc1 = GcnEncoder::new(&dims, &mut rng.fork("enc1"));
        let enc2 = GcnEncoder::new(&dims, &mut rng.fork("enc2"));
        let disc = BilinearDiscriminator::new(cfg.embed_dim, &mut rng.fork("disc"));
        let opt1 = Adam::with_weight_decay(cfg.lr, cfg.weight_decay);
        let opt2 = Adam::with_weight_decay(cfg.lr, cfg.weight_decay);
        let disc_opt = Adam::new(cfg.lr);
        let train_rng = rng.fork("train");
        let mut step = MvgrlStep {
            config: &self.config,
            x,
            a1,
            a2,
            enc1,
            enc2,
            disc,
            opt1,
            opt2,
            disc_opt,
            train_rng,
            ws1: GcnWorkspace::new(),
            ws2: GcnWorkspace::new(),
            ws1n: GcnWorkspace::new(),
            ws2n: GcnWorkspace::new(),
            dw: Matrix::default(),
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

/// One MVGRL epoch: four encoder passes (two views × real/corrupt) scored
/// cross-view against the other view's summary.
struct MvgrlStep<'a> {
    config: &'a MvgrlConfig,
    x: &'a Matrix,
    a1: SparseMatrix,
    a2: SparseMatrix,
    enc1: GcnEncoder,
    enc2: GcnEncoder,
    disc: BilinearDiscriminator,
    opt1: Adam,
    opt2: Adam,
    disc_opt: Adam,
    train_rng: SeedRng,
    ws1: GcnWorkspace,
    ws2: GcnWorkspace,
    ws1n: GcnWorkspace,
    ws2n: GcnWorkspace,
    /// Combined discriminator gradient (auxiliary: scanned and stepped, but
    /// never clipped).
    dw: Matrix,
}

impl EpochStep for MvgrlStep<'_> {
    fn epoch(&mut self, cx: &mut EpochCtx<'_>) -> EpochOutcome {
        let n = self.x.rows();
        let (mut xv1, xv2) = match self.config.extra_feature_perturb {
            Some(p) => (
                uniform::perturb_features_uniform(self.x, p, &mut self.train_rng),
                uniform::perturb_features_uniform(self.x, p, &mut self.train_rng),
            ),
            None => (self.x.clone(), self.x.clone()),
        };
        cx.fault.corrupt_features(cx.epoch, &mut xv1);
        let x_corrupt = shuffle_rows(self.x, &mut self.train_rng);
        self.enc1.forward_with(&self.a1, &xv1, &mut self.ws1);
        self.enc2.forward_with(&self.a2, &xv2, &mut self.ws2);
        self.enc1.forward_with(&self.a1, &x_corrupt, &mut self.ws1n);
        self.enc2.forward_with(&self.a2, &x_corrupt, &mut self.ws2n);
        let (h1, h2) = (self.ws1.output(), self.ws2.output());
        let (h1n, h2n) = (self.ws1n.output(), self.ws2n.output());
        let (s1, dsig1) = summary(h1);
        let (s2, dsig2) = summary(h2);
        // Cross-view scores: (h1, s2) and (h2, s1), real vs corrupt.
        let mut logits = self.disc.score(h1, &s2);
        logits.extend(self.disc.score(h2, &s1));
        logits.extend(self.disc.score(h1n, &s2));
        logits.extend(self.disc.score(h2n, &s1));
        let mut targets = vec![1.0f32; 2 * n];
        targets.extend(std::iter::repeat_n(0.0, 2 * n));
        let (l, dl) = loss::bce_with_logits(&logits, &targets);
        let g1 = self.disc.backward(h1, &s2, &dl[..n]);
        let g2 = self.disc.backward(h2, &s1, &dl[n..2 * n]);
        let g1n = self.disc.backward(h1n, &s2, &dl[2 * n..3 * n]);
        let g2n = self.disc.backward(h2n, &s1, &dl[3 * n..]);
        // Summary gradients: s2 is scored against h1 and h1n; s1
        // against h2 and h2n.
        let mut d_h1 = g1.dh;
        let mut d_h2 = g2.dh;
        let ds1: Vec<f32> = g2.ds.iter().zip(&g2n.ds).map(|(a, b)| a + b).collect();
        let ds2: Vec<f32> = g1.ds.iter().zip(&g1n.ds).map(|(a, b)| a + b).collect();
        summary_backward(&mut d_h1, &ds1, &dsig1);
        summary_backward(&mut d_h2, &ds2, &dsig2);
        self.enc1.backward_with(&self.a1, &mut self.ws1, &d_h1);
        self.enc1.backward_with(&self.a1, &mut self.ws1n, &g1n.dh);
        self.enc2.backward_with(&self.a2, &mut self.ws2, &d_h2);
        self.enc2.backward_with(&self.a2, &mut self.ws2n, &g2n.dh);
        for (acc, g) in self.ws1.grads_mut().iter_mut().zip(self.ws1n.grads()) {
            acc.axpy(1.0, g);
        }
        for (acc, g) in self.ws2.grads_mut().iter_mut().zip(self.ws2n.grads()) {
            acc.axpy(1.0, g);
        }
        let mut dw = g1.dw;
        dw.add_assign(&g2.dw);
        dw.add_assign(&g1n.dw);
        dw.add_assign(&g2n.dw);
        self.dw = dw;
        let embeddings_bad = cx
            .guard
            .embeddings_bad(&[self.ws1.output(), self.ws2.output()]);
        EpochOutcome::Step {
            loss: l,
            embeddings_bad,
        }
    }

    fn grads_mut(&mut self) -> &mut [Matrix] {
        self.ws1.grads_mut()
    }

    fn aux_grads_bad(&self) -> bool {
        optim::grads_non_finite(self.ws2.grads()) || self.dw.has_non_finite()
    }

    // The two encoders' gradients are clipped as separate groups, each with
    // its own global norm (as the pre-engine loop did).
    fn clip(&mut self, max_norm: f32) {
        optim::clip_grad_norm(self.ws1.grads_mut(), max_norm);
        optim::clip_grad_norm(self.ws2.grads_mut(), max_norm);
    }

    fn apply(&mut self, _epoch: usize, lr: f32, _loss: f32) {
        self.opt1.lr = lr;
        self.opt2.lr = lr;
        self.disc_opt.lr = lr;
        self.opt1.step(self.enc1.params_mut(), self.ws1.grads());
        self.opt2.step(self.enc2.params_mut(), self.ws2.grads());
        self.disc_opt.step(
            std::slice::from_mut(&mut self.disc.w),
            std::slice::from_ref(&self.dw),
        );
    }

    fn embed(&mut self) -> Matrix {
        let mut h = self.enc1.embed(&self.a1, self.x);
        h.add_assign(&self.enc2.embed(&self.a2, self.x));
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use e2gcl_datasets::{spec, NodeDataset};

    #[test]
    fn mvgrl_trains_and_loss_falls() {
        let d = NodeDataset::generate(&spec("cora-sim").unwrap(), 0.05, 0);
        let cfg = TrainConfig {
            epochs: 12,
            ..Default::default()
        };
        let out = MvgrlModel::default()
            .pretrain(&d.graph, &d.features, &cfg, &mut SeedRng::new(0))
            .unwrap();
        assert!(!out.embeddings.has_non_finite());
        assert!(out.loss_curve.last().unwrap() < &out.loss_curve[0]);
    }

    #[test]
    fn upgraded_name_and_training() {
        let model = MvgrlModel::new(MvgrlConfig {
            extra_feature_perturb: Some(0.2),
            ..Default::default()
        });
        assert_eq!(model.name(), "MVGRL+FP");
        let d = NodeDataset::generate(&spec("cora-sim").unwrap(), 0.04, 1);
        let cfg = TrainConfig {
            epochs: 3,
            ..Default::default()
        };
        let out = model
            .pretrain(&d.graph, &d.features, &cfg, &mut SeedRng::new(1))
            .unwrap();
        assert!(!out.embeddings.has_non_finite());
    }
}
