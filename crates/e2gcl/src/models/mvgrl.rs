//! MVGRL (Hassani & Khasahmadi 2020): contrastive multi-view learning
//! between the original adjacency and a PPR-diffusion view.
//!
//! Two view-specific GCN encoders train through DGI's local–global step
//! (`LocalGlobalStep`) with the views `(A, x)` and `(PPR diffusion, x)`:
//! each view's nodes contrast against the graph summary of the *other*
//! view, negatives come from feature shuffling, and each encoder's
//! gradients are clipped as their own group. Inference sums the two views'
//! embeddings.
//!
//! The `extra_feature_perturb` hook adds uniform feature perturbation to
//! both views — the Fig. 2 `MVGRL+FP` upgrade.

use crate::config::TrainConfig;
use crate::engine::EpochDriver;
use crate::models::dgi::LocalGlobalStep;
use crate::models::{ContrastiveModel, PretrainResult};
use e2gcl_graph::{norm, ppr, CsrGraph};
use e2gcl_linalg::{Matrix, SeedRng, TrainError};
use e2gcl_nn::GcnEncoder;

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

    /// The two-view local–global step: `(A, x)` and `(PPR diffusion, x)`.
    pub(crate) fn step<'a>(
        &self,
        g: &CsrGraph,
        x: &'a Matrix,
        cfg: &TrainConfig,
        rng: &mut SeedRng,
    ) -> LocalGlobalStep<'a> {
        let diffusion =
            ppr::ppr_diffusion_graph(g, self.config.alpha, self.config.epsilon, self.config.top_k);
        let dims = cfg.encoder_dims(x.cols());
        let views = vec![
            (
                norm::normalized_adjacency(g),
                GcnEncoder::new(&dims, &mut rng.fork("enc1")),
            ),
            (
                norm::normalized_adjacency(&diffusion),
                GcnEncoder::new(&dims, &mut rng.fork("enc2")),
            ),
        ];
        LocalGlobalStep::new(x, self.config.extra_feature_perturb, views, cfg, rng)
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
        crate::models::ensure_whole_graph_full_loss(cfg, &self.name())?;
        let driver = EpochDriver::new(cfg);
        driver.run(&mut self.step(g, x, cfg, rng))
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
