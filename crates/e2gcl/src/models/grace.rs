//! GRACE (Zhu et al. 2020) and GCA (Zhu et al. 2021).
//!
//! Both corrupt the graph into two views (uniform edge dropping + feature-
//! dimension masking for GRACE; centrality-adaptive versions for GCA) and
//! train a GCN + projection head with the symmetric InfoNCE objective.
//!
//! The `extra_*` fields implement the Fig. 2 "upgraded" variants: bolting
//! the missing operations (feature perturbation, edge addition) onto each
//! view, which the paper shows improves every baseline it upgrades.

use crate::config::TrainConfig;
use crate::engine::EpochDriver;
use crate::models::infonce::{InfoNceStep, Twin, ViewPair};
use crate::models::{sampled_minibatch, ContrastiveModel, PretrainResult};
use e2gcl_graph::CsrGraph;
use e2gcl_linalg::{Matrix, SeedRng, TrainError};
use e2gcl_nn::{FrozenEncoder, GcnEncoder, Mlp};
use e2gcl_views::{scores::GraphScores, uniform};

/// Configuration for GRACE and GCA.
#[derive(Clone, Debug)]
pub struct GraceConfig {
    /// `false` = GRACE (uniform corruption); `true` = GCA (adaptive).
    pub adaptive: bool,
    /// Edge-drop probability per view.
    pub drop_edge: (f32, f32),
    /// Feature-dimension mask probability per view.
    pub mask_feat: (f32, f32),
    /// InfoNCE temperature.
    pub tau: f32,
    /// Projection-head hidden/output width.
    pub proj_dim: usize,
    /// Fig. 2 upgrade: additionally perturb features entry-wise with this
    /// probability on each view (`+FP`).
    pub extra_feature_perturb: Option<f32>,
    /// Fig. 2 upgrade: additionally add this fraction of `|E|` random edges
    /// to each view (`+EA`).
    pub extra_edge_add: Option<f32>,
}

impl Default for GraceConfig {
    fn default() -> Self {
        Self {
            adaptive: false,
            drop_edge: (0.2, 0.4),
            mask_feat: (0.3, 0.4),
            tau: 0.5,
            proj_dim: 32,
            extra_feature_perturb: None,
            extra_edge_add: None,
        }
    }
}

/// GRACE / GCA model.
#[derive(Clone, Debug)]
pub struct GraceModel {
    /// Model configuration.
    pub config: GraceConfig,
}

impl GraceModel {
    /// Plain GRACE.
    pub fn grace() -> Self {
        Self {
            config: GraceConfig::default(),
        }
    }

    /// GCA (adaptive augmentation).
    pub fn gca() -> Self {
        Self {
            config: GraceConfig {
                adaptive: true,
                ..Default::default()
            },
        }
    }

    /// With explicit configuration.
    pub fn new(config: GraceConfig) -> Self {
        Self { config }
    }

    /// Generates one corrupted view of `(g, x)`: adaptive (GCA) when
    /// `gca` is given, uniform (GRACE) otherwise.
    fn make_view(
        &self,
        g: &CsrGraph,
        x: &Matrix,
        gca: Option<&Gca>,
        p_edge: f32,
        p_feat: f32,
        rng: &mut SeedRng,
    ) -> (CsrGraph, Matrix) {
        let mut vg = if let Some(probs) = gca.map(|c| &c.edge_probs) {
            // GCA: per-edge adaptive drop probabilities scaled so the mean
            // matches p_edge.
            let mean: f32 = probs.iter().sum::<f32>() / probs.len().max(1) as f32;
            let scale = if mean > 1e-9 { p_edge / mean } else { 1.0 };
            let scaled: Vec<f32> = probs.iter().map(|&p| p * scale).collect();
            uniform::drop_edges_weighted(g, &scaled, 0.9, rng)
        } else {
            uniform::drop_edges_uniform(g, p_edge, rng)
        };
        let mut vx = if let Some(w) = gca.map(|c| &c.feature_weights) {
            // GCA: mask unimportant dimensions more.
            let w_max = w.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let w_mean = w.iter().sum::<f32>() / w.len().max(1) as f32;
            let denom = (w_max - w_mean).max(1e-9);
            let probs: Vec<f32> = w.iter().map(|&wi| p_feat * (w_max - wi) / denom).collect();
            uniform::mask_feature_dims_weighted(x, &probs, 0.7, rng)
        } else {
            uniform::mask_feature_dims(x, p_feat, rng)
        };
        if let Some(p) = self.config.extra_feature_perturb {
            vx = uniform::perturb_features_uniform(&vx, p, rng);
        }
        if let Some(frac) = self.config.extra_edge_add {
            let count = ((g.num_edges() as f32) * frac).round() as usize;
            vg = uniform::add_edges_uniform(&vg, count, rng);
        }
        (vg, vx)
    }
}

/// GCA's adaptive corruption probabilities: whole-graph centrality
/// statistics, which a sampled subgraph cannot reproduce.
struct Gca {
    edge_probs: Vec<f32>,
    feature_weights: Vec<f32>,
}

impl ContrastiveModel for GraceModel {
    fn name(&self) -> String {
        let base = if self.config.adaptive { "GCA" } else { "GRACE" };
        let mut name = base.to_string();
        if self.config.extra_feature_perturb.is_some() {
            name.push_str("+FP");
        }
        if self.config.extra_edge_add.is_some() {
            name.push_str("+EA");
        }
        name
    }

    /// Trains a GCN + projection head with symmetric InfoNCE through the
    /// shared InfoNCE step: over the whole graph, or (DESIGN.md §13) over
    /// one fanout-bounded sampled view per shuffled seed batch, every node
    /// anchoring once per epoch. A degenerate mini-batch block trains on
    /// the whole graph, bitwise identical to `minibatch: None`.
    fn pretrain(
        &self,
        g: &CsrGraph,
        x: &Matrix,
        cfg: &TrainConfig,
        rng: &mut SeedRng,
    ) -> Result<PretrainResult, TrainError> {
        let conf = &self.config;
        if conf.adaptive && sampled_minibatch(cfg, g.num_nodes()).is_some() {
            return Err(TrainError::InvalidConfig(
                "GCA's adaptive corruption needs full-graph centrality scores; \
                 mini-batch training supports uniform (GRACE) corruption only"
                    .into(),
            ));
        }
        let driver = EpochDriver::new(cfg);
        let gca = conf.adaptive.then(|| Gca {
            edge_probs: uniform::gca_edge_drop_probs(g, 1.0),
            feature_weights: GraphScores::compute(g, x).feature_global,
        });
        let enc = GcnEncoder::new(&cfg.encoder_dims(x.cols()), &mut rng.fork("init"));
        let head = Mlp::new(
            cfg.embed_dim,
            conf.proj_dim,
            conf.proj_dim,
            &mut rng.fork("head"),
        );
        let augment = |g: &CsrGraph, x: &Matrix, rng: &mut SeedRng| -> ViewPair {
            [
                self.make_view(g, x, gca.as_ref(), conf.drop_edge.0, conf.mask_feat.0, rng),
                self.make_view(g, x, gca.as_ref(), conf.drop_edge.1, conf.mask_feat.1, rng),
            ]
        };
        let twin = Twin::resident(FrozenEncoder::Gcn(enc));
        let train_rng = rng.fork("train");
        driver.run(&mut InfoNceStep::new(
            g,
            x,
            cfg,
            augment,
            twin,
            Some(head),
            None,
            conf.tau,
            train_rng,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MinibatchConfig;
    use e2gcl_datasets::{spec, NodeDataset};

    fn tiny() -> (NodeDataset, TrainConfig) {
        (
            NodeDataset::generate(&spec("cora-sim").unwrap(), 0.05, 0),
            TrainConfig {
                epochs: 8,
                batch_size: 64,
                ..Default::default()
            },
        )
    }

    #[test]
    fn grace_trains_and_loss_falls() {
        let (d, cfg) = tiny();
        let out = GraceModel::grace()
            .pretrain(&d.graph, &d.features, &cfg, &mut SeedRng::new(0))
            .unwrap();
        assert!(!out.embeddings.has_non_finite());
        assert!(
            out.loss_curve.last().unwrap() < out.loss_curve.first().unwrap(),
            "{:?}",
            out.loss_curve
        );
    }

    #[test]
    fn gca_trains() {
        let (d, cfg) = tiny();
        let out = GraceModel::gca()
            .pretrain(&d.graph, &d.features, &cfg, &mut SeedRng::new(1))
            .unwrap();
        assert!(!out.embeddings.has_non_finite());
        assert_eq!(out.selection_time.as_nanos(), 0);
    }

    #[test]
    fn upgraded_variants_have_distinct_names() {
        let up = GraceModel::new(GraceConfig {
            extra_feature_perturb: Some(0.1),
            extra_edge_add: Some(0.1),
            ..Default::default()
        });
        assert_eq!(up.name(), "GRACE+FP+EA");
        assert_eq!(GraceModel::gca().name(), "GCA");
    }

    fn minibatch(batch_nodes: usize, fanout: Option<usize>) -> Option<MinibatchConfig> {
        Some(MinibatchConfig {
            batch_nodes,
            fanout,
        })
    }

    #[test]
    fn grace_minibatch_trains_and_loss_falls() {
        let (d, cfg) = tiny();
        let cfg = TrainConfig {
            epochs: 10,
            minibatch: minibatch(48, Some(5)),
            ..cfg
        };
        let out = GraceModel::grace()
            .pretrain(&d.graph, &d.features, &cfg, &mut SeedRng::new(0))
            .unwrap();
        assert_eq!(out.embeddings.rows(), d.graph.num_nodes());
        assert!(!out.embeddings.has_non_finite());
        assert_eq!(out.loss_curve.len(), 10);
        assert!(
            out.loss_curve.last().unwrap() < out.loss_curve.first().unwrap(),
            "{:?}",
            out.loss_curve
        );
    }

    #[test]
    fn grace_minibatch_is_deterministic() {
        let (d, cfg) = tiny();
        let cfg = TrainConfig {
            epochs: 4,
            minibatch: minibatch(32, Some(4)),
            ..cfg
        };
        let run = |seed| {
            GraceModel::grace()
                .pretrain(&d.graph, &d.features, &cfg, &mut SeedRng::new(seed))
                .unwrap()
        };
        let (a, b) = (run(3), run(3));
        assert_eq!(a.embeddings, b.embeddings);
        assert_eq!(a.loss_curve, b.loss_curve);
        assert_ne!(run(4).embeddings, a.embeddings);
    }

    #[test]
    fn gca_rejects_minibatch() {
        let (d, cfg) = tiny();
        let cfg = TrainConfig {
            minibatch: minibatch(32, Some(4)),
            ..cfg
        };
        let err = GraceModel::gca()
            .pretrain(&d.graph, &d.features, &cfg, &mut SeedRng::new(0))
            .unwrap_err();
        assert!(matches!(err, TrainError::InvalidConfig(_)), "{err}");
    }

    #[test]
    fn sub_quadratic_strategies_train_full_and_minibatch() {
        use crate::config::LossStrategy;
        let (d, cfg) = tiny();
        for loss in [
            LossStrategy::SmallNeg { negatives: 32 },
            LossStrategy::Localized { hops: 2 },
        ] {
            for mb in [None, minibatch(48, Some(5))] {
                let cfg = TrainConfig {
                    epochs: 4,
                    loss: loss.clone(),
                    minibatch: mb,
                    ..cfg.clone()
                };
                let run = |seed: u64| {
                    GraceModel::grace()
                        .pretrain(&d.graph, &d.features, &cfg, &mut SeedRng::new(seed))
                        .unwrap()
                };
                let (a, b) = (run(7), run(7));
                assert!(!a.embeddings.has_non_finite(), "{}", loss.name());
                assert_eq!(a.embeddings, b.embeddings, "{}", loss.name());
                assert_eq!(a.loss_curve, b.loss_curve, "{}", loss.name());
            }
        }
    }

    #[test]
    fn upgraded_variant_trains() {
        let (d, cfg) = tiny();
        let model = GraceModel::new(GraceConfig {
            adaptive: true,
            extra_feature_perturb: Some(0.2),
            extra_edge_add: Some(0.1),
            ..Default::default()
        });
        let cfg = TrainConfig { epochs: 4, ..cfg };
        let out = model
            .pretrain(&d.graph, &d.features, &cfg, &mut SeedRng::new(2))
            .unwrap();
        assert!(!out.embeddings.has_non_finite());
    }
}
