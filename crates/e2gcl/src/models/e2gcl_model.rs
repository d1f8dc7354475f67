//! The E²GCL model: coreset selection + importance-aware views + Eq. (5)
//! contrastive training (the full Alg. 1 / Alg. 2 / Alg. 3 stack).

use crate::checkpoint::StepState;
use crate::config::TrainConfig;
use crate::engine::{EpochCtx, EpochDriver, EpochOutcome, EpochStep};
use crate::models::infonce::{self, accumulate, InfoNceStep, Twin, ViewPair};
use crate::models::{
    ensure_finite_features, sample_negative_indices, sampled_minibatch, ContrastiveModel,
    PretrainResult,
};
use e2gcl_graph::{CsrGraph, SparseMatrix};
use e2gcl_linalg::{Matrix, SeedRng, TrainError};
use e2gcl_nn::{
    optim::Optimizer, Adam, ContrastiveLoss, FrozenEncoder, GcnEncoder, MarginContrastive,
    SageEncoder, SgcEncoder,
};
use e2gcl_selector::baselines::{
    DegreeSelector, GrainSelector, KCenterGreedy, KMeansSelector, RandomSelector,
};
use e2gcl_selector::greedy::{GreedyConfig, GreedySelector};
use e2gcl_selector::{NodeSelector, Selection};
use e2gcl_views::uniform;
use e2gcl_views::{ViewConfig, ViewGenerator};

/// Which node-selection strategy to use (Table VII rows; `All` disables
/// selection entirely — the `E²GCL_{A,·}` ablations).
#[derive(Clone, Debug)]
pub enum SelectorKind {
    /// Alg. 2 (the paper's selector).
    Greedy(GreedyConfig),
    /// Uniform random.
    Random,
    /// Log-degree-weighted sampling.
    Degree,
    /// 10-way KMeans + even share.
    KMeans,
    /// K-Center-Greedy.
    Kcg,
    /// Grain-style influence maximisation.
    Grain,
    /// Train on every node (no selection).
    All,
}

/// How positive views are realised during training.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ViewMode {
    /// One full-graph view pair per epoch; anchors read their rows out of a
    /// shared forward pass (the batched form — see `views::sampler` docs).
    GlobalBatched,
    /// The literal Alg. 3: two fresh ego views per anchor per batch, each
    /// encoded separately. Orders of magnitude slower; used to validate the
    /// batched form and for faithfulness experiments on small graphs.
    PerNodeEgo,
}

/// Which encoder family E²GCL trains (§IV-C Remarks: the view generator is
/// encoder-agnostic, so any GNN slots in).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EncoderKind {
    /// The Eq. (1) GCN (the paper's default).
    Gcn,
    /// SGC — `A_n^L X W`, the Theorem-1 relaxation as an actual encoder.
    Sgc,
    /// GraphSAGE-mean — separate self/neighbour transforms.
    Sage,
}

impl EncoderKind {
    /// A freshly initialised encoder of this family over `d_x` features,
    /// with `cfg`'s layer widths (SGC: two propagation steps).
    fn build(self, d_x: usize, cfg: &TrainConfig, rng: &mut SeedRng) -> FrozenEncoder {
        match self {
            EncoderKind::Gcn => FrozenEncoder::Gcn(GcnEncoder::new(&cfg.encoder_dims(d_x), rng)),
            EncoderKind::Sgc => FrozenEncoder::Sgc(SgcEncoder::new(d_x, cfg.embed_dim, 2, rng)),
            EncoderKind::Sage => FrozenEncoder::Sage(SageEncoder::new(&cfg.encoder_dims(d_x), rng)),
        }
    }
}

/// Which contrastive objective E²GCL trains with on the whole graph under
/// `LossStrategy::Full` (DESIGN.md §6 ablation: the paper's Eq. (5) margin
/// loss vs GRACE-style InfoNCE on the same λ-weighted anchor batches and
/// views). Both are `ContrastiveLoss` kernels of the shared step; the
/// per-node oracle always trains Eq. (5), and sub-quadratic strategies and
/// sampled views always train InfoNCE.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LossKind {
    /// The paper's Eq. (5) Euclidean margin loss (`MarginContrastive`).
    Margin,
    /// Symmetric InfoNCE (NT-Xent) at temperature 0.5 (`FullInfoNce`); a
    /// batch of one anchor is skipped.
    InfoNce,
}

/// Which view-generation strategy to use (Table VI/VIII variants).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ViewStrategy {
    /// Edge-aware + feature-aware (the paper's generator).
    Importance,
    /// Both uniform (`E²GCL\F\S`).
    Uniform,
    /// Edges uniform, features aware (`E²GCL\S`).
    UniformEdges,
    /// Features uniform, edges aware (`E²GCL\F`).
    UniformFeatures,
}

/// Full E²GCL configuration.
#[derive(Clone, Debug)]
pub struct E2gclConfig {
    /// Node budget ratio `r` (`k = r·|V|`).
    pub node_ratio: f64,
    /// Selection strategy.
    pub selector: SelectorKind,
    /// View-generation strategy.
    pub strategy: ViewStrategy,
    /// Base view-generator parameters (β, candidate cap, L).
    pub view: ViewConfig,
    /// Neighbour ratio `τ̂` of the first view.
    pub tau_hat: f32,
    /// Neighbour ratio `τ̃` of the second view.
    pub tau_tilde: f32,
    /// Perturbation scale `η̂` of the first view.
    pub eta_hat: f32,
    /// Perturbation scale `η̃` of the second view.
    pub eta_tilde: f32,
    /// Negative samples per anchor (`|Neg_v|`).
    pub negatives: usize,
    /// Margin of the Eq. (5) loss.
    pub margin: f32,
    /// L2-normalise embeddings inside the loss. Distances then live on the
    /// unit sphere (max 2), so one margin works across datasets of very
    /// different feature scales and class counts.
    pub normalize: bool,
    /// Contrastive objective (margin vs InfoNCE ablation).
    pub loss: LossKind,
    /// Encoder family (GCN vs SGC — the §IV-C encoder-agnosticism demo).
    pub encoder: EncoderKind,
    /// Batched full-graph views vs literal per-node ego views.
    pub view_mode: ViewMode,
}

impl Default for E2gclConfig {
    fn default() -> Self {
        Self {
            node_ratio: 0.4,
            selector: SelectorKind::Greedy(GreedyConfig::default()),
            strategy: ViewStrategy::Importance,
            view: ViewConfig::default(),
            tau_hat: 1.0,
            tau_tilde: 0.8,
            eta_hat: 0.6,
            eta_tilde: 0.8,
            negatives: 5,
            margin: 1.0,
            normalize: true,
            loss: LossKind::Margin,
            encoder: EncoderKind::Gcn,
            view_mode: ViewMode::GlobalBatched,
        }
    }
}

/// The E²GCL contrastive learner.
#[derive(Clone, Debug, Default)]
pub struct E2gclModel {
    /// Model configuration.
    pub config: E2gclConfig,
}

impl E2gclModel {
    /// Model with explicit configuration.
    pub fn new(config: E2gclConfig) -> Self {
        Self { config }
    }

    /// Runs the configured node selector (Alg. 1 line 3 prerequisite).
    pub fn select_nodes(&self, g: &CsrGraph, x: &Matrix, rng: &mut SeedRng) -> Selection {
        let n = g.num_nodes();
        let budget = ((n as f64) * self.config.node_ratio).round().max(1.0) as usize;
        match &self.config.selector {
            SelectorKind::Greedy(cfg) => GreedySelector::new(cfg.clone()).select(g, x, budget, rng),
            SelectorKind::Random => RandomSelector.select(g, x, budget, rng),
            SelectorKind::Degree => DegreeSelector.select(g, x, budget, rng),
            SelectorKind::KMeans => KMeansSelector::default().select(g, x, budget, rng),
            SelectorKind::Kcg => KCenterGreedy.select(g, x, budget, rng),
            SelectorKind::Grain => GrainSelector::default().select(g, x, budget, rng),
            SelectorKind::All => Selection {
                nodes: (0..n).collect(),
                weights: vec![1.0; n],
            },
        }
    }

    fn view_config(&self) -> ViewConfig {
        let mut view = self.config.view.clone();
        match self.config.strategy {
            ViewStrategy::Importance => {
                view.edge_aware = true;
                view.feature_aware = true;
            }
            ViewStrategy::Uniform => {
                view.edge_aware = false;
                view.feature_aware = false;
            }
            ViewStrategy::UniformEdges => {
                view.edge_aware = false;
                view.feature_aware = true;
            }
            ViewStrategy::UniformFeatures => {
                view.edge_aware = true;
                view.feature_aware = false;
            }
        }
        view
    }
}

/// One literal Alg. 3 epoch: two fresh ego views per anchor, each encoded
/// independently, Eq. (5) on the centre representations (under either
/// `LossKind`) through the same `MarginContrastive` kernel. Quadratically
/// more encoder work than the batched form — small graphs only; it trains
/// one λ-weighted batch per epoch and serves as the batched form's test
/// oracle.
struct E2gclPerNodeStep<'a> {
    conf: &'a E2gclConfig,
    x: &'a Matrix,
    cfg: &'a TrainConfig,
    selection: Selection,
    /// `SeedRng::weight_total` of the fixed λ weights, summed once.
    weight_total: f64,
    generator: ViewGenerator,
    encoder: FrozenEncoder,
    adj_orig: SparseMatrix,
    loss: MarginContrastive,
    opt: Adam,
    train_rng: SeedRng,
    grads: Vec<Matrix>,
}

impl EpochStep for E2gclPerNodeStep<'_> {
    fn epoch(&mut self, cx: &mut EpochCtx<'_>) -> EpochOutcome {
        let conf = self.conf;
        let cfg = self.cfg;
        let anchors = &self.selection.nodes;
        let weights = &self.selection.weights;
        if anchors.is_empty() {
            return EpochOutcome::Stop;
        }
        let bsz = cfg.batch_size.min(anchors.len());
        let batch: Vec<usize> = (0..bsz)
            .map(|_| {
                anchors[self
                    .train_rng
                    .weighted_index_with_total(weights, self.weight_total)]
            })
            .collect();
        // Encode each anchor's two ego views, one workspace each, kept
        // until that view's backward pass.
        let enc = &self.encoder;
        let mut hb = [
            Matrix::zeros(bsz, cfg.embed_dim),
            Matrix::zeros(bsz, cfg.embed_dim),
        ];
        let mut ctx = Vec::with_capacity(bsz);
        for (i, &v) in batch.iter().enumerate() {
            let rng = &mut self.train_rng;
            let views = [
                (conf.tau_hat, conf.eta_hat),
                (conf.tau_tilde, conf.eta_tilde),
            ]
            .map(|(tau, eta)| {
                let view = self.generator.sample_ego_view(v, tau, eta, rng);
                let adj = enc.adjacency(&view.graph);
                let mut ws = enc.workspace();
                enc.forward_with(&adj, &view.features, &mut ws);
                (view, adj, ws)
            });
            for (side, (view, _, ws)) in views.iter().enumerate() {
                hb[side].set_row(i, ws.output().row(view.center));
            }
            ctx.push(views);
        }
        self.loss.set_negatives(
            (0..bsz)
                .map(|i| sample_negative_indices(bsz, i, conf.negatives, &mut self.train_rng))
                .collect(),
        );
        let batch_loss = self.loss.compute(&hb[0], &hb[1]);
        let d = [self.loss.d_z1(), self.loss.d_z2()];
        // Backprop each ego view with a one-hot centre-row gradient.
        for (i, views) in ctx.into_iter().enumerate() {
            for (side, (view, adj, mut ws)) in views.into_iter().enumerate() {
                let mut d_h = Matrix::zeros(ws.output().rows(), cfg.embed_dim);
                d_h.set_row(view.center, d[side].row(i));
                enc.backward_with(&adj, &view.features, &mut ws, &d_h);
                accumulate(&mut self.grads, i == 0 && side == 0, ws.grads(), 1.0);
            }
        }
        let embeddings_bad = cx.guard.embeddings_bad(&[&hb[0], &hb[1]]);
        EpochOutcome::Step {
            loss: batch_loss,
            embeddings_bad,
        }
    }

    fn grads_mut(&mut self) -> &mut [Matrix] {
        &mut self.grads
    }

    fn apply(&mut self, _epoch: usize, lr: f32, _loss: f32) {
        self.opt.lr = lr;
        self.opt.step(self.encoder.params_mut(), &self.grads);
    }

    fn embed(&mut self) -> Matrix {
        self.encoder.embed(&self.adj_orig, self.x)
    }

    fn frozen_encoder(&self) -> Option<FrozenEncoder> {
        Some(self.encoder.clone())
    }

    fn snapshot(&mut self) -> Option<StepState> {
        let params = self.encoder.params();
        Some(infonce::snapshot(params, None, &self.opt, &self.train_rng))
    }

    fn restore(&mut self, state: &StepState) -> Result<(), TrainError> {
        let params = self.encoder.params_mut();
        infonce::restore(params, None, &mut self.opt, &mut self.train_rng, state)
    }
}

impl ContrastiveModel for E2gclModel {
    fn name(&self) -> String {
        "E2GCL".to_string()
    }

    /// Dispatches on view mode: the literal per-node Alg. 3 oracle, or the
    /// shared contrastive step for everything else (DESIGN.md §13, §15). On
    /// the whole graph under `LossStrategy::Full` that step draws the
    /// paper's λ-weighted batches and trains Eq. (5) (or the
    /// `LossKind::InfoNce` ablation); a sub-quadratic strategy, or a
    /// sampled view, trains InfoNCE over the selected anchors. A degenerate
    /// mini-batch block trains on the whole graph, bitwise identical to
    /// `minibatch: None`.
    fn pretrain(
        &self,
        g: &CsrGraph,
        x: &Matrix,
        cfg: &TrainConfig,
        rng: &mut SeedRng,
    ) -> Result<PretrainResult, TrainError> {
        // Before any dispatch: every path below starts with selection.
        ensure_finite_features(x)?;
        let conf = &self.config;
        let per_node = conf.view_mode == ViewMode::PerNodeEgo;
        if per_node {
            if cfg.minibatch.is_some() {
                return Err(TrainError::InvalidConfig(
                    "per-node ego view mode has no mini-batch form; \
                     use ViewMode::GlobalBatched"
                        .into(),
                ));
            }
            if !cfg.loss.is_full() {
                return Err(TrainError::InvalidConfig(
                    "per-node ego view mode supports only the full contrastive \
                     loss; unset cfg.loss or use ViewMode::GlobalBatched"
                        .into(),
                ));
            }
        }
        let sampled = sampled_minibatch(cfg, g.num_nodes()).is_some();
        let mut driver = EpochDriver::new(cfg);
        // ---- Node selection (Alg. 2) ----
        let selection = self.select_nodes(g, x, &mut rng.fork("selector"));
        driver.selection_done();
        // ---- Global view generator (Alg. 3 precomputation) ----
        let generator = (!sampled)
            .then(|| ViewGenerator::new(g, x, self.view_config(), &mut rng.fork("views")));
        let encoder = conf.encoder.build(x.cols(), cfg, &mut rng.fork("init"));
        let margin = || MarginContrastive::new(conf.margin, conf.normalize);
        if per_node {
            return driver.run(&mut E2gclPerNodeStep {
                conf,
                x,
                cfg,
                weight_total: SeedRng::weight_total(&selection.weights),
                selection,
                generator: generator.expect("per-node mode rejects mini-batches"),
                adj_orig: encoder.adjacency(g),
                encoder,
                loss: margin(),
                opt: Adam::with_weight_decay(cfg.lr, cfg.weight_decay),
                train_rng: rng.fork("train"),
                grads: Vec::new(),
            });
        }
        let weighted = generator.is_some() && cfg.loss.is_full();
        // Whole graph: importance-aware global views. Sampled view: uniform
        // corruption, edges kept at rate τ and features perturbed at rate η.
        let augment = |g: &CsrGraph, x: &Matrix, rng: &mut SeedRng| -> ViewPair {
            match &generator {
                Some(gen) => [
                    gen.sample_global_view(conf.tau_hat, conf.eta_hat, rng),
                    gen.sample_global_view(conf.tau_tilde, conf.eta_tilde, rng),
                ],
                None => [
                    (
                        uniform::drop_edges_uniform(g, 1.0 - conf.tau_hat, rng),
                        uniform::perturb_features_uniform(x, conf.eta_hat, rng),
                    ),
                    (
                        uniform::drop_edges_uniform(g, 1.0 - conf.tau_tilde, rng),
                        uniform::perturb_features_uniform(x, conf.eta_tilde, rng),
                    ),
                ],
            }
        };
        let mut step = InfoNceStep::new(
            g,
            x,
            cfg,
            augment,
            Twin::released(encoder),
            None,
            Some(selection.nodes),
            0.5,
            rng.fork("train"),
        );
        if weighted {
            let eq5 = (conf.loss == LossKind::Margin).then(margin);
            step.weighted(selection.weights, conf.negatives, eq5);
        }
        driver.run(&mut step)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MinibatchConfig;
    use e2gcl_datasets::{spec, NodeDataset};

    fn tiny_cfg() -> TrainConfig {
        TrainConfig {
            epochs: 8,
            batch_size: 64,
            ..Default::default()
        }
    }

    fn tiny_data() -> NodeDataset {
        NodeDataset::generate(&spec("cora-sim").unwrap(), 0.06, 3)
    }

    #[test]
    fn pretrain_produces_finite_embeddings() {
        let d = tiny_data();
        let model = E2gclModel::default();
        let out = model
            .pretrain(&d.graph, &d.features, &tiny_cfg(), &mut SeedRng::new(0))
            .unwrap();
        assert_eq!(out.embeddings.rows(), d.num_nodes());
        assert_eq!(out.embeddings.cols(), 64);
        assert!(!out.embeddings.has_non_finite());
        assert_eq!(out.loss_curve.len(), 8);
        // The driver timed the selector call: nonzero, and inside the run.
        assert!(out.selection_time > std::time::Duration::ZERO);
        assert!(out.total_time >= out.selection_time);
    }

    #[test]
    fn non_finite_feature_is_a_typed_error_on_every_entry_point() {
        let mut d = NodeDataset::generate(&spec("products-sim").unwrap(), 0.02, 4);
        d.features.set(7, 3, f32::INFINITY);
        let want = TrainError::NonFiniteFeatures { row: 7, col: 3 };
        let full = tiny_cfg();
        let minibatch = TrainConfig {
            minibatch: Some(MinibatchConfig {
                batch_nodes: 32,
                fanout: Some(3),
            }),
            ..tiny_cfg()
        };
        let per_node = E2gclModel::new(E2gclConfig {
            view_mode: ViewMode::PerNodeEgo,
            ..Default::default()
        });
        for (model, cfg) in [
            (E2gclModel::default(), &full),
            (E2gclModel::default(), &minibatch),
            (per_node, &full),
        ] {
            let err = model
                .pretrain(&d.graph, &d.features, cfg, &mut SeedRng::new(0))
                .expect_err("non-finite features must be rejected");
            assert_eq!(err, want);
        }
    }

    #[test]
    fn loss_decreases_over_training() {
        let d = tiny_data();
        let model = E2gclModel::default();
        let cfg = TrainConfig {
            epochs: 15,
            batch_size: 64,
            ..Default::default()
        };
        let out = model
            .pretrain(&d.graph, &d.features, &cfg, &mut SeedRng::new(1))
            .unwrap();
        let first = out.loss_curve[..3].iter().sum::<f32>() / 3.0;
        let last = out.loss_curve[12..].iter().sum::<f32>() / 3.0;
        assert!(last < first, "loss should fall: {first} -> {last}");
    }

    #[test]
    fn checkpoints_recorded_when_requested() {
        let d = tiny_data();
        let model = E2gclModel::default();
        let cfg = TrainConfig {
            epochs: 6,
            checkpoint_every: Some(2),
            ..tiny_cfg()
        };
        let out = model
            .pretrain(&d.graph, &d.features, &cfg, &mut SeedRng::new(2))
            .unwrap();
        assert_eq!(out.checkpoints.len(), 3);
        // Times strictly increasing.
        for w in out.checkpoints.windows(2) {
            assert!(w[1].0 >= w[0].0);
        }
    }

    #[test]
    fn all_selector_kinds_run() {
        let d = tiny_data();
        let kinds = [
            SelectorKind::Greedy(GreedyConfig {
                num_clusters: 8,
                sample_size: 50,
                ..Default::default()
            }),
            SelectorKind::Random,
            SelectorKind::Degree,
            SelectorKind::KMeans,
            SelectorKind::Kcg,
            SelectorKind::Grain,
            SelectorKind::All,
        ];
        for kind in kinds {
            let model = E2gclModel::new(E2gclConfig {
                selector: kind.clone(),
                ..Default::default()
            });
            let sel = model.select_nodes(&d.graph, &d.features, &mut SeedRng::new(3));
            let expected = match kind {
                SelectorKind::All => d.num_nodes(),
                _ => ((d.num_nodes() as f64) * 0.4).round() as usize,
            };
            assert_eq!(sel.nodes.len(), expected, "{kind:?}");
        }
    }

    #[test]
    fn every_view_strategy_trains() {
        let d = tiny_data();
        for strategy in [
            ViewStrategy::Importance,
            ViewStrategy::Uniform,
            ViewStrategy::UniformEdges,
            ViewStrategy::UniformFeatures,
        ] {
            let model = E2gclModel::new(E2gclConfig {
                strategy,
                ..Default::default()
            });
            let cfg = TrainConfig {
                epochs: 3,
                ..tiny_cfg()
            };
            let out = model
                .pretrain(&d.graph, &d.features, &cfg, &mut SeedRng::new(4))
                .unwrap();
            assert!(!out.embeddings.has_non_finite(), "{strategy:?}");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let d = tiny_data();
        let model = E2gclModel::default();
        let cfg = TrainConfig {
            epochs: 3,
            ..tiny_cfg()
        };
        let a = model
            .pretrain(&d.graph, &d.features, &cfg, &mut SeedRng::new(5))
            .unwrap();
        let b = model
            .pretrain(&d.graph, &d.features, &cfg, &mut SeedRng::new(5))
            .unwrap();
        assert_eq!(a.embeddings, b.embeddings);
    }

    /// The literal per-node Alg. 3 path trains and lands in the same
    /// quality regime as the batched form (the two are distributionally
    /// equivalent for the anchors).
    #[test]
    fn per_node_ego_mode_matches_batched_quality() {
        let d = tiny_data();
        let cfg = TrainConfig {
            epochs: 6,
            batch_size: 32,
            ..Default::default()
        };
        let batched = E2gclModel::default()
            .pretrain(&d.graph, &d.features, &cfg, &mut SeedRng::new(9))
            .unwrap();
        let per_node = E2gclModel::new(E2gclConfig {
            view_mode: ViewMode::PerNodeEgo,
            ..Default::default()
        })
        .pretrain(&d.graph, &d.features, &cfg, &mut SeedRng::new(9))
        .unwrap();
        assert!(!per_node.embeddings.has_non_finite());
        let acc =
            |h: &Matrix| crate::eval::node_classification(h, &d.labels, d.num_classes, 3, 0).0;
        let (ab, ap) = (acc(&batched.embeddings), acc(&per_node.embeddings));
        assert!(
            (ab - ap).abs() < 0.25,
            "modes diverged: batched {ab} vs per-node {ap}"
        );
    }

    fn minibatch_cfg(batch_nodes: usize, fanout: Option<usize>) -> TrainConfig {
        TrainConfig {
            minibatch: Some(crate::config::MinibatchConfig {
                batch_nodes,
                fanout,
            }),
            ..tiny_cfg()
        }
    }

    #[test]
    fn minibatch_trains_and_loss_falls() {
        let d = tiny_data();
        let cfg = TrainConfig {
            epochs: 10,
            ..minibatch_cfg(48, Some(5))
        };
        let out = E2gclModel::default()
            .pretrain(&d.graph, &d.features, &cfg, &mut SeedRng::new(0))
            .unwrap();
        assert_eq!(out.embeddings.rows(), d.num_nodes());
        assert!(!out.embeddings.has_non_finite());
        assert_eq!(out.loss_curve.len(), 10);
        assert!(
            out.loss_curve.last().unwrap() < out.loss_curve.first().unwrap(),
            "{:?}",
            out.loss_curve
        );
    }

    #[test]
    fn minibatch_is_deterministic_and_supports_every_encoder() {
        let d = tiny_data();
        for encoder in [EncoderKind::Gcn, EncoderKind::Sgc, EncoderKind::Sage] {
            let model = E2gclModel::new(E2gclConfig {
                encoder,
                selector: SelectorKind::Degree,
                ..Default::default()
            });
            let cfg = TrainConfig {
                epochs: 3,
                ..minibatch_cfg(32, Some(4))
            };
            let run = |seed| {
                model
                    .pretrain(&d.graph, &d.features, &cfg, &mut SeedRng::new(seed))
                    .unwrap()
            };
            let (a, b) = (run(5), run(5));
            assert_eq!(a.embeddings, b.embeddings, "{encoder:?}");
            assert_eq!(a.loss_curve, b.loss_curve, "{encoder:?}");
            assert!(!a.embeddings.has_non_finite(), "{encoder:?}");
        }
    }

    #[test]
    fn per_node_ego_rejects_minibatch() {
        let d = tiny_data();
        let model = E2gclModel::new(E2gclConfig {
            view_mode: ViewMode::PerNodeEgo,
            ..Default::default()
        });
        let err = model
            .pretrain(
                &d.graph,
                &d.features,
                &minibatch_cfg(32, Some(4)),
                &mut SeedRng::new(0),
            )
            .unwrap_err();
        assert!(matches!(err, TrainError::InvalidConfig(_)), "{err}");
    }

    #[test]
    fn sub_quadratic_strategies_train_batched_and_minibatch() {
        use crate::config::LossStrategy;
        let d = tiny_data();
        for loss in [
            LossStrategy::SmallNeg { negatives: 32 },
            LossStrategy::Localized { hops: 2 },
        ] {
            for mb in [
                None,
                Some(crate::config::MinibatchConfig {
                    batch_nodes: 48,
                    fanout: Some(5),
                }),
            ] {
                let cfg = TrainConfig {
                    epochs: 4,
                    loss: loss.clone(),
                    minibatch: mb,
                    ..tiny_cfg()
                };
                let run = |seed: u64| {
                    E2gclModel::default()
                        .pretrain(&d.graph, &d.features, &cfg, &mut SeedRng::new(seed))
                        .unwrap()
                };
                let (a, b) = (run(5), run(5));
                assert!(!a.embeddings.has_non_finite(), "{}", loss.name());
                assert_eq!(a.embeddings, b.embeddings, "{}", loss.name());
                assert_eq!(a.loss_curve, b.loss_curve, "{}", loss.name());
            }
        }
    }

    /// `SelectorKind::All` makes the selected anchors the identity set, so
    /// the small-negative-set epoch takes the copy-free full-view path.
    #[test]
    fn smallneg_with_all_selector_trains_and_loss_falls() {
        use crate::config::LossStrategy;
        let d = tiny_data();
        let model = E2gclModel::new(E2gclConfig {
            selector: SelectorKind::All,
            ..Default::default()
        });
        let cfg = TrainConfig {
            epochs: 10,
            loss: LossStrategy::SmallNeg { negatives: 64 },
            ..tiny_cfg()
        };
        let out = model
            .pretrain(&d.graph, &d.features, &cfg, &mut SeedRng::new(12))
            .unwrap();
        assert!(!out.embeddings.has_non_finite());
        assert!(
            out.loss_curve.last().unwrap() < out.loss_curve.first().unwrap(),
            "{:?}",
            out.loss_curve
        );
    }

    #[test]
    fn per_node_ego_rejects_sub_quadratic_loss() {
        let d = tiny_data();
        let model = E2gclModel::new(E2gclConfig {
            view_mode: ViewMode::PerNodeEgo,
            ..Default::default()
        });
        let cfg = TrainConfig {
            loss: crate::config::LossStrategy::Localized { hops: 1 },
            ..tiny_cfg()
        };
        let err = model
            .pretrain(&d.graph, &d.features, &cfg, &mut SeedRng::new(0))
            .unwrap_err();
        assert!(matches!(err, TrainError::InvalidConfig(_)), "{err}");
    }

    #[test]
    fn info_nce_loss_kind_trains() {
        let d = tiny_data();
        let model = E2gclModel::new(E2gclConfig {
            loss: LossKind::InfoNce,
            ..Default::default()
        });
        let out = model
            .pretrain(&d.graph, &d.features, &tiny_cfg(), &mut SeedRng::new(6))
            .unwrap();
        assert!(!out.embeddings.has_non_finite());
        assert!(
            out.loss_curve.last().unwrap() <= out.loss_curve.first().unwrap(),
            "{:?}",
            out.loss_curve
        );
    }

    /// A one-anchor selection trains under both objectives: Eq. (5) on
    /// its one-row batches, while the InfoNCE ablation skips them.
    #[test]
    fn one_anchor_selection_trains_under_every_loss_kind() {
        let d = NodeDataset::generate(&spec("cora-sim").unwrap(), 0.05, 0);
        for loss in [LossKind::Margin, LossKind::InfoNce] {
            let model = E2gclModel::new(E2gclConfig {
                loss,
                node_ratio: 0.0,
                ..Default::default()
            });
            let out = model
                .pretrain(&d.graph, &d.features, &tiny_cfg(), &mut SeedRng::new(0))
                .unwrap_or_else(|e| panic!("{loss:?}: {e}"));
            assert!(!out.embeddings.has_non_finite(), "{loss:?}");
        }
    }

    #[test]
    fn sage_encoder_trains() {
        let d = tiny_data();
        let model = E2gclModel::new(E2gclConfig {
            encoder: EncoderKind::Sage,
            ..Default::default()
        });
        let out = model
            .pretrain(&d.graph, &d.features, &tiny_cfg(), &mut SeedRng::new(11))
            .unwrap();
        assert!(!out.embeddings.has_non_finite());
        assert!(
            out.loss_curve.last().unwrap() < out.loss_curve.first().unwrap(),
            "{:?}",
            out.loss_curve
        );
    }

    #[test]
    fn sgc_encoder_trains() {
        let d = tiny_data();
        let model = E2gclModel::new(E2gclConfig {
            encoder: EncoderKind::Sgc,
            ..Default::default()
        });
        let out = model
            .pretrain(&d.graph, &d.features, &tiny_cfg(), &mut SeedRng::new(8))
            .unwrap();
        assert!(!out.embeddings.has_non_finite());
        assert_eq!(out.embeddings.cols(), 64);
        assert!(
            out.loss_curve.last().unwrap() < out.loss_curve.first().unwrap(),
            "{:?}",
            out.loss_curve
        );
    }

    #[test]
    fn unnormalized_margin_loss_still_trains() {
        let d = tiny_data();
        let model = E2gclModel::new(E2gclConfig {
            normalize: false,
            margin: 3.0,
            ..Default::default()
        });
        let out = model
            .pretrain(&d.graph, &d.features, &tiny_cfg(), &mut SeedRng::new(7))
            .unwrap();
        assert!(!out.embeddings.has_non_finite());
    }
}
