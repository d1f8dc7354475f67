//! The E²GCL model: coreset selection + importance-aware views + Eq. (5)
//! contrastive training (the full Alg. 1 / Alg. 2 / Alg. 3 stack).

use crate::checkpoint::{restore_params, StepState};
use crate::config::{MinibatchConfig, TrainConfig};
use crate::engine::{EpochCtx, EpochDriver, EpochOutcome, EpochStep};
use crate::models::{
    ensure_finite_features, sample_negative_indices, select_negatives, ContrastiveModel,
    InfoNceStrategy, PretrainResult,
};
use e2gcl_graph::SparseMatrix;
use e2gcl_graph::{norm, CsrGraph, NeighborSampler};
use e2gcl_linalg::{Matrix, SeedRng, TrainError};
use e2gcl_nn::loss::InfoNceScratch;
use e2gcl_nn::sage::{SageCache, SageEncoder};
use e2gcl_nn::sgc::{SgcCache, SgcEncoder};
use e2gcl_nn::{
    gcn::GcnCache, loss, optim::Optimizer, Adam, ContrastiveLoss, FrozenEncoder, GcnEncoder,
    Neighborhoods,
};
use e2gcl_selector::baselines::{
    DegreeSelector, GrainSelector, KCenterGreedy, KMeansSelector, RandomSelector,
};
use e2gcl_selector::greedy::{GreedyConfig, GreedySelector};
use e2gcl_selector::{NodeSelector, Selection};
use e2gcl_views::uniform;
use e2gcl_views::{ViewConfig, ViewGenerator};
use std::time::Instant;

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

/// Uniform facade over the supported encoders.
enum Encoder {
    Gcn(GcnEncoder),
    Sgc(SgcEncoder),
    Sage(SageEncoder),
}

enum EncoderCache {
    Gcn(GcnCache),
    Sgc(SgcCache),
    Sage(SageCache),
}

impl Encoder {
    fn new(kind: EncoderKind, d_x: usize, cfg: &TrainConfig, rng: &mut SeedRng) -> Encoder {
        match kind {
            EncoderKind::Gcn => Encoder::Gcn(GcnEncoder::new(&cfg.encoder_dims(d_x), rng)),
            EncoderKind::Sgc => Encoder::Sgc(SgcEncoder::new(d_x, cfg.embed_dim, 2, rng)),
            EncoderKind::Sage => Encoder::Sage(SageEncoder::new(&cfg.encoder_dims(d_x), rng)),
        }
    }

    /// The adjacency operator this encoder family aggregates with:
    /// symmetric GCN normalisation for GCN/SGC, row-stochastic mean for
    /// SAGE.
    fn adjacency(&self, g: &CsrGraph) -> SparseMatrix {
        match self {
            Encoder::Gcn(_) | Encoder::Sgc(_) => norm::normalized_adjacency(g),
            Encoder::Sage(_) => norm::row_normalized_adjacency(g),
        }
    }

    fn forward(&self, adj: &SparseMatrix, x: &Matrix) -> (Matrix, EncoderCache) {
        match self {
            Encoder::Gcn(e) => {
                let (h, c) = e.forward(adj, x);
                (h, EncoderCache::Gcn(c))
            }
            Encoder::Sgc(e) => {
                let (h, c) = e.forward(adj, x);
                (h, EncoderCache::Sgc(c))
            }
            Encoder::Sage(e) => {
                let (h, c) = e.forward(adj, x);
                (h, EncoderCache::Sage(c))
            }
        }
    }

    fn embed(&self, adj: &SparseMatrix, x: &Matrix) -> Matrix {
        match self {
            Encoder::Gcn(e) => e.embed(adj, x),
            Encoder::Sgc(e) => e.embed(adj, x),
            Encoder::Sage(e) => e.embed(adj, x),
        }
    }

    /// Hands the trained weights to the serving layer.
    fn into_frozen(self) -> FrozenEncoder {
        match self {
            Encoder::Gcn(e) => FrozenEncoder::Gcn(e),
            Encoder::Sgc(e) => FrozenEncoder::Sgc(e),
            Encoder::Sage(e) => FrozenEncoder::Sage(e),
        }
    }

    fn backward(&self, adj: &SparseMatrix, cache: &EncoderCache, d: &Matrix) -> Vec<Matrix> {
        match (self, cache) {
            (Encoder::Gcn(e), EncoderCache::Gcn(c)) => e.backward(adj, c, d),
            (Encoder::Sgc(e), EncoderCache::Sgc(c)) => e.backward(c, d),
            (Encoder::Sage(e), EncoderCache::Sage(c)) => e.backward(adj, c, d),
            _ => unreachable!("encoder/cache kind mismatch"),
        }
    }

    fn params(&self) -> &[Matrix] {
        match self {
            Encoder::Gcn(e) => e.params(),
            Encoder::Sgc(e) => e.params(),
            Encoder::Sage(e) => e.params(),
        }
    }

    fn params_mut(&mut self) -> &mut [Matrix] {
        match self {
            Encoder::Gcn(e) => e.params_mut(),
            Encoder::Sgc(e) => e.params_mut(),
            Encoder::Sage(e) => e.params_mut(),
        }
    }
}

/// Snapshot/restore shared by both E²GCL step variants: the mutable
/// cross-epoch state is exactly the encoder weights, the Adam moments and
/// the training RNG — selection, view generator and adjacency are rebuilt
/// deterministically from the run's master seed before `restore` is called.
fn e2gcl_snapshot(encoder: &Encoder, opt: &Adam, rng: &SeedRng) -> StepState {
    StepState::pack_trainer(encoder.params(), &[], opt, rng)
}

fn e2gcl_restore(
    encoder: &mut Encoder,
    opt: &mut Adam,
    rng: &mut SeedRng,
    state: &StepState,
) -> Result<(), TrainError> {
    let s = state.unpack_trainer(encoder.params().len(), 0)?;
    restore_params(encoder.params_mut(), &s.params)?;
    opt.restore_state(s.adam_t, s.adam_m, s.adam_v);
    *rng = s.rng;
    Ok(())
}

/// Which contrastive objective E²GCL trains with (DESIGN.md §6 ablation:
/// the paper's Eq. (5) margin loss vs GRACE-style InfoNCE on the same
/// selected anchors and views).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LossKind {
    /// The paper's Eq. (5) Euclidean margin loss.
    Margin,
    /// Symmetric InfoNCE (NT-Xent) at temperature 0.5.
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

impl E2gclModel {
    /// The literal Alg. 3 training loop: every anchor gets two freshly
    /// sampled ego views per epoch, each encoded independently, and the
    /// Eq. (5) loss compares the *centre* representations. Quadratically
    /// more encoder work than the batched form — small graphs only.
    fn pretrain_per_node(
        &self,
        g: &CsrGraph,
        x: &Matrix,
        cfg: &TrainConfig,
        rng: &mut SeedRng,
    ) -> Result<PretrainResult, TrainError> {
        let start = Instant::now();
        let selection = self.select_nodes(g, x, &mut rng.fork("selector"));
        let selection_time = start.elapsed();
        let generator = ViewGenerator::new(g, x, self.view_config(), &mut rng.fork("views"));
        let encoder = Encoder::new(self.config.encoder, x.cols(), cfg, &mut rng.fork("init"));
        let adj_orig = encoder.adjacency(g);
        let opt = Adam::with_weight_decay(cfg.lr, cfg.weight_decay);
        let train_rng = rng.fork("train");
        let mut step = E2gclPerNodeStep {
            model: self,
            x,
            cfg,
            selection,
            generator,
            encoder,
            adj_orig,
            opt,
            train_rng,
            grads: Vec::new(),
        };
        let run = EpochDriver::new(cfg).run(&mut step, start)?;
        Ok(PretrainResult {
            embeddings: run.embeddings,
            encoder: Some(step.encoder.into_frozen()),
            selection_time,
            total_time: start.elapsed(),
            checkpoints: run.checkpoints,
            loss_curve: run.loss_curve,
        })
    }
}

impl E2gclModel {
    /// Mini-batch E²GCL (DESIGN.md §13). Selection (Alg. 2) still runs on
    /// the full graph — it is a one-off preprocessing pass — but each epoch
    /// shuffles the selected anchors into seed batches, samples a
    /// fanout-bounded [`e2gcl_graph::GraphView`] per batch, corrupts the
    /// subgraph uniformly with the view parameters (edges kept at rate `τ`,
    /// features perturbed at rate `η`) and trains batch-local InfoNCE over
    /// the anchor rows.
    ///
    /// Two documented deviations from the full-graph step:
    /// * every selected anchor is visited once per epoch (uniform coverage)
    ///   instead of λ-weighted resampling — the importance weights steer a
    ///   *global* batch sampler the partitioned walk replaces;
    /// * the objective is always InfoNCE regardless of `config.loss`:
    ///   Eq. (5)'s negative sampling assumes a global anchor pool, while
    ///   NT-Xent uses the rest of the batch as negatives, which is exactly
    ///   what a sampled subgraph provides.
    fn pretrain_minibatch(
        &self,
        g: &CsrGraph,
        x: &Matrix,
        cfg: &TrainConfig,
        mb: &MinibatchConfig,
        rng: &mut SeedRng,
    ) -> Result<PretrainResult, TrainError> {
        let start = Instant::now();
        let selection = self.select_nodes(g, x, &mut rng.fork("selector"));
        let selection_time = start.elapsed();
        let encoder = Encoder::new(self.config.encoder, x.cols(), cfg, &mut rng.fork("init"));
        let adj_orig = encoder.adjacency(g);
        let opt = Adam::with_weight_decay(cfg.lr, cfg.weight_decay);
        let train_rng = rng.fork("train");
        // Sample exactly the encoder's receptive field: deeper nodes cannot
        // influence the anchor rows the loss reads.
        let hops = cfg.encoder_dims(x.cols()).len() - 1;
        let mut step = E2gclMinibatchStep {
            model: self,
            g,
            x,
            selection,
            batch_nodes: mb.batch_nodes,
            sampler: NeighborSampler::new(hops, mb.fanout),
            encoder,
            adj_orig,
            opt,
            train_rng,
            grads: Vec::new(),
            nce: InfoNceScratch::default(),
            loss_state: InfoNceStrategy::from_config(&cfg.loss, 0.5),
        };
        let run = EpochDriver::new(cfg).run(&mut step, start)?;
        Ok(PretrainResult {
            embeddings: run.embeddings,
            encoder: Some(step.encoder.into_frozen()),
            selection_time,
            total_time: start.elapsed(),
            checkpoints: run.checkpoints,
            loss_curve: run.loss_curve,
        })
    }
}

/// One mini-batch E²GCL epoch: per anchor batch, sample a subgraph view,
/// corrupt it twice, encode both corrupted views, InfoNCE over the anchor
/// rows, and accumulate encoder gradients at `1/num_batches` so the applied
/// update is the mean over batches.
struct E2gclMinibatchStep<'a> {
    model: &'a E2gclModel,
    g: &'a CsrGraph,
    x: &'a Matrix,
    selection: Selection,
    batch_nodes: usize,
    sampler: NeighborSampler,
    encoder: Encoder,
    adj_orig: SparseMatrix,
    opt: Adam,
    train_rng: SeedRng,
    grads: Vec<Matrix>,
    nce: InfoNceScratch,
    loss_state: InfoNceStrategy,
}

impl EpochStep for E2gclMinibatchStep<'_> {
    fn epoch(&mut self, cx: &mut EpochCtx<'_>) -> EpochOutcome {
        let conf = &self.model.config;
        let anchors = &self.selection.nodes;
        if anchors.is_empty() {
            return EpochOutcome::Stop;
        }
        let mut order: Vec<usize> = anchors.clone();
        self.train_rng.shuffle(&mut order);
        let num_batches = order.len().div_ceil(self.batch_nodes).max(1) as f32;
        let mut acc: Option<Vec<Matrix>> = None;
        let mut epoch_loss = 0.0f32;
        let mut embeddings_bad = false;
        let mut stepped = 0usize;
        for seeds in order.chunks(self.batch_nodes) {
            if seeds.len() < 2 {
                continue;
            }
            let view = self.sampler.sample(self.g, seeds, &mut self.train_rng);
            let xv = view.features(self.x);
            // Subgraph-local uniform corruption: keep edges at rate τ and
            // perturb feature entries at rate η (the uniform ablation of
            // Alg. 3 applied to the sampled view).
            let g1 =
                uniform::drop_edges_uniform(&view.graph, 1.0 - conf.tau_hat, &mut self.train_rng);
            let mut x1 = uniform::perturb_features_uniform(&xv, conf.eta_hat, &mut self.train_rng);
            let g2 =
                uniform::drop_edges_uniform(&view.graph, 1.0 - conf.tau_tilde, &mut self.train_rng);
            let x2 = uniform::perturb_features_uniform(&xv, conf.eta_tilde, &mut self.train_rng);
            cx.fault.corrupt_features(cx.epoch, &mut x1);
            let a1 = self.encoder.adjacency(&g1);
            let a2 = self.encoder.adjacency(&g2);
            let (h1, c1) = self.encoder.forward(&a1, &x1);
            let (h2, c2) = self.encoder.forward(&a2, &x2);
            let locals: Vec<usize> = seeds
                .iter()
                .map(|&v| view.local(v).expect("anchor is in its sampled view"))
                .collect();
            let scale = 1.0 / num_batches;
            match &mut self.loss_state {
                InfoNceStrategy::Full => {
                    let hb1 = h1.select_rows(&locals);
                    let hb2 = h2.select_rows(&locals);
                    let batch_loss = loss::info_nce_with(&hb1, &hb2, 0.5, &mut self.nce);
                    epoch_loss += batch_loss / num_batches;
                    let mut d_h1 = Matrix::zeros(h1.rows(), h1.cols());
                    let mut d_h2 = Matrix::zeros(h2.rows(), h2.cols());
                    for (i, &l) in locals.iter().enumerate() {
                        d_h1.set_row(l, self.nce.d_z1().row(i));
                        d_h2.set_row(l, self.nce.d_z2().row(i));
                    }
                    GcnEncoder::accumulate(&mut acc, self.encoder.backward(&a1, &c1, &d_h1), scale);
                    GcnEncoder::accumulate(&mut acc, self.encoder.backward(&a2, &c2, &d_h2), scale);
                    embeddings_bad = embeddings_bad || cx.guard.embeddings_bad(&[&hb1, &hb2]);
                }
                InfoNceStrategy::SmallNeg { k, strat } => {
                    // Negatives come from the anchor rows of this batch's
                    // sampled view, re-selected per batch on current
                    // embeddings.
                    let hb1 = h1.select_rows(&locals);
                    let hb2 = h2.select_rows(&locals);
                    let mut sel_rng = self.train_rng.fork("negatives");
                    strat.set_negatives(&select_negatives(&hb1, *k, &mut sel_rng));
                    let batch_loss = strat.compute(&hb1, &hb2);
                    epoch_loss += batch_loss / num_batches;
                    let mut d_h1 = Matrix::zeros(h1.rows(), h1.cols());
                    let mut d_h2 = Matrix::zeros(h2.rows(), h2.cols());
                    for (i, &l) in locals.iter().enumerate() {
                        d_h1.set_row(l, strat.d_z1().row(i));
                        d_h2.set_row(l, strat.d_z2().row(i));
                    }
                    GcnEncoder::accumulate(&mut acc, self.encoder.backward(&a1, &c1, &d_h1), scale);
                    GcnEncoder::accumulate(&mut acc, self.encoder.backward(&a2, &c2, &d_h2), scale);
                    embeddings_bad = embeddings_bad || cx.guard.embeddings_bad(&[&hb1, &hb2]);
                }
                InfoNceStrategy::Localized { hops, strat } => {
                    // Topology is the *uncorrupted* sampled view; anchors
                    // are the seed rows, negatives their L-hop neighbours
                    // inside the view. No row selection: gradients land on
                    // anchor and neighbour rows directly.
                    strat.set_topology(Neighborhoods::from_graph(&view.graph, *hops));
                    let mut anchor_ids = locals.clone();
                    anchor_ids.sort_unstable();
                    strat.set_anchors(Some(anchor_ids));
                    let batch_loss = strat.compute(&h1, &h2);
                    epoch_loss += batch_loss / num_batches;
                    GcnEncoder::accumulate(
                        &mut acc,
                        self.encoder.backward(&a1, &c1, strat.d_z1()),
                        scale,
                    );
                    GcnEncoder::accumulate(
                        &mut acc,
                        self.encoder.backward(&a2, &c2, strat.d_z2()),
                        scale,
                    );
                    embeddings_bad = embeddings_bad || cx.guard.embeddings_bad(&[&h1, &h2]);
                }
            }
            stepped += 1;
        }
        if stepped == 0 {
            return EpochOutcome::SkipSilently;
        }
        self.grads = acc.unwrap_or_default();
        EpochOutcome::Step {
            loss: epoch_loss,
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

    fn snapshot(&mut self) -> Option<StepState> {
        Some(e2gcl_snapshot(&self.encoder, &self.opt, &self.train_rng))
    }

    fn restore(&mut self, state: &StepState) -> Result<(), TrainError> {
        e2gcl_restore(&mut self.encoder, &mut self.opt, &mut self.train_rng, state)
    }
}

/// One literal Alg. 3 epoch: two fresh ego views per anchor, each encoded
/// independently, Eq. (5) on the centre representations.
struct E2gclPerNodeStep<'a> {
    model: &'a E2gclModel,
    x: &'a Matrix,
    cfg: &'a TrainConfig,
    selection: Selection,
    generator: ViewGenerator,
    encoder: Encoder,
    adj_orig: SparseMatrix,
    opt: Adam,
    train_rng: SeedRng,
    grads: Vec<Matrix>,
}

impl EpochStep for E2gclPerNodeStep<'_> {
    fn epoch(&mut self, cx: &mut EpochCtx<'_>) -> EpochOutcome {
        let conf = &self.model.config;
        let cfg = self.cfg;
        let anchors = &self.selection.nodes;
        let weights = &self.selection.weights;
        if anchors.is_empty() {
            return EpochOutcome::Stop;
        }
        let bsz = cfg.batch_size.min(anchors.len());
        let batch: Vec<usize> = (0..bsz)
            .map(|_| anchors[self.train_rng.weighted_index(weights)])
            .collect();
        // Encode each anchor's two ego views; remember everything the
        // backward pass needs.
        let mut hb1 = Matrix::zeros(bsz, cfg.embed_dim);
        let mut hb2 = Matrix::zeros(bsz, cfg.embed_dim);
        let mut ctx = Vec::with_capacity(bsz);
        for (i, &v) in batch.iter().enumerate() {
            let va =
                self.generator
                    .sample_ego_view(v, conf.tau_hat, conf.eta_hat, &mut self.train_rng);
            let vb = self.generator.sample_ego_view(
                v,
                conf.tau_tilde,
                conf.eta_tilde,
                &mut self.train_rng,
            );
            let aa = self.encoder.adjacency(&va.graph);
            let ab = self.encoder.adjacency(&vb.graph);
            let (ha, ca) = self.encoder.forward(&aa, &va.features);
            let (hb, cb) = self.encoder.forward(&ab, &vb.features);
            hb1.set_row(i, ha.row(va.center));
            hb2.set_row(i, hb.row(vb.center));
            ctx.push((va, aa, ca, ha.rows(), vb, ab, cb, hb.rows()));
        }
        let negatives: Vec<Vec<usize>> = (0..bsz)
            .map(|i| sample_negative_indices(bsz, i, conf.negatives, &mut self.train_rng))
            .collect();
        let (d1, d2, batch_loss) = if conf.normalize {
            let (u1, n1) = loss::normalize_rows(&hb1);
            let (u2, n2) = loss::normalize_rows(&hb2);
            let out = loss::margin_contrastive(&u1, &u2, &u2, &negatives, conf.margin);
            let mut du2 = out.d_tilde;
            du2.add_assign(&out.d_neg);
            (
                loss::normalize_backward(&u1, &n1, &out.d_hat),
                loss::normalize_backward(&u2, &n2, &du2),
                out.loss,
            )
        } else {
            let out = loss::margin_contrastive(&hb1, &hb2, &hb2, &negatives, conf.margin);
            let mut du2 = out.d_tilde;
            du2.add_assign(&out.d_neg);
            (out.d_hat, du2, out.loss)
        };
        // Backprop each ego view with a one-hot centre-row gradient.
        let mut acc: Option<Vec<Matrix>> = None;
        for (i, (va, aa, ca, na, vb, ab, cb, nb)) in ctx.iter().enumerate() {
            let mut da = Matrix::zeros(*na, cfg.embed_dim);
            da.set_row(va.center, d1.row(i));
            GcnEncoder::accumulate(&mut acc, self.encoder.backward(aa, ca, &da), 1.0);
            let mut db = Matrix::zeros(*nb, cfg.embed_dim);
            db.set_row(vb.center, d2.row(i));
            GcnEncoder::accumulate(&mut acc, self.encoder.backward(ab, cb, &db), 1.0);
        }
        self.grads = acc.unwrap_or_default();
        let embeddings_bad = cx.guard.embeddings_bad(&[&hb1, &hb2]);
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

    fn snapshot(&mut self) -> Option<StepState> {
        Some(e2gcl_snapshot(&self.encoder, &self.opt, &self.train_rng))
    }

    fn restore(&mut self, state: &StepState) -> Result<(), TrainError> {
        e2gcl_restore(&mut self.encoder, &mut self.opt, &mut self.train_rng, state)
    }
}

impl ContrastiveModel for E2gclModel {
    fn name(&self) -> String {
        "E2GCL".to_string()
    }

    fn pretrain(
        &self,
        g: &CsrGraph,
        x: &Matrix,
        cfg: &TrainConfig,
        rng: &mut SeedRng,
    ) -> Result<PretrainResult, TrainError> {
        // Before any dispatch: every path below starts with selection.
        ensure_finite_features(x)?;
        if let Some(mb) = &cfg.minibatch {
            if self.config.view_mode == ViewMode::PerNodeEgo {
                return Err(TrainError::InvalidConfig(
                    "per-node ego view mode has no mini-batch form; \
                     use ViewMode::GlobalBatched"
                        .into(),
                ));
            }
            if !mb.is_full_batch(g.num_nodes()) {
                return self.pretrain_minibatch(g, x, cfg, mb, rng);
            }
            // Degenerate mini-batch (whole graph in one batch, unlimited
            // fanout): fall through to the full-graph step *before* drawing
            // any extra randomness, so the run is bitwise identical to
            // `minibatch: None` (tests/minibatch_equivalence.rs).
        }
        if self.config.view_mode == ViewMode::PerNodeEgo {
            if !cfg.loss.is_full() {
                return Err(TrainError::InvalidConfig(
                    "per-node ego view mode supports only the full contrastive \
                     loss; unset cfg.loss or use ViewMode::GlobalBatched"
                        .into(),
                ));
            }
            return self.pretrain_per_node(g, x, cfg, rng);
        }
        let start = Instant::now();
        // ---- Node selection (Alg. 2) ----
        let selection = self.select_nodes(g, x, &mut rng.fork("selector"));
        let selection_time = start.elapsed();
        // ---- View generator setup (Alg. 3 precomputation) ----
        let generator = ViewGenerator::new(g, x, self.view_config(), &mut rng.fork("views"));
        // ---- Encoder + optimiser ----
        let encoder = Encoder::new(self.config.encoder, x.cols(), cfg, &mut rng.fork("init"));
        let adj_orig = encoder.adjacency(g);
        let opt = Adam::with_weight_decay(cfg.lr, cfg.weight_decay);
        let train_rng = rng.fork("train");
        let mut loss_state = InfoNceStrategy::from_config(&cfg.loss, 0.5);
        if let InfoNceStrategy::Localized { hops, strat } = &mut loss_state {
            // Fixed per run: the topology of the *original* graph and the
            // selected anchors (global-view corruption keeps node ids).
            strat.set_topology(Neighborhoods::from_graph(g, *hops));
            let mut anchor_ids = selection.nodes.clone();
            anchor_ids.sort_unstable();
            strat.set_anchors(Some(anchor_ids));
        }
        let mut step = E2gclBatchedStep {
            model: self,
            x,
            cfg,
            selection,
            generator,
            encoder,
            adj_orig,
            opt,
            train_rng,
            grads: Vec::new(),
            loss_state,
        };
        let run = EpochDriver::new(cfg).run(&mut step, start)?;
        Ok(PretrainResult {
            embeddings: run.embeddings,
            encoder: Some(step.encoder.into_frozen()),
            selection_time,
            total_time: start.elapsed(),
            checkpoints: run.checkpoints,
            loss_curve: run.loss_curve,
        })
    }
}

/// One batched E²GCL epoch: two global views, λ-weighted anchor batches,
/// Eq. (5) (or InfoNCE) on rows read out of the shared forward passes.
struct E2gclBatchedStep<'a> {
    model: &'a E2gclModel,
    x: &'a Matrix,
    cfg: &'a TrainConfig,
    selection: Selection,
    generator: ViewGenerator,
    encoder: Encoder,
    adj_orig: SparseMatrix,
    opt: Adam,
    train_rng: SeedRng,
    grads: Vec<Matrix>,
    loss_state: InfoNceStrategy,
}

impl EpochStep for E2gclBatchedStep<'_> {
    fn epoch(&mut self, cx: &mut EpochCtx<'_>) -> EpochOutcome {
        let conf = &self.model.config;
        let cfg = self.cfg;
        let anchors = &self.selection.nodes;
        let weights = &self.selection.weights;
        if anchors.is_empty() {
            return EpochOutcome::Stop;
        }
        // Two diverse positive views per epoch (Alg. 1 line 3-4).
        let (g1, mut x1) =
            self.generator
                .sample_global_view(conf.tau_hat, conf.eta_hat, &mut self.train_rng);
        let (g2, x2) =
            self.generator
                .sample_global_view(conf.tau_tilde, conf.eta_tilde, &mut self.train_rng);
        cx.fault.corrupt_features(cx.epoch, &mut x1);
        let a1 = self.encoder.adjacency(&g1);
        let a2 = self.encoder.adjacency(&g2);
        let (h1, c1) = self.encoder.forward(&a1, &x1);
        let (h2, c2) = self.encoder.forward(&a2, &x2);
        let mut acc = None;
        let epoch_loss = match &mut self.loss_state {
            InfoNceStrategy::Full => {
                let mut d_h1 = Matrix::zeros(h1.rows(), h1.cols());
                let mut d_h2 = Matrix::zeros(h2.rows(), h2.cols());
                // λ-weighted anchor batches: sampling anchors ∝ λ reproduces
                // the Eq. (8) weighting in expectation while keeping the
                // per-batch loss unweighted.
                let num_batches = anchors.len().div_ceil(cfg.batch_size).max(1);
                let mut epoch_loss = 0.0f32;
                for _ in 0..num_batches {
                    let bsz = cfg.batch_size.min(anchors.len());
                    let batch: Vec<usize> = (0..bsz)
                        .map(|_| anchors[self.train_rng.weighted_index(weights)])
                        .collect();
                    let hb1 = h1.select_rows(&batch);
                    let hb2 = h2.select_rows(&batch);
                    let negatives: Vec<Vec<usize>> = (0..bsz)
                        .map(|i| {
                            sample_negative_indices(bsz, i, conf.negatives, &mut self.train_rng)
                        })
                        .collect();
                    // Optionally compute the loss on the unit sphere, then
                    // pull gradients back through the normalisation Jacobian.
                    let (d_hat, d_tilde_and_neg, batch_loss) = if conf.loss == LossKind::InfoNce {
                        let out = loss::info_nce(&hb1, &hb2, 0.5);
                        (out.d_z1, out.d_z2, out.loss)
                    } else if conf.normalize {
                        let (u1, n1) = loss::normalize_rows(&hb1);
                        let (u2, n2) = loss::normalize_rows(&hb2);
                        let out = loss::margin_contrastive(&u1, &u2, &u2, &negatives, conf.margin);
                        let mut du2 = out.d_tilde;
                        du2.add_assign(&out.d_neg);
                        (
                            loss::normalize_backward(&u1, &n1, &out.d_hat),
                            loss::normalize_backward(&u2, &n2, &du2),
                            out.loss,
                        )
                    } else {
                        let out =
                            loss::margin_contrastive(&hb1, &hb2, &hb2, &negatives, conf.margin);
                        let mut du2 = out.d_tilde;
                        du2.add_assign(&out.d_neg);
                        (out.d_hat, du2, out.loss)
                    };
                    epoch_loss += batch_loss / num_batches as f32;
                    // Scatter batch gradients back to full-view rows.
                    for (i, &v) in batch.iter().enumerate() {
                        for (dst, &src) in d_h1.row_mut(v).iter_mut().zip(d_hat.row(i)) {
                            *dst += src / num_batches as f32;
                        }
                        for (dst, &src) in d_h2.row_mut(v).iter_mut().zip(d_tilde_and_neg.row(i)) {
                            *dst += src / num_batches as f32;
                        }
                    }
                }
                // Backprop both views and accumulate; the engine decides
                // whether this epoch's update is applied.
                GcnEncoder::accumulate(&mut acc, self.encoder.backward(&a1, &c1, &d_h1), 1.0);
                GcnEncoder::accumulate(&mut acc, self.encoder.backward(&a2, &c2, &d_h2), 1.0);
                epoch_loss
            }
            InfoNceStrategy::SmallNeg { k, strat } => {
                // Sub-quadratic path (DESIGN.md §15): every selected anchor
                // trains once per epoch against k representative negatives
                // re-selected on the current view-1 embeddings; replaces the
                // λ-resampled batch loop and the `LossKind` objective.
                let mut sel_rng = self.train_rng.fork("negatives");
                let identity =
                    anchors.len() == h1.rows() && anchors.iter().enumerate().all(|(i, &v)| i == v);
                if identity {
                    strat.set_negatives(&select_negatives(&h1, *k, &mut sel_rng));
                    let epoch_loss = strat.compute(&h1, &h2);
                    GcnEncoder::accumulate(
                        &mut acc,
                        self.encoder.backward(&a1, &c1, strat.d_z1()),
                        1.0,
                    );
                    GcnEncoder::accumulate(
                        &mut acc,
                        self.encoder.backward(&a2, &c2, strat.d_z2()),
                        1.0,
                    );
                    epoch_loss
                } else {
                    let hb1 = h1.select_rows(anchors);
                    let hb2 = h2.select_rows(anchors);
                    strat.set_negatives(&select_negatives(&hb1, *k, &mut sel_rng));
                    let epoch_loss = strat.compute(&hb1, &hb2);
                    let mut d_h1 = Matrix::zeros(h1.rows(), h1.cols());
                    let mut d_h2 = Matrix::zeros(h2.rows(), h2.cols());
                    for (i, &v) in anchors.iter().enumerate() {
                        d_h1.set_row(v, strat.d_z1().row(i));
                        d_h2.set_row(v, strat.d_z2().row(i));
                    }
                    GcnEncoder::accumulate(&mut acc, self.encoder.backward(&a1, &c1, &d_h1), 1.0);
                    GcnEncoder::accumulate(&mut acc, self.encoder.backward(&a2, &c2, &d_h2), 1.0);
                    epoch_loss
                }
            }
            InfoNceStrategy::Localized { strat, .. } => {
                // Topology and anchors were fixed at construction; the
                // sparse kernel reads/writes full-view rows directly.
                let epoch_loss = strat.compute(&h1, &h2);
                GcnEncoder::accumulate(
                    &mut acc,
                    self.encoder.backward(&a1, &c1, strat.d_z1()),
                    1.0,
                );
                GcnEncoder::accumulate(
                    &mut acc,
                    self.encoder.backward(&a2, &c2, strat.d_z2()),
                    1.0,
                );
                epoch_loss
            }
        };
        self.grads = acc.unwrap_or_default();
        let embeddings_bad = cx.guard.embeddings_bad(&[&h1, &h2]);
        EpochOutcome::Step {
            loss: epoch_loss,
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

    fn snapshot(&mut self) -> Option<StepState> {
        Some(e2gcl_snapshot(&self.encoder, &self.opt, &self.train_rng))
    }

    fn restore(&mut self, state: &StepState) -> Result<(), TrainError> {
        e2gcl_restore(&mut self.encoder, &mut self.opt, &mut self.train_rng, state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
