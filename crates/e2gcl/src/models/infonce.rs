//! The contrastive epoch step shared by GRACE/GCA and E²GCL (DESIGN.md
//! §13, §15): it runs every contrastive objective — full, small-negative
//! and localized InfoNCE, and the paper's Eq. (5).
//!
//! Alg. 1 is one loop — make two views, encode both, apply a contrastive
//! loss — and [`InfoNceStep`] is that loop, split the way the GCL surveys
//! split every method: augmentation × encoder × objective. A model supplies
//! only its corruption (a closure from a graph/feature pair to two views),
//! its encoder, an optional projection head and its anchors. The step
//! iterates over *views*: without a mini-batch block, or with the
//! degenerate one, the whole graph is the single identity view, borrowed
//! rather than copied; otherwise every shuffled seed batch gets one
//! fanout-bounded [`NeighborSampler`] view.
//!
//! Scaling rules (the golden and mini-batch fingerprints pin their float
//! ops):
//! * the loss and the head's learning rate are divided by the epoch's total
//!   number of loss batches;
//! * the anchor-row gradient `d_h` accumulates at `1/(batches in this
//!   view)` when the view is chunked, and is a plain copy otherwise;
//! * encoder gradients accumulate at `1/(number of views)`;
//! * full InfoNCE on the whole graph runs in shuffled `cfg.batch_size`
//!   chunks, drawn after the views; E²GCL's λ-weighted batches
//!   ([`InfoNceStep::weighted`]) replace the shuffle with
//!   `ceil(|anchors| / batch_size)` batches of `min(batch_size, |anchors|)`
//!   draws ∝ λ, each followed by one negative draw per row;
//! * a loss batch of fewer than 2 rows is skipped under the InfoNCE
//!   kernels; Eq. (5) trains on it.

use crate::checkpoint::{restore_params, StepState};
use crate::config::{LossStrategy, TrainConfig};
use crate::engine::{EpochCtx, EpochOutcome, EpochStep};
use crate::models::{
    sample_negative_indices, sampled_minibatch, select_negatives, shuffled_batches,
};
use e2gcl_graph::{CsrGraph, NeighborSampler, SparseMatrix};
use e2gcl_linalg::{Matrix, SeedRng, TrainError};
use e2gcl_nn::{
    optim::Optimizer, Adam, ContrastiveLoss, EncoderWorkspace, FrozenEncoder, FullInfoNce,
    LocalizedInfoNce, MarginContrastive, Mlp, MlpWorkspace, Neighborhoods, SmallNegInfoNce,
};

/// Two corrupted `(graph, features)` views.
pub(crate) type ViewPair = [(CsrGraph, Matrix); 2];

/// The encoder half of the step, run over both views through one workspace
/// per view. [`Twin::resident`] keeps both workspaces between epochs, so
/// steady-state epochs allocate nothing (GRACE/GCA). [`Twin::released`]
/// drops each view's workspace right after its backward pass (E²GCL):
/// workspaces sized for the largest sampled view would otherwise stay
/// resident between views and raise the mini-batch peak RSS.
pub(crate) struct Twin {
    enc: FrozenEncoder,
    ws: [EncoderWorkspace; 2],
    release: bool,
}

impl Twin {
    pub(crate) fn resident(enc: FrozenEncoder) -> Twin {
        Twin {
            ws: [enc.workspace(), enc.workspace()],
            enc,
            release: false,
        }
    }

    pub(crate) fn released(enc: FrozenEncoder) -> Twin {
        Twin {
            release: true,
            ..Twin::resident(enc)
        }
    }
}

/// The configured [`LossStrategy`] (or E²GCL's Eq. (5)) as a fused kernel
/// with its own scratch (boxed: the scratches are large).
enum Objective {
    Full(Box<FullInfoNce>),
    Margin(Box<MarginContrastive>),
    SmallNeg(usize, Box<SmallNegInfoNce>),
    Localized(usize, Box<LocalizedInfoNce>),
}

impl Objective {
    fn new(loss: &LossStrategy, tau: f32) -> Objective {
        match *loss {
            LossStrategy::Full => Objective::Full(Box::new(FullInfoNce::new(tau))),
            LossStrategy::SmallNeg { negatives } => {
                Objective::SmallNeg(negatives, Box::new(SmallNegInfoNce::new(tau)))
            }
            LossStrategy::Localized { hops } => Objective::Localized(
                hops,
                Box::new(LocalizedInfoNce::new(tau, Neighborhoods::default())),
            ),
        }
    }

    /// Strategy-specific setup for one loss batch. Eq. (5) takes the
    /// batch's drawn `negatives`; smallneg re-selects its negatives among
    /// the view-1 anchor rows `z1` from a `"negatives"` fork of `rng`;
    /// localized takes `graph`'s L-hop topology (when given) and the
    /// anchors in ascending order (`None` = every row).
    fn prepare(
        &mut self,
        z1: &Matrix,
        anchors: Option<&[usize]>,
        graph: Option<&CsrGraph>,
        negatives: Vec<Vec<usize>>,
        rng: &mut SeedRng,
    ) -> &mut dyn ContrastiveLoss {
        match self {
            Objective::Full(loss) => loss.as_mut(),
            Objective::Margin(loss) => {
                loss.set_negatives(negatives);
                loss.as_mut()
            }
            Objective::SmallNeg(k, loss) => {
                loss.set_negatives(&select_negatives(z1, *k, &mut rng.fork("negatives")));
                loss.as_mut()
            }
            Objective::Localized(hops, loss) => {
                if let Some(g) = graph {
                    loss.set_topology(Neighborhoods::from_graph(g, *hops));
                }
                loss.set_anchors(anchors.map(|a| {
                    let mut sorted = a.to_vec();
                    sorted.sort_unstable();
                    sorted
                }));
                loss.as_mut()
            }
        }
    }

    /// `∂L/∂z` of view `side` from the last `compute`.
    fn d_z(&self, side: usize) -> &Matrix {
        let kernel: &dyn ContrastiveLoss = match self {
            Objective::Full(loss) => loss.as_ref(),
            Objective::Margin(loss) => loss.as_ref(),
            Objective::SmallNeg(_, loss) => loss.as_ref(),
            Objective::Localized(_, loss) => loss.as_ref(),
        };
        if side == 0 {
            kernel.d_z1()
        } else {
            kernel.d_z2()
        }
    }
}

/// `acc = scale·g` when `first`, else `acc += scale·g`, into buffers reused
/// across epochs.
pub(crate) fn accumulate(acc: &mut Vec<Matrix>, first: bool, grads: &[Matrix], scale: f32) {
    if first {
        acc.resize_with(grads.len(), Matrix::default);
    }
    for (a, g) in acc.iter_mut().zip(grads) {
        if first {
            a.copy_from(g);
            a.scale(scale);
        } else {
            a.axpy(scale, g);
        }
    }
}

/// The projection head's four tensors in checkpoint order; biases travel
/// as 1×n matrices.
fn head_tensors(h: &Mlp) -> Vec<Matrix> {
    let row = |b: &[f32]| Matrix::from_vec(1, b.len(), b.to_vec());
    vec![h.l1.w.clone(), row(&h.l1.b), h.l2.w.clone(), row(&h.l2.b)]
}

/// Checkpoint layout shared by the GRACE/GCA and E²GCL steps: encoder
/// weights (the Adam group), the projection head's tensors when there is
/// one (its SGD is stateless), the Adam moments and the training RNG.
pub(crate) fn snapshot(
    params: &[Matrix],
    head: Option<&Mlp>,
    opt: &Adam,
    rng: &SeedRng,
) -> StepState {
    let extra = head.map_or_else(Vec::new, head_tensors);
    StepState::pack_trainer(params, &extra, opt, rng)
}

/// Restores a [`snapshot`] into a freshly built step.
pub(crate) fn restore(
    params: &mut [Matrix],
    head: Option<&mut Mlp>,
    opt: &mut Adam,
    rng: &mut SeedRng,
    state: &StepState,
) -> Result<(), TrainError> {
    let s = state.unpack_trainer(params.len(), if head.is_some() { 4 } else { 0 })?;
    restore_params(params, &s.params)?;
    if let Some(h) = head {
        let mut live = head_tensors(h);
        restore_params(&mut live, &s.extra)?;
        let [w1, b1, w2, b2] = <[Matrix; 4]>::try_from(live).expect("four head tensors");
        (h.l1.w, h.l1.b, h.l2.w, h.l2.b) = (w1, b1.into_vec(), w2, b2.into_vec());
    }
    opt.restore_state(s.adam_t, s.adam_m, s.adam_v);
    *rng = s.rng;
    Ok(())
}

/// E²GCL's λ-weighted batching of the whole graph: anchors drawn ∝ their
/// selection weights, with `negatives` sampled batch rows per anchor.
struct Weighted {
    weights: Vec<f32>,
    /// `SeedRng::weight_total(&weights)`, summed once.
    total: f64,
    negatives: usize,
}

impl Weighted {
    /// One epoch's batches and their per-row negatives. `anchors` maps a
    /// weight index to its row (`None` = the identity).
    fn draw(
        &self,
        anchors: Option<&[usize]>,
        batch_size: usize,
        rng: &mut SeedRng,
    ) -> (Vec<Vec<usize>>, Vec<Vec<Vec<usize>>>) {
        let len = self.weights.len();
        let bsz = batch_size.min(len);
        (0..len.div_ceil(batch_size))
            .map(|_| {
                let rows = (0..bsz)
                    .map(|_| {
                        let j = rng.weighted_index_with_total(&self.weights, self.total);
                        anchors.map_or(j, |a| a[j])
                    })
                    .collect();
                let negatives = (0..bsz)
                    .map(|i| sample_negative_indices(bsz, i, self.negatives, rng))
                    .collect();
                (rows, negatives)
            })
            .unzip()
    }
}

/// A projection head and one workspace per view.
struct Head {
    mlp: Mlp,
    ws: [MlpWorkspace; 2],
}

/// One InfoNCE-family epoch over the whole graph or over sampled views.
pub(crate) struct InfoNceStep<'a, A> {
    g: &'a CsrGraph,
    x: &'a Matrix,
    cfg: &'a TrainConfig,
    augment: A,
    /// Whole-graph anchors in loss order; `None` = every row.
    anchors: Option<Vec<usize>>,
    /// Seed sampler and batch size; `None` trains on the whole graph.
    sampler: Option<(NeighborSampler, usize)>,
    /// λ-weighted whole-graph batches; `None` shuffles the anchors.
    weighted: Option<Weighted>,
    adj_orig: SparseMatrix,
    twin: Twin,
    head: Option<Head>,
    loss: Objective,
    opt: Adam,
    rng: SeedRng,
    grads: Vec<Matrix>,
    hb: [Matrix; 2],
    d_h: [Matrix; 2],
}

impl<'a, A> InfoNceStep<'a, A>
where
    A: Fn(&CsrGraph, &Matrix, &mut SeedRng) -> ViewPair,
{
    /// A step over `(g, x)` at temperature `tau`. `augment` corrupts a
    /// graph/feature pair into two views; `anchors` are the whole-graph
    /// anchor rows in loss order (`None` = every row); `rng` is the
    /// model's `"train"` fork.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        g: &'a CsrGraph,
        x: &'a Matrix,
        cfg: &'a TrainConfig,
        augment: A,
        twin: Twin,
        head: Option<Mlp>,
        anchors: Option<Vec<usize>>,
        tau: f32,
        rng: SeedRng,
    ) -> Self {
        let mut loss = Objective::new(&cfg.loss, tau);
        // Sample exactly the encoder's receptive field: deeper nodes cannot
        // influence the anchor rows the loss reads.
        let sampler = sampled_minibatch(cfg, g.num_nodes()).map(|mb| {
            let hops = cfg.encoder_dims(x.cols()).len() - 1;
            (NeighborSampler::new(hops, mb.fanout), mb.batch_nodes)
        });
        if let (None, Objective::Localized(hops, l)) = (&sampler, &mut loss) {
            // The whole graph's neighbourhoods are fixed for the run.
            l.set_topology(Neighborhoods::from_graph(g, *hops));
        }
        InfoNceStep {
            g,
            x,
            cfg,
            augment,
            anchors,
            sampler,
            weighted: None,
            adj_orig: twin.enc.adjacency(g),
            twin,
            head: head.map(|mlp| Head {
                mlp,
                ws: [MlpWorkspace::new(), MlpWorkspace::new()],
            }),
            loss,
            opt: Adam::with_weight_decay(cfg.lr, cfg.weight_decay),
            rng,
            grads: Vec::new(),
            hb: Default::default(),
            d_h: Default::default(),
        }
    }

    /// Batches the whole graph E²GCL's way under full InfoNCE: λ-weighted
    /// anchor draws by `weights` (parallel to the anchors) with
    /// `negatives` sampled rows each; `margin` swaps full InfoNCE for the
    /// Eq. (5) kernel. Sampled views keep their shuffled seed batches.
    pub(crate) fn weighted(
        &mut self,
        weights: Vec<f32>,
        negatives: usize,
        margin: Option<MarginContrastive>,
    ) {
        self.weighted = Some(Weighted {
            total: SeedRng::weight_total(&weights),
            weights,
            negatives,
        });
        if let Some(kernel) = margin {
            self.loss = Objective::Margin(Box::new(kernel));
        }
    }

    /// Trains one view pair and adds its encoder gradients into
    /// `self.grads`; returns its share of the epoch loss and the guard's
    /// embedding verdict. `sampled` holds the uncorrupted sampled graph and
    /// the anchors' local rows; `None` means the whole-graph view.
    fn train_view(
        &mut self,
        cx: &mut EpochCtx<'_>,
        mut pair: ViewPair,
        sampled: Option<(&CsrGraph, &[usize])>,
        num_views: usize,
        first: bool,
    ) -> (f32, bool) {
        cx.fault.corrupt_features(cx.epoch, &mut pair[0].1);
        let Self {
            cfg,
            anchors,
            weighted,
            twin,
            head,
            loss,
            rng,
            grads,
            hb,
            d_h,
            ..
        } = self;
        let adj = [
            twin.enc.adjacency(&pair[0].0),
            twin.enc.adjacency(&pair[1].0),
        ];
        for (side, ws) in twin.ws.iter_mut().enumerate() {
            twin.enc.forward_with(&adj[side], &pair[side].1, ws);
        }
        let (h1, h2) = (twin.ws[0].output(), twin.ws[1].output());
        let bad = cx.guard.embeddings_bad(&[h1, h2]);
        let n = h1.rows();
        let (graph, anchors) = match sampled {
            Some((g, a)) => (Some(g), Some(a)),
            None => (None, anchors.as_deref()),
        };
        // Identity anchors read the encoder outputs without a copy.
        let anchors =
            anchors.filter(|a| a.len() != n || a.iter().enumerate().any(|(i, &v)| i != v));
        // Full InfoNCE and Eq. (5) on the whole graph run in `batch_size`
        // chunks, shuffled or λ-weighted; any other view is one loss batch.
        // The sparse localized kernel reads the anchor rows in place, so it
        // never gathers.
        let localized = matches!(loss, Objective::Localized(..));
        let margin = matches!(loss, Objective::Margin(_));
        let chunked = graph.is_none() && (margin || matches!(loss, Objective::Full(_)));
        let (chunks, mut negatives) = match weighted {
            Some(w) if chunked => w.draw(anchors, cfg.batch_size, rng),
            _ if chunked => {
                let order = anchors.map_or_else(|| (0..n).collect(), <[usize]>::to_vec);
                (shuffled_batches(order, cfg.batch_size, rng), Vec::new())
            }
            _ => Default::default(),
        };
        let batches: Vec<Option<&[usize]>> = if chunked {
            chunks.iter().map(|c| Some(c.as_slice())).collect()
        } else {
            vec![anchors.filter(|_| !localized)]
        };
        let gathered = chunked || (anchors.is_some() && !localized);
        let nb = batches.len() as f32;
        let total = nb * num_views as f32;
        if gathered {
            for d in d_h.iter_mut() {
                d.reset_zeroed(n, h1.cols());
            }
        }
        let mut head = head.as_mut().filter(|_| !localized);
        let mut view_loss = 0.0;
        for (b, rows) in batches.into_iter().enumerate() {
            if chunked && !margin && rows.is_some_and(|r| r.len() < 2) {
                continue;
            }
            let z = match rows {
                Some(r) => {
                    h1.select_rows_into(r, &mut hb[0]);
                    h2.select_rows_into(r, &mut hb[1]);
                    [&hb[0], &hb[1]]
                }
                None => [h1, h2],
            };
            let negatives = negatives.get_mut(b).map(std::mem::take).unwrap_or_default();
            let kernel = loss.prepare(z[0], anchors, graph, negatives, rng);
            let batch_loss = match head.as_deref_mut() {
                Some(Head { mlp, ws }) => {
                    mlp.forward_with(z[0], &mut ws[0]);
                    mlp.forward_with(z[1], &mut ws[1]);
                    let l = kernel.compute(ws[0].output(), ws[1].output());
                    mlp.backward_with(z[0], kernel.d_z1(), &mut ws[0]);
                    mlp.backward_with(z[1], kernel.d_z2(), &mut ws[1]);
                    l
                }
                None => kernel.compute(z[0], z[1]),
            };
            view_loss += batch_loss / total;
            if let Some(r) = rows {
                for (side, d_h) in d_h.iter_mut().enumerate() {
                    let d = match head.as_deref() {
                        Some(h) => h.ws[side].d_input(),
                        None => loss.d_z(side),
                    };
                    for (i, &v) in r.iter().enumerate() {
                        if chunked {
                            for (dst, &src) in d_h.row_mut(v).iter_mut().zip(d.row(i)) {
                                *dst += src / nb;
                            }
                        } else {
                            d_h.set_row(v, d.row(i));
                        }
                    }
                }
            }
            // The head steps inside the epoch, before the guard verdict: a
            // retry discards only the encoder update.
            if let Some(Head { mlp, ws }) = head.as_deref_mut() {
                mlp.step(ws[0].grads(), cx.lr / total, 0.0);
                mlp.step(ws[1].grads(), cx.lr / total, 0.0);
            }
        }
        let scale = 1.0 / num_views as f32;
        for side in 0..2 {
            let d = match (gathered, head.as_deref()) {
                (true, _) => &d_h[side],
                (false, Some(h)) => h.ws[side].d_input(),
                (false, None) => loss.d_z(side),
            };
            let ws = &mut twin.ws[side];
            twin.enc.backward_with(&adj[side], &pair[side].1, ws, d);
            accumulate(grads, first && side == 0, ws.grads(), scale);
            if twin.release {
                *ws = twin.enc.workspace();
            }
        }
        if twin.release {
            // Released workspaces keep no gather buffer resident between
            // views either: E²GCL frees its per-view matrices around it, and
            // a resident n-row buffer fragments that heap (train_full's peak
            // RSS rose from about 75 MB to about 97 MB).
            *d_h = Default::default();
            *hb = Default::default();
        }
        (view_loss, bad)
    }
}

impl<A> EpochStep for InfoNceStep<'_, A>
where
    A: Fn(&CsrGraph, &Matrix, &mut SeedRng) -> ViewPair,
{
    fn epoch(&mut self, cx: &mut EpochCtx<'_>) -> EpochOutcome {
        let (g, x) = (self.g, self.x);
        if self.anchors.as_ref().is_some_and(Vec::is_empty) {
            return EpochOutcome::Stop;
        }
        let Some((sampler, batch_nodes)) = self.sampler.clone() else {
            let pair = (self.augment)(g, x, &mut self.rng);
            let (loss, embeddings_bad) = self.train_view(cx, pair, None, 1, true);
            return EpochOutcome::Step {
                loss,
                embeddings_bad,
            };
        };
        let order = self
            .anchors
            .clone()
            .unwrap_or_else(|| (0..g.num_nodes()).collect());
        let batches = shuffled_batches(order, batch_nodes, &mut self.rng);
        let (mut loss, mut embeddings_bad, mut stepped) = (0.0, false, 0);
        for seeds in &batches {
            if seeds.len() < 2 {
                continue;
            }
            let view = sampler.sample(g, seeds, &mut self.rng);
            let pair = (self.augment)(&view.graph, &view.features(x), &mut self.rng);
            let locals: Vec<usize> = seeds
                .iter()
                .map(|&v| view.local(v).expect("seed is in its sampled view"))
                .collect();
            let sampled = Some((&view.graph, locals.as_slice()));
            let (l, bad) = self.train_view(cx, pair, sampled, batches.len(), stepped == 0);
            loss += l;
            embeddings_bad |= bad;
            stepped += 1;
        }
        if stepped == 0 {
            return EpochOutcome::SkipSilently;
        }
        EpochOutcome::Step {
            loss,
            embeddings_bad,
        }
    }

    fn grads_mut(&mut self) -> &mut [Matrix] {
        &mut self.grads
    }

    fn apply(&mut self, _epoch: usize, lr: f32, _loss: f32) {
        self.opt.lr = lr;
        self.opt.step(self.twin.enc.params_mut(), &self.grads);
    }

    fn embed(&mut self) -> Matrix {
        self.twin.enc.embed(&self.adj_orig, self.x)
    }

    fn frozen_encoder(&self) -> Option<FrozenEncoder> {
        Some(self.twin.enc.clone())
    }

    fn snapshot(&mut self) -> Option<StepState> {
        let head = self.head.as_ref().map(|h| &h.mlp);
        Some(snapshot(self.twin.enc.params(), head, &self.opt, &self.rng))
    }

    fn restore(&mut self, state: &StepState) -> Result<(), TrainError> {
        let head = self.head.as_mut().map(|h| &mut h.mlp);
        restore(
            self.twin.enc.params_mut(),
            head,
            &mut self.opt,
            &mut self.rng,
            state,
        )
    }
}
