//! BGRL (Thakoor et al. 2021) and AFGRL (Lee et al. 2022).
//!
//! Both are negative-free bootstrap learners and train through one step,
//! `BootstrapStep`: an online GCN + predictor is trained to match an EMA
//! *target* encoder, which never receives gradients. The models differ
//! only in their `Branches`. BGRL feeds two branches different corrupted
//! views, each predicting the other's target; AFGRL is augmentation-free —
//! its one branch sees the original graph and each node's bootstrap target
//! is the mean target-embedding of its *adaptive positives* (neighbours
//! that are also nearest neighbours in target embedding space), which is
//! the mechanism AFGRL contributes.

use crate::config::TrainConfig;
use crate::engine::{EpochCtx, EpochDriver, EpochOutcome, EpochStep};
use crate::models::{ContrastiveModel, PretrainResult};
use e2gcl_graph::{norm, CsrGraph, SparseMatrix};
use e2gcl_linalg::{ops, Matrix, SeedRng, TrainError};
use e2gcl_nn::{ema, loss, optim::Optimizer, Adam, GcnEncoder, GcnWorkspace, Mlp, MlpWorkspace};
use e2gcl_views::uniform;
use std::borrow::Cow;

/// Shared configuration of the bootstrap models.
#[derive(Clone, Debug)]
pub struct BgrlConfig {
    /// Edge-drop probability per view (BGRL only).
    pub drop_edge: (f32, f32),
    /// Feature-mask probability per view (BGRL only).
    pub mask_feat: (f32, f32),
    /// Base EMA decay of the target network.
    pub ema_decay: f32,
    /// AFGRL: how many nearest target-space neighbours qualify as positives.
    pub knn: usize,
}

impl Default for BgrlConfig {
    fn default() -> Self {
        Self {
            drop_edge: (0.2, 0.4),
            mask_feat: (0.2, 0.3),
            ema_decay: 0.99,
            knn: 8,
        }
    }
}

/// The BGRL model.
#[derive(Clone, Debug, Default)]
pub struct BgrlModel {
    /// Model configuration.
    pub config: BgrlConfig,
}

/// The AFGRL model (augmentation-free bootstrap).
#[derive(Clone, Debug, Default)]
pub struct AfgrlModel {
    /// Model configuration.
    pub config: BgrlConfig,
}

/// One bootstrap branch step: predict targets from online embeddings and
/// step the predictor in place. The loss value is returned; the gradient
/// w.r.t. the online embeddings lands in `ws.d_input()`.
fn bootstrap_step(
    predictor: &mut Mlp,
    h_online: &Matrix,
    target: &Matrix,
    lr: f32,
    ws: &mut MlpWorkspace,
    d_pred: &mut Matrix,
) -> f32 {
    predictor.forward_with(h_online, ws);
    let l = loss::cosine_bootstrap_with(ws.output(), target, d_pred);
    predictor.backward_with(h_online, d_pred, ws);
    predictor.step(ws.grads(), lr, 0.0);
    l
}

impl ContrastiveModel for BgrlModel {
    fn name(&self) -> String {
        "BGRL".to_string()
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
        let mut step = BootstrapStep::new(g, x, &self.config, cfg, rng, |rng| {
            Branches::Corrupted(rng.fork("train"))
        });
        driver.run(&mut step)
    }
}

impl ContrastiveModel for AfgrlModel {
    fn name(&self) -> String {
        "AFGRL".to_string()
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
        // No "train" fork: the branch draws nothing, and a fork would
        // advance the caller's stream.
        let mut step = BootstrapStep::new(g, x, &self.config, cfg, rng, |_| Branches::Original);
        driver.run(&mut step)
    }
}

/// How a bootstrap model builds its branches and their targets each epoch.
enum Branches {
    /// BGRL: two uniformly corrupted views (drawn from the held stream),
    /// each predicting the other's target.
    Corrupted(SeedRng),
    /// AFGRL: the original graph, predicting each node's adaptive
    /// positives.
    Original,
}

/// One branch's buffers: the online encoder pass, the predictor pass and
/// the predictor's output gradient.
#[derive(Default)]
struct Branch {
    ws: GcnWorkspace,
    pws: MlpWorkspace,
    d_pred: Matrix,
}

/// One bootstrap epoch (BGRL, AFGRL): encode every branch with the online
/// encoder, run [`bootstrap_step`] per branch in order (the predictor steps
/// between branches), and sum the branches' encoder gradients into the
/// first. The loss is the mean over branches; the target is refreshed by
/// the annealed EMA in `apply`.
struct BootstrapStep<'a> {
    config: &'a BgrlConfig,
    g: &'a CsrGraph,
    x: &'a Matrix,
    cfg: &'a TrainConfig,
    adj: SparseMatrix,
    online: GcnEncoder,
    target: GcnEncoder,
    predictor: Mlp,
    opt: Adam,
    branches: Branches,
    buffers: Vec<Branch>,
}

impl<'a> BootstrapStep<'a> {
    /// Forks `"online"` and `"pred"` off `rng`, then lets `branches` take
    /// whatever stream it needs.
    fn new(
        g: &'a CsrGraph,
        x: &'a Matrix,
        config: &'a BgrlConfig,
        cfg: &'a TrainConfig,
        rng: &mut SeedRng,
        branches: impl FnOnce(&mut SeedRng) -> Branches,
    ) -> Self {
        let online = GcnEncoder::new(&cfg.encoder_dims(x.cols()), &mut rng.fork("online"));
        let predictor = Mlp::new(
            cfg.embed_dim,
            cfg.embed_dim * 2,
            cfg.embed_dim,
            &mut rng.fork("pred"),
        );
        let branches = branches(rng);
        Self {
            config,
            g,
            x,
            cfg,
            adj: norm::normalized_adjacency(g),
            target: online.clone(),
            online,
            predictor,
            opt: Adam::with_weight_decay(cfg.lr, cfg.weight_decay),
            branches,
            buffers: Vec::new(),
        }
    }
}

impl EpochStep for BootstrapStep<'_> {
    fn epoch(&mut self, cx: &mut EpochCtx<'_>) -> EpochOutcome {
        let mut views: Vec<(Cow<'_, SparseMatrix>, Cow<'_, Matrix>)> = match &mut self.branches {
            Branches::Corrupted(rng) => {
                let (de, mf) = (self.config.drop_edge, self.config.mask_feat);
                let g1 = uniform::drop_edges_uniform(self.g, de.0, rng);
                let g2 = uniform::drop_edges_uniform(self.g, de.1, rng);
                let x1 = uniform::mask_feature_dims(self.x, mf.0, rng);
                let x2 = uniform::mask_feature_dims(self.x, mf.1, rng);
                vec![
                    (Cow::Owned(norm::normalized_adjacency(&g1)), Cow::Owned(x1)),
                    (Cow::Owned(norm::normalized_adjacency(&g2)), Cow::Owned(x2)),
                ]
            }
            Branches::Original => vec![(Cow::Borrowed(&self.adj), Cow::Borrowed(self.x))],
        };
        cx.fault.corrupt_view_features(cx.epoch, &mut views[0].1);
        self.buffers.resize_with(views.len(), Branch::default);
        let mut targets: Vec<Matrix> = views
            .iter()
            .map(|(adj, x)| self.target.embed(adj, x))
            .collect();
        match self.branches {
            Branches::Corrupted(_) => targets.reverse(),
            Branches::Original => {
                targets[0] = afgrl_positive_targets(self.g, &targets[0], self.config.knn);
            }
        }
        for ((adj, x), b) in views.iter().zip(&mut self.buffers) {
            self.online.forward_with(adj, x, &mut b.ws);
        }
        // The predictor steps inside the epoch, before the guard verdict:
        // on a retry only the encoder update is discarded.
        let mut total = 0.0f32;
        for (b, target) in self.buffers.iter_mut().zip(&targets) {
            total += bootstrap_step(
                &mut self.predictor,
                b.ws.output(),
                target,
                cx.lr,
                &mut b.pws,
                &mut b.d_pred,
            );
        }
        for ((adj, _), b) in views.iter().zip(&mut self.buffers) {
            self.online.backward_with(adj, &mut b.ws, b.pws.d_input());
        }
        let (first, rest) = self
            .buffers
            .split_first_mut()
            .expect("a bootstrap step has a branch");
        for b in rest.iter() {
            for (acc, g) in first.ws.grads_mut().iter_mut().zip(b.ws.grads()) {
                acc.axpy(1.0, g);
            }
        }
        let outputs: Vec<&Matrix> = self.buffers.iter().map(|b| b.ws.output()).collect();
        EpochOutcome::Step {
            loss: total / self.buffers.len() as f32,
            embeddings_bad: cx.guard.embeddings_bad(&outputs),
        }
    }

    fn grads_mut(&mut self) -> &mut [Matrix] {
        self.buffers[0].ws.grads_mut()
    }

    fn apply(&mut self, epoch: usize, lr: f32, _loss: f32) {
        self.opt.lr = lr;
        self.opt
            .step(self.online.params_mut(), self.buffers[0].ws.grads());
        let decay = ema::annealed_decay(self.config.ema_decay, epoch, self.cfg.epochs);
        ema::ema_update(self.target.params_mut(), self.online.params(), decay);
    }

    fn embed(&mut self) -> Matrix {
        self.online.embed(&self.adj, self.x)
    }
}

/// AFGRL positives: neighbours of `v` ranked by cosine similarity in target
/// space, top `knn` kept. Falls back to `v` itself for isolated nodes.
fn afgrl_positive_targets(g: &CsrGraph, target_h: &Matrix, knn: usize) -> Matrix {
    let n = g.num_nodes();
    let d = target_h.cols();
    let mut out = Matrix::zeros(n, d);
    for v in 0..n {
        let mut scored: Vec<(f32, usize)> = g
            .neighbors(v)
            .iter()
            .map(|&u| {
                let u = u as usize;
                (ops::cosine(target_h.row(v), target_h.row(u)), u)
            })
            .collect();
        scored.sort_unstable_by(|a, b| b.0.total_cmp(&a.0));
        scored.truncate(knn.max(1));
        if scored.is_empty() {
            out.set_row(v, target_h.row(v));
            continue;
        }
        let inv = 1.0 / scored.len() as f32;
        let row = out.row_mut(v);
        for &(_, u) in &scored {
            ops::axpy_slice(row, inv, target_h.row(u));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use e2gcl_datasets::{spec, NodeDataset};

    fn tiny() -> (NodeDataset, TrainConfig) {
        (
            NodeDataset::generate(&spec("cora-sim").unwrap(), 0.05, 0),
            TrainConfig {
                epochs: 10,
                ..Default::default()
            },
        )
    }

    #[test]
    fn bgrl_trains_without_nans() {
        let (d, cfg) = tiny();
        let out = BgrlModel::default()
            .pretrain(&d.graph, &d.features, &cfg, &mut SeedRng::new(0))
            .unwrap();
        assert!(!out.embeddings.has_non_finite());
        assert_eq!(out.loss_curve.len(), 10);
        // Bootstrap loss is bounded in [0, 4].
        assert!(out.loss_curve.iter().all(|&l| (0.0..=4.0).contains(&l)));
    }

    #[test]
    fn afgrl_trains_without_nans() {
        let (d, cfg) = tiny();
        let out = AfgrlModel::default()
            .pretrain(&d.graph, &d.features, &cfg, &mut SeedRng::new(1))
            .unwrap();
        assert!(!out.embeddings.has_non_finite());
    }

    #[test]
    fn afgrl_positives_prefer_similar_neighbors() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (0, 2), (0, 3)]);
        let t = Matrix::from_rows(&[
            &[1.0, 0.0],
            &[0.9, 0.1],  // most similar to node 0
            &[0.0, 1.0],  // orthogonal
            &[-1.0, 0.0], // opposite
        ]);
        let pos = afgrl_positive_targets(&g, &t, 1);
        // Node 0's positive should be node 1's embedding.
        assert_eq!(pos.row(0), t.row(1));
    }

    #[test]
    fn afgrl_isolated_node_self_target() {
        let g = CsrGraph::from_edges(2, &[]);
        let t = Matrix::from_rows(&[&[0.5, 0.5], &[1.0, -1.0]]);
        let pos = afgrl_positive_targets(&g, &t, 3);
        assert_eq!(pos.row(0), t.row(0));
        assert_eq!(pos.row(1), t.row(1));
    }
}
