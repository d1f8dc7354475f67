//! BGRL (Thakoor et al. 2021) and AFGRL (Lee et al. 2022).
//!
//! Both are negative-free bootstrap learners: an online GCN + predictor is
//! trained to match an EMA *target* encoder, which never receives
//! gradients. BGRL feeds the two branches different corrupted views; AFGRL
//! is augmentation-free — both branches see the original graph and each
//! node's bootstrap target is the mean target-embedding of its *adaptive
//! positives* (neighbours that are also nearest neighbours in target
//! embedding space), which is the mechanism AFGRL contributes.

use crate::config::TrainConfig;
use crate::engine::{EpochCtx, EpochDriver, EpochOutcome, EpochStep};
use crate::models::{ContrastiveModel, PretrainResult};
use e2gcl_graph::{norm, CsrGraph, SparseMatrix};
use e2gcl_linalg::{ops, Matrix, SeedRng, TrainError};
use e2gcl_nn::{ema, loss, optim::Optimizer, Adam, GcnEncoder, GcnWorkspace, Mlp, MlpWorkspace};
use e2gcl_views::uniform;

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
        let adj_orig = norm::normalized_adjacency(g);
        let dims = cfg.encoder_dims(x.cols());
        let online = GcnEncoder::new(&dims, &mut rng.fork("online"));
        let target = online.clone();
        let predictor = Mlp::new(
            cfg.embed_dim,
            cfg.embed_dim * 2,
            cfg.embed_dim,
            &mut rng.fork("pred"),
        );
        let opt = Adam::with_weight_decay(cfg.lr, cfg.weight_decay);
        let train_rng = rng.fork("train");
        driver.run(&mut BgrlStep {
            config: &self.config,
            g,
            x,
            cfg,
            adj_orig,
            online,
            target,
            predictor,
            opt,
            train_rng,
            ws1: GcnWorkspace::new(),
            ws2: GcnWorkspace::new(),
            pws1: MlpWorkspace::new(),
            pws2: MlpWorkspace::new(),
            dp1: Matrix::default(),
            dp2: Matrix::default(),
        })
    }
}

/// One BGRL epoch: two corrupted views, symmetric bootstrap against the EMA
/// target, online-encoder gradients staged for the engine.
struct BgrlStep<'a> {
    config: &'a BgrlConfig,
    g: &'a CsrGraph,
    x: &'a Matrix,
    cfg: &'a TrainConfig,
    adj_orig: SparseMatrix,
    online: GcnEncoder,
    target: GcnEncoder,
    predictor: Mlp,
    opt: Adam,
    train_rng: SeedRng,
    ws1: GcnWorkspace,
    ws2: GcnWorkspace,
    pws1: MlpWorkspace,
    pws2: MlpWorkspace,
    dp1: Matrix,
    dp2: Matrix,
}

impl EpochStep for BgrlStep<'_> {
    fn epoch(&mut self, cx: &mut EpochCtx<'_>) -> EpochOutcome {
        let g1 = uniform::drop_edges_uniform(self.g, self.config.drop_edge.0, &mut self.train_rng);
        let g2 = uniform::drop_edges_uniform(self.g, self.config.drop_edge.1, &mut self.train_rng);
        let mut x1 =
            uniform::mask_feature_dims(self.x, self.config.mask_feat.0, &mut self.train_rng);
        let x2 = uniform::mask_feature_dims(self.x, self.config.mask_feat.1, &mut self.train_rng);
        cx.fault.corrupt_features(cx.epoch, &mut x1);
        let a1 = norm::normalized_adjacency(&g1);
        let a2 = norm::normalized_adjacency(&g2);
        self.online.forward_with(&a1, &x1, &mut self.ws1);
        self.online.forward_with(&a2, &x2, &mut self.ws2);
        let t1 = self.target.embed(&a1, &x1);
        let t2 = self.target.embed(&a2, &x2);
        // Symmetric bootstrap: predict the other branch's target. The
        // predictor steps inside the epoch, before the guard verdict: on a
        // retry only the encoder update is discarded (as before).
        let la = bootstrap_step(
            &mut self.predictor,
            self.ws1.output(),
            &t2,
            cx.lr,
            &mut self.pws1,
            &mut self.dp1,
        );
        let lb = bootstrap_step(
            &mut self.predictor,
            self.ws2.output(),
            &t1,
            cx.lr,
            &mut self.pws2,
            &mut self.dp2,
        );
        self.online
            .backward_with(&a1, &mut self.ws1, self.pws1.d_input());
        self.online
            .backward_with(&a2, &mut self.ws2, self.pws2.d_input());
        for (acc, g) in self.ws1.grads_mut().iter_mut().zip(self.ws2.grads()) {
            acc.axpy(1.0, g);
        }
        let embeddings_bad = cx
            .guard
            .embeddings_bad(&[self.ws1.output(), self.ws2.output()]);
        EpochOutcome::Step {
            loss: 0.5 * (la + lb),
            embeddings_bad,
        }
    }

    fn grads_mut(&mut self) -> &mut [Matrix] {
        self.ws1.grads_mut()
    }

    fn apply(&mut self, epoch: usize, lr: f32, _loss: f32) {
        self.opt.lr = lr;
        self.opt.step(self.online.params_mut(), self.ws1.grads());
        let decay = ema::annealed_decay(self.config.ema_decay, epoch, self.cfg.epochs);
        ema::ema_update(self.target.params_mut(), self.online.params(), decay);
    }

    fn embed(&mut self) -> Matrix {
        self.online.embed(&self.adj_orig, self.x)
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
        let adj = norm::normalized_adjacency(g);
        let dims = cfg.encoder_dims(x.cols());
        let online = GcnEncoder::new(&dims, &mut rng.fork("online"));
        let target = online.clone();
        let predictor = Mlp::new(
            cfg.embed_dim,
            cfg.embed_dim * 2,
            cfg.embed_dim,
            &mut rng.fork("pred"),
        );
        let opt = Adam::with_weight_decay(cfg.lr, cfg.weight_decay);
        driver.run(&mut AfgrlStep {
            config: &self.config,
            g,
            x,
            cfg,
            adj,
            online,
            target,
            predictor,
            opt,
            ws: GcnWorkspace::new(),
            pws: MlpWorkspace::new(),
            dp: Matrix::default(),
        })
    }
}

/// One AFGRL epoch: augmentation-free bootstrap against adaptive positives
/// in the EMA target's embedding space.
struct AfgrlStep<'a> {
    config: &'a BgrlConfig,
    g: &'a CsrGraph,
    x: &'a Matrix,
    cfg: &'a TrainConfig,
    adj: SparseMatrix,
    online: GcnEncoder,
    target: GcnEncoder,
    predictor: Mlp,
    opt: Adam,
    ws: GcnWorkspace,
    pws: MlpWorkspace,
    dp: Matrix,
}

impl EpochStep for AfgrlStep<'_> {
    fn epoch(&mut self, cx: &mut EpochCtx<'_>) -> EpochOutcome {
        self.online.forward_with(&self.adj, self.x, &mut self.ws);
        let t = self.target.embed(&self.adj, self.x);
        let positives = afgrl_positive_targets(self.g, &t, self.config.knn);
        let l = bootstrap_step(
            &mut self.predictor,
            self.ws.output(),
            &positives,
            cx.lr,
            &mut self.pws,
            &mut self.dp,
        );
        self.online
            .backward_with(&self.adj, &mut self.ws, self.pws.d_input());
        let embeddings_bad = cx.guard.embeddings_bad(&[self.ws.output()]);
        EpochOutcome::Step {
            loss: l,
            embeddings_bad,
        }
    }

    fn grads_mut(&mut self) -> &mut [Matrix] {
        self.ws.grads_mut()
    }

    fn apply(&mut self, epoch: usize, lr: f32, _loss: f32) {
        self.opt.lr = lr;
        self.opt.step(self.online.params_mut(), self.ws.grads());
        let decay = ema::annealed_decay(self.config.ema_decay, epoch, self.cfg.epochs);
        ema::ema_update(self.target.params_mut(), self.online.params(), decay);
    }

    fn embed(&mut self) -> Matrix {
        self.online.embed(&self.adj, self.x)
    }
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
