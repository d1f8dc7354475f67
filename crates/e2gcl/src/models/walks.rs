//! DeepWalk (Perozzi et al. 2014) and Node2Vec (Grover & Leskovec 2016).
//!
//! Random-walk + skip-gram-with-negative-sampling embeddings. Structure
//! only: these are the "traditional unsupervised" baselines the paper uses
//! to show the value of incorporating node features.

use crate::config::TrainConfig;
use crate::engine::{EpochCtx, EpochDriver, EpochOutcome, EpochStep};
use crate::models::{ContrastiveModel, PretrainResult};
use e2gcl_graph::CsrGraph;
use e2gcl_linalg::{activations, ops, Matrix, SeedRng, TrainError};
use std::time::Instant;

/// Walk and skip-gram hyperparameters.
#[derive(Clone, Debug)]
pub struct WalkConfig {
    /// Walks started per node per epoch.
    pub walks_per_node: usize,
    /// Walk length.
    pub walk_length: usize,
    /// Skip-gram window size.
    pub window: usize,
    /// Negative samples per positive pair.
    pub negatives: usize,
    /// SGD learning rate.
    pub lr: f32,
    /// Node2Vec return parameter `p` (1.0 = DeepWalk).
    pub p: f32,
    /// Node2Vec in-out parameter `q` (1.0 = DeepWalk).
    pub q: f32,
}

impl Default for WalkConfig {
    fn default() -> Self {
        Self {
            walks_per_node: 4,
            walk_length: 20,
            window: 5,
            negatives: 2,
            lr: 0.025,
            p: 1.0,
            q: 1.0,
        }
    }
}

/// DeepWalk / Node2Vec model (selected by `p`, `q`).
#[derive(Clone, Debug)]
pub struct WalkModel {
    /// Walk configuration.
    pub config: WalkConfig,
    name: &'static str,
}

impl WalkModel {
    /// Uniform random walks.
    pub fn deepwalk() -> Self {
        Self {
            config: WalkConfig::default(),
            name: "DeepWalk",
        }
    }

    /// Biased second-order walks (default `p = 0.5`, `q = 2.0` favours
    /// BFS-like local exploration).
    pub fn node2vec() -> Self {
        Self {
            config: WalkConfig {
                p: 0.5,
                q: 2.0,
                ..WalkConfig::default()
            },
            name: "Node2Vec",
        }
    }

    /// Generates one walk from `start`.
    fn walk(&self, g: &CsrGraph, start: usize, rng: &mut SeedRng) -> Vec<usize> {
        let mut walk = Vec::with_capacity(self.config.walk_length);
        walk.push(start);
        let mut prev: Option<usize> = None;
        let mut cur = start;
        for _ in 1..self.config.walk_length {
            let ns = g.neighbors(cur);
            if ns.is_empty() {
                break;
            }
            let next = if (self.config.p - 1.0).abs() < 1e-6 && (self.config.q - 1.0).abs() < 1e-6 {
                ns[rng.below(ns.len())] as usize
            } else {
                // Node2Vec second-order bias.
                let weights: Vec<f32> = ns
                    .iter()
                    .map(|&t| {
                        let t = t as usize;
                        match prev {
                            Some(p_node) if t == p_node => 1.0 / self.config.p,
                            Some(p_node) if g.has_edge(p_node, t) => 1.0,
                            Some(_) => 1.0 / self.config.q,
                            None => 1.0,
                        }
                    })
                    .collect();
                ns[rng.weighted_index(&weights)] as usize
            };
            walk.push(next);
            prev = Some(cur);
            cur = next;
        }
        walk
    }
}

impl ContrastiveModel for WalkModel {
    fn name(&self) -> String {
        self.name.to_string()
    }

    fn pretrain(
        &self,
        g: &CsrGraph,
        _x: &Matrix,
        cfg: &TrainConfig,
        rng: &mut SeedRng,
    ) -> Result<PretrainResult, TrainError> {
        crate::models::ensure_full_graph_only(cfg, &self.name())?;
        crate::models::ensure_full_loss_only(cfg, &self.name())?;
        let start = Instant::now();
        let n = g.num_nodes();
        let d = cfg.embed_dim;
        let mut rng = rng.fork("walks");
        let mut w_in = Matrix::zeros(n, d);
        for v in w_in.as_mut_slice() {
            *v = (rng.uniform() - 0.5) / d as f32;
        }
        let w_out = Matrix::zeros(n, d);
        // Degree-based negative-sampling table.
        let neg_weights: Vec<f32> = (0..n)
            .map(|v| (g.degree(v) as f32 + 1.0).powf(0.75))
            .collect();
        let order: Vec<usize> = (0..n).collect();
        let mut step = WalkStep {
            model: self,
            g,
            rng,
            w_in,
            w_out,
            neg_weights,
            order,
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

/// One DeepWalk / Node2Vec epoch: walks from every node with in-place SGNS
/// updates. There are no deferred gradients — the update *is* the epoch —
/// so `grads_mut` is empty, `apply` is a no-op, and `discard_supported` is
/// `false` (a retry would replay the bad updates on top of themselves; the
/// guard's halved lr still applies to later epochs).
struct WalkStep<'a> {
    model: &'a WalkModel,
    g: &'a CsrGraph,
    rng: SeedRng,
    w_in: Matrix,
    w_out: Matrix,
    neg_weights: Vec<f32>,
    order: Vec<usize>,
}

impl EpochStep for WalkStep<'_> {
    fn epoch(&mut self, cx: &mut EpochCtx<'_>) -> EpochOutcome {
        let conf = &self.model.config;
        let lr = cx.lr;
        let mut epoch_loss = 0.0f64;
        let mut pairs = 0usize;
        let mut order = std::mem::take(&mut self.order);
        self.rng.shuffle(&mut order);
        for &startv in &order {
            for _ in 0..conf.walks_per_node {
                let walk = self.model.walk(self.g, startv, &mut self.rng);
                for (i, &center) in walk.iter().enumerate() {
                    let lo = i.saturating_sub(conf.window);
                    let hi = (i + conf.window + 1).min(walk.len());
                    for &ctx in &walk[lo..hi] {
                        if ctx == center {
                            continue;
                        }
                        // SGNS update for (center -> ctx).
                        let score = ops::dot(self.w_in.row(center), self.w_out.row(ctx));
                        let p = activations::sigmoid(score);
                        epoch_loss -= f64::from((p.max(1e-7)).ln());
                        pairs += 1;
                        let gpos = lr * (1.0 - p);
                        let ctx_row = self.w_out.row(ctx).to_vec();
                        let cen_row = self.w_in.row(center).to_vec();
                        ops::axpy_slice(self.w_in.row_mut(center), gpos, &ctx_row);
                        ops::axpy_slice(self.w_out.row_mut(ctx), gpos, &cen_row);
                        for _ in 0..conf.negatives {
                            let negv = self.rng.weighted_index(&self.neg_weights);
                            if negv == center {
                                continue;
                            }
                            let score = ops::dot(self.w_in.row(center), self.w_out.row(negv));
                            let p = activations::sigmoid(score);
                            let gneg = -lr * p;
                            let neg_row = self.w_out.row(negv).to_vec();
                            let cen_row = self.w_in.row(center).to_vec();
                            ops::axpy_slice(self.w_in.row_mut(center), gneg, &neg_row);
                            ops::axpy_slice(self.w_out.row_mut(negv), gneg, &cen_row);
                        }
                    }
                }
            }
        }
        self.order = order;
        let embeddings_bad = cx.guard.embeddings_bad(&[&self.w_in]);
        EpochOutcome::Step {
            loss: (epoch_loss / pairs.max(1) as f64) as f32,
            embeddings_bad,
        }
    }

    fn grads_mut(&mut self) -> &mut [Matrix] {
        &mut []
    }

    fn base_lr(&self, _cfg: &TrainConfig) -> f32 {
        self.model.config.lr
    }

    fn discard_supported(&self) -> bool {
        false
    }

    fn apply(&mut self, _epoch: usize, _lr: f32, _loss: f32) {}

    fn embed(&mut self) -> Matrix {
        self.w_in.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use e2gcl_graph::generators;

    fn two_cliques() -> CsrGraph {
        // Two 10-cliques joined by a single bridge.
        let mut edges = Vec::new();
        for base in [0usize, 10] {
            for i in 0..10 {
                for j in (i + 1)..10 {
                    edges.push((base + i, base + j));
                }
            }
        }
        edges.push((0, 10));
        CsrGraph::from_edges(20, &edges)
    }

    #[test]
    fn walks_stay_on_graph() {
        let g = two_cliques();
        let model = WalkModel::deepwalk();
        let mut rng = SeedRng::new(0);
        for v in 0..20 {
            let w = model.walk(&g, v, &mut rng);
            assert_eq!(w[0], v);
            for pair in w.windows(2) {
                assert!(g.has_edge(pair[0], pair[1]), "invalid step {pair:?}");
            }
        }
    }

    #[test]
    fn walk_stops_at_isolated_node() {
        let g = CsrGraph::from_edges(3, &[(1, 2)]);
        let model = WalkModel::deepwalk();
        let w = model.walk(&g, 0, &mut SeedRng::new(1));
        assert_eq!(w, vec![0]);
    }

    #[test]
    fn deepwalk_separates_communities() {
        let g = two_cliques();
        let x = Matrix::zeros(20, 1);
        let cfg = TrainConfig {
            epochs: 6,
            embed_dim: 8,
            ..Default::default()
        };
        let out = WalkModel::deepwalk()
            .pretrain(&g, &x, &cfg, &mut SeedRng::new(2))
            .unwrap();
        // Same-clique cosine should beat cross-clique cosine on average.
        let h = &out.embeddings;
        let mut same = 0.0;
        let mut cross = 0.0;
        let mut cs = 0;
        let mut cc = 0;
        for i in 0..20 {
            for j in (i + 1)..20 {
                let c = ops::cosine(h.row(i), h.row(j));
                if (i < 10) == (j < 10) {
                    same += c;
                    cs += 1;
                } else {
                    cross += c;
                    cc += 1;
                }
            }
        }
        assert!(
            same / cs as f32 > cross / cc as f32,
            "communities not separated"
        );
    }

    #[test]
    fn node2vec_runs_on_random_graph() {
        let mut rng = SeedRng::new(3);
        let g = generators::erdos_renyi(40, 0.15, &mut rng);
        let x = Matrix::zeros(40, 1);
        let cfg = TrainConfig {
            epochs: 2,
            embed_dim: 8,
            ..Default::default()
        };
        let out = WalkModel::node2vec()
            .pretrain(&g, &x, &cfg, &mut SeedRng::new(4))
            .unwrap();
        assert!(!out.embeddings.has_non_finite());
        assert_eq!(out.embeddings.shape(), (40, 8));
    }
}
