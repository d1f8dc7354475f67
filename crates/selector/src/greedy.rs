//! Algorithm 2: sampling-based greedy coreset selection.

use crate::coreset::CoresetObjective;
use crate::kmeans::{kmeans, Clustering};
use crate::{assign_weights, NodeSelector, Selection};
use e2gcl_graph::{norm, CsrGraph};
use e2gcl_linalg::{Matrix, SeedRng};
use rayon::prelude::*;

/// Configuration of the E²GCL node selector (Alg. 2).
#[derive(Clone, Debug)]
pub struct GreedyConfig {
    /// GCN depth `L` used for the raw aggregate `R = A_n^L X`.
    pub layers: usize,
    /// Number of KMeans clusters `n_c`. `0` means auto: `clamp(n/32, 60,
    /// 400)`, which keeps per-cluster greedy work flat as graphs grow.
    pub num_clusters: usize,
    /// Candidate sample size `n_s` per greedy step. `0` means auto:
    /// `max(32, (n/k)·ln(1/ε))` with ε = 0.05 — the Theorem-3 prescription
    /// (the paper tunes a fixed `n_s` in `[100, 1000]` instead; pass one
    /// explicitly to reproduce that).
    pub sample_size: usize,
    /// Lloyd iterations for the clustering step.
    pub kmeans_iters: usize,
}

impl Default for GreedyConfig {
    fn default() -> Self {
        Self {
            layers: 2,
            num_clusters: 0,
            sample_size: 0,
            kmeans_iters: 15,
        }
    }
}

/// The E²GCL representative node selector.
#[derive(Clone, Debug, Default)]
pub struct GreedySelector {
    /// Algorithm parameters.
    pub config: GreedyConfig,
}

impl GreedySelector {
    /// Selector with explicit configuration.
    pub fn new(config: GreedyConfig) -> Self {
        Self { config }
    }

    /// Runs Alg. 2 on a precomputed raw aggregate (lets callers reuse `R`).
    pub fn select_from_aggregate(
        &self,
        repr: &Matrix,
        budget: usize,
        rng: &mut SeedRng,
    ) -> Selection {
        let n = repr.rows();
        let budget = budget.min(n);
        if budget == 0 {
            return Selection {
                nodes: Vec::new(),
                weights: Vec::new(),
            };
        }
        let n_c = if self.config.num_clusters == 0 {
            (n / 32).clamp(60, 400)
        } else {
            self.config.num_clusters
        };
        let clustering: Clustering = kmeans(
            repr,
            n_c.min(n),
            self.config.kmeans_iters,
            &mut rng.fork("kmeans"),
        );
        let mut objective = CoresetObjective::new(repr, &clustering);
        // Unselected nodes, ascending: the same list a fresh
        // `(0..n).filter(unselected)` would give, kept across picks.
        let mut remaining: Vec<usize> = (0..n).collect();
        let mut sample_rng = rng.fork("sampling");
        let base_n_s = if self.config.sample_size == 0 {
            // Theorem 3: n_s = (n/k)·ln(1/ε) candidates suffice for the
            // 1 − 1/e − ε ratio; ε = 0.05.
            (((n as f64 / budget as f64) * 3.0).ceil() as usize).max(32)
        } else {
            self.config.sample_size
        };
        // Parallel gain evaluation only pays when the per-step work
        // amortises rayon's fork/join cost (~1ms).
        let avg_cluster = n / n_c.min(n).max(1);
        let step_work = base_n_s * (avg_cluster * repr.cols() + n_c);
        let parallel_gains = step_work >= 4_000_000;
        while objective.selected().len() < budget && !remaining.is_empty() {
            let n_s = base_n_s.min(remaining.len());
            let candidate_idx = sample_rng.sample_without_replacement(remaining.len(), n_s);
            let candidates: Vec<usize> = candidate_idx.into_iter().map(|i| remaining[i]).collect();
            // Marginal-gain evaluation (Alg. 2, lines 5-7). Parallelism only
            // pays once the per-step work amortises rayon's fork/join cost;
            // on small graphs the serial loop is several times faster.
            //
            // Deterministic tie-break: on equal gain the LOWEST node id wins.
            // `pick_best` is associative and order-insensitive for distinct
            // ids, and the rayon stand-in reduces sequentially in item order,
            // so the argmax — and with it the whole selection — is
            // bit-identical across `RAYON_NUM_THREADS` (regression test:
            // `thread_invariance.rs`). Sub-quadratic loss strategies rely on
            // this when re-selecting negatives every epoch.
            let pick_best = |a: (usize, f64), b: (usize, f64)| {
                if b.1 > a.1 || (b.1 == a.1 && b.0 < a.0) {
                    b
                } else {
                    a
                }
            };
            let best = if parallel_gains {
                candidates
                    .par_iter()
                    .map(|&v| (v, objective.gain(v)))
                    .reduce(|| (usize::MAX, f64::NEG_INFINITY), pick_best)
            } else {
                candidates
                    .iter()
                    .map(|&v| (v, objective.gain(v)))
                    .fold((usize::MAX, f64::NEG_INFINITY), pick_best)
            };
            // Every gain NaN (non-finite aggregates): no candidate beats the
            // sentinel, so fall back to the tie-break's choice, the lowest id.
            let v_star = if best.0 == usize::MAX {
                candidates
                    .iter()
                    .copied()
                    .min()
                    .expect("n_s >= 1 candidates")
            } else {
                best.0
            };
            objective.add(v_star);
            if let Ok(at) = remaining.binary_search(&v_star) {
                remaining.remove(at);
            }
        }
        let nodes = objective.selected().to_vec();
        let weights = assign_weights(repr, &nodes);
        Selection { nodes, weights }
    }
}

impl NodeSelector for GreedySelector {
    fn name(&self) -> &'static str {
        "E2GCL-Greedy"
    }

    fn select(&self, graph: &CsrGraph, x: &Matrix, budget: usize, rng: &mut SeedRng) -> Selection {
        let repr = norm::raw_aggregate(graph, x, self.config.layers);
        self.select_from_aggregate(&repr, budget, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use e2gcl_graph::generators;

    /// A graph with two dense communities and distinctive features.
    fn clustered_graph(seed: u64) -> (CsrGraph, Matrix, Vec<usize>) {
        let mut rng = SeedRng::new(seed);
        let n = 120;
        let labels: Vec<usize> = (0..n).map(|v| v / 60).collect();
        let theta = vec![1.0f32; n];
        let g = generators::dc_sbm(&labels, 2, 6.0, 0.95, &theta, &mut rng);
        let mut x = Matrix::zeros(n, 4);
        for (v, &label) in labels.iter().enumerate() {
            x.set(v, label, 1.0);
            x.set(v, 2 + label, rng.uniform());
        }
        (g, x, labels)
    }

    #[test]
    fn respects_budget_and_weights() {
        let (g, x, _) = clustered_graph(0);
        let sel = GreedySelector::default();
        let mut rng = SeedRng::new(1);
        let s = sel.select(&g, &x, 12, &mut rng);
        s.validate(g.num_nodes(), 12).unwrap();
        assert_eq!(s.nodes.len(), 12);
    }

    #[test]
    fn covers_both_communities() {
        let (g, x, labels) = clustered_graph(2);
        let sel = GreedySelector::new(GreedyConfig {
            num_clusters: 8,
            sample_size: 60,
            ..GreedyConfig::default()
        });
        let mut rng = SeedRng::new(3);
        let s = sel.select(&g, &x, 10, &mut rng);
        let picked: std::collections::HashSet<usize> = s.nodes.iter().map(|&v| labels[v]).collect();
        assert_eq!(picked.len(), 2, "both communities must be represented");
    }

    #[test]
    fn beats_random_on_exact_objective() {
        let (g, x, _) = clustered_graph(4);
        let repr = norm::raw_aggregate(&g, &x, 2);
        let sel = GreedySelector::new(GreedyConfig {
            num_clusters: 8,
            sample_size: 120,
            ..GreedyConfig::default()
        });
        let s = sel.select_from_aggregate(&repr, 8, &mut SeedRng::new(5));
        let greedy_cost = crate::coreset::exact_kmedoid_objective(&repr, &s.nodes);
        // Average several random selections.
        let mut rng = SeedRng::new(6);
        let mut random_cost = 0.0;
        let trials = 5;
        for _ in 0..trials {
            let r = rng.sample_without_replacement(g.num_nodes(), 8);
            random_cost += crate::coreset::exact_kmedoid_objective(&repr, &r);
        }
        random_cost /= trials as f64;
        assert!(
            greedy_cost < random_cost,
            "greedy {greedy_cost} should beat random {random_cost}"
        );
    }

    #[test]
    fn budget_larger_than_graph_selects_everything() {
        let (g, x, _) = clustered_graph(7);
        let sel = GreedySelector::default();
        let s = sel.select(&g, &x, 10_000, &mut SeedRng::new(8));
        assert_eq!(s.nodes.len(), g.num_nodes());
    }

    #[test]
    fn non_finite_aggregate_never_adds_the_sentinel() {
        // One infinite entry spreads through KMeans into every centre, so
        // every marginal gain is NaN and no candidate beats the argmax
        // sentinel; the loop must still pick real nodes.
        let (g, mut x, _) = clustered_graph(13);
        x.set(5, 0, f32::INFINITY);
        let repr = norm::raw_aggregate(&g, &x, 2);
        let s = GreedySelector::default().select_from_aggregate(&repr, 15, &mut SeedRng::new(14));
        assert_eq!(s.nodes.len(), 15);
        assert!(s.nodes.iter().all(|&v| v < g.num_nodes()));
    }

    #[test]
    fn zero_budget_empty_selection() {
        let (g, x, _) = clustered_graph(9);
        let s = GreedySelector::default().select(&g, &x, 0, &mut SeedRng::new(10));
        assert!(s.nodes.is_empty());
    }

    #[test]
    fn deterministic_given_seed() {
        let (g, x, _) = clustered_graph(11);
        let sel = GreedySelector::default();
        let a = sel.select(&g, &x, 10, &mut SeedRng::new(12));
        let b = sel.select(&g, &x, 10, &mut SeedRng::new(12));
        assert_eq!(a.nodes, b.nodes);
    }
}
