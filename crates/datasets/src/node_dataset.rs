//! A node-classification dataset: one graph, features, labels.

use crate::registry::DatasetSpec;
use crate::stream::{StreamingSbm, DEFAULT_SHARD_DRAWS};
use crate::synth;
use e2gcl_graph::{generators, CsrGraph};
use e2gcl_linalg::{Matrix, SeedRng};
use serde::{Deserialize, Serialize};

/// One attributed, labelled graph (the `G(V, A, X)` + `Y` of the paper).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct NodeDataset {
    /// Analog name this dataset was generated from.
    pub name: String,
    /// Undirected structure `A`.
    pub graph: CsrGraph,
    /// Node features `X` (`|V| x d_x`, binary).
    pub features: Matrix,
    /// Ground-truth class per node (used only by decoders/evaluation, never
    /// by contrastive pre-training).
    pub labels: Vec<usize>,
    /// Number of classes.
    pub num_classes: usize,
}

impl NodeDataset {
    /// Generates the analog described by `spec` at `scale` (fraction of
    /// `sim_nodes`, clamped to at least 8 per class) with the given seed.
    pub fn generate(spec: &DatasetSpec, scale: f64, seed: u64) -> NodeDataset {
        let mut rng = SeedRng::new(seed ^ 0x0da7_a5e7);
        let n = ((spec.sim_nodes as f64 * scale).round() as usize).max(spec.sim_classes * 8);
        let labels = synth::imbalanced_labels(n, spec.sim_classes, &mut rng.fork("labels"));
        let theta = generators::pareto_theta(n, spec.degree_tail_shape, &mut rng.fork("theta"));
        let graph = if spec.streaming {
            // Million-node tier: sharded stream replay keeps peak memory at
            // three flat CSR-sized arrays (see `crate::stream`).
            StreamingSbm {
                labels: &labels,
                num_classes: spec.sim_classes,
                target_avg_degree: spec.sim_avg_degree,
                p_in: spec.homophily,
                theta: &theta,
                adjacent_bias: spec.class_confusion,
                draws_per_shard: DEFAULT_SHARD_DRAWS,
            }
            .build(&mut rng.fork("structure"))
        } else {
            generators::dc_sbm_with_confusion(
                &labels,
                spec.sim_classes,
                spec.sim_avg_degree,
                spec.homophily,
                &theta,
                spec.class_confusion,
                &mut rng.fork("structure"),
            )
        };
        let features = synth::class_features(
            &labels,
            spec.sim_classes,
            spec.sim_features,
            spec.feature_signal,
            spec.feature_noise,
            spec.feature_mismatch,
            &mut rng.fork("features"),
        );
        // Irreducible label ambiguity: flip a fraction of *reported* labels
        // to an adjacent class after structure/features are fixed.
        let labels = {
            let mut noisy = labels;
            let mut noise_rng = rng.fork("label-noise");
            let k = spec.sim_classes;
            if k > 1 && spec.label_noise > 0.0 {
                for lbl in &mut noisy {
                    if noise_rng.bernoulli(spec.label_noise) {
                        *lbl = if k == 2 || noise_rng.bernoulli(0.5) {
                            (*lbl + 1) % k
                        } else {
                            (*lbl + k - 1) % k
                        };
                    }
                }
            }
            noisy
        };
        NodeDataset {
            name: spec.name.to_string(),
            graph,
            features,
            labels,
            num_classes: spec.sim_classes,
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.graph.num_nodes()
    }

    /// Feature dimension.
    pub fn feature_dim(&self) -> usize {
        self.features.cols()
    }

    /// Measured homophily: fraction of edges whose endpoints share a label.
    pub fn edge_homophily(&self) -> f64 {
        let mut same = 0usize;
        let mut total = 0usize;
        for (u, v) in self.graph.edges() {
            total += 1;
            if self.labels[u] == self.labels[v] {
                same += 1;
            }
        }
        if total == 0 {
            0.0
        } else {
            same as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::spec;

    #[test]
    fn cora_sim_matches_spec() {
        let d = NodeDataset::generate(&spec("cora-sim").unwrap(), 1.0, 0);
        assert_eq!(d.num_nodes(), 2708);
        assert_eq!(d.feature_dim(), 512);
        assert_eq!(d.num_classes, 7);
        let avg = d.graph.avg_degree();
        assert!((avg - 3.89).abs() < 1.0, "avg degree {avg}");
        d.graph.validate().unwrap();
    }

    #[test]
    fn homophily_near_target() {
        let d = NodeDataset::generate(&spec("cora-sim").unwrap(), 1.0, 1);
        let h = d.edge_homophily();
        assert!(h > 0.75, "homophily {h}");
    }

    #[test]
    fn scale_shrinks_graph() {
        let d = NodeDataset::generate(&spec("cora-sim").unwrap(), 0.25, 2);
        assert!((d.num_nodes() as i64 - 677).abs() <= 1);
    }

    #[test]
    fn tiny_scale_clamps_to_class_floor() {
        let s = spec("cora-sim").unwrap();
        let d = NodeDataset::generate(&s, 0.0001, 3);
        assert!(d.num_nodes() >= s.sim_classes * 8);
        for c in 0..s.sim_classes {
            assert!(d.labels.contains(&c));
        }
    }

    #[test]
    fn streaming_spec_generates_valid_deterministic_graphs() {
        let s = spec("products-sim-1m").unwrap();
        assert!(s.streaming, "the 1M tier must route through the streamer");
        // 0.002 of a million nodes: big enough to measure degree, small
        // enough for a unit test.
        let a = NodeDataset::generate(&s, 0.002, 5);
        assert_eq!(a.num_nodes(), 2000);
        assert_eq!(a.num_classes, s.sim_classes);
        a.graph.validate().unwrap();
        // Duplicate edges collapse, and at 2k nodes the heavy-tailed hubs
        // absorb many repeats — the measured degree sits below the target.
        let avg = a.graph.avg_degree();
        assert!(
            avg > s.sim_avg_degree * 0.6 && avg <= s.sim_avg_degree + 1.0,
            "avg degree {avg}"
        );
        let b = NodeDataset::generate(&s, 0.002, 5);
        assert_eq!(a.graph, b.graph);
        assert_eq!(a.features, b.features);
        let c = NodeDataset::generate(&s, 0.002, 6);
        assert_ne!(a.graph, c.graph);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = NodeDataset::generate(&spec("citeseer-sim").unwrap(), 0.2, 42);
        let b = NodeDataset::generate(&spec("citeseer-sim").unwrap(), 0.2, 42);
        assert_eq!(a.graph, b.graph);
        assert_eq!(a.features, b.features);
        assert_eq!(a.labels, b.labels);
        let c = NodeDataset::generate(&spec("citeseer-sim").unwrap(), 0.2, 43);
        assert_ne!(a.graph, c.graph);
    }
}
