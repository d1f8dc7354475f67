//! Named dataset analogs and their target statistics.

use e2gcl_linalg::TrainError;
use serde::{Deserialize, Serialize};

/// Specification of one synthetic analog.
///
/// `paper_*` fields record the statistics the paper reports (Table III) for
/// the real dataset; `sim_*` fields are what we actually generate. The large
/// OGB graphs and very high-dimensional feature spaces are scaled down (see
/// `DESIGN.md` §1); everything else matches.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DatasetSpec {
    /// Analog name, e.g. `"cora-sim"`.
    pub name: &'static str,
    /// Name of the real dataset this stands in for.
    pub paper_name: &'static str,
    /// Node count reported in Table III.
    pub paper_nodes: usize,
    /// Edge count reported in Table III.
    pub paper_edges: usize,
    /// Average degree reported in Table III.
    pub paper_avg_degree: f64,
    /// Feature dimension reported in Table III.
    pub paper_features: usize,
    /// Class count reported in Table III.
    pub paper_classes: usize,

    /// Nodes we generate at `scale = 1.0`.
    pub sim_nodes: usize,
    /// Average degree we target.
    pub sim_avg_degree: f64,
    /// Feature dimension we generate.
    pub sim_features: usize,
    /// Class count we generate (matches the paper's).
    pub sim_classes: usize,
    /// Homophily: probability an edge endpoint stays in its community.
    pub homophily: f64,
    /// Pareto shape of the degree-propensity distribution (lower = heavier
    /// tail). Product/co-purchase graphs are heavier-tailed than citations.
    pub degree_tail_shape: f32,
    /// Probability a class-anchor feature bit is on for members.
    pub feature_signal: f32,
    /// Probability a background feature bit is on.
    pub feature_noise: f32,
    /// Fraction of nodes whose anchor features come from a ring-adjacent
    /// class (keeps raw features from being linearly separable, mirroring
    /// the paper's MLP ≪ GCN gap).
    pub feature_mismatch: f32,
    /// Probability a cross-class edge lands on a ring-adjacent class
    /// (category confusion; keeps dense graphs from saturating).
    pub class_confusion: f64,
    /// Fraction of nodes whose *reported* label is flipped to an adjacent
    /// class after generation — irreducible label ambiguity. Dense SBM
    /// graphs are separable by neighbourhood majority at any homophily, so
    /// this is what actually caps attainable accuracy, mirroring the real
    /// datasets' ~90% ceilings.
    pub label_noise: f32,
    /// Build the structure with the sharded streaming generator
    /// ([`crate::stream::StreamingSbm`]) instead of the in-memory DC-SBM.
    /// Set only on the million-node tier: the streaming path samples through
    /// prefix-sum tables, so its edge stream (while distributionally the
    /// same) is not bit-identical to the in-memory generator's.
    #[serde(default)]
    pub streaming: bool,
}

/// All node-classification analogs, in the paper's Table III order.
pub fn all_node_specs() -> Vec<DatasetSpec> {
    names()
        .iter()
        .map(|n| spec(n).expect("registry names are exhaustive"))
        .collect()
}

/// Looks up an analog spec by name.
///
/// Unknown names return [`TrainError::UnknownDataset`] carrying the valid
/// names, so callers (notably the CLI) can print them and exit cleanly.
pub fn spec(name: &str) -> Result<DatasetSpec, TrainError> {
    let base = DatasetSpec {
        name: "",
        paper_name: "",
        paper_nodes: 0,
        paper_edges: 0,
        paper_avg_degree: 0.0,
        paper_features: 0,
        paper_classes: 0,
        sim_nodes: 0,
        sim_avg_degree: 0.0,
        sim_features: 0,
        sim_classes: 0,
        homophily: 0.85,
        degree_tail_shape: 3.0,
        feature_signal: 0.22,
        feature_noise: 0.015,
        feature_mismatch: 0.4,
        class_confusion: 0.7,
        label_noise: 0.0,
        streaming: false,
    };
    match name {
        "cora-sim" => Ok(DatasetSpec {
            name: "cora-sim",
            paper_name: "Cora",
            paper_nodes: 2708,
            paper_edges: 5278,
            paper_avg_degree: 3.89,
            paper_features: 1433,
            paper_classes: 7,
            sim_nodes: 2708,
            sim_avg_degree: 3.89,
            sim_features: 512,
            sim_classes: 7,
            ..base
        }),
        "citeseer-sim" => Ok(DatasetSpec {
            name: "citeseer-sim",
            paper_name: "Citeseer",
            paper_nodes: 3327,
            paper_edges: 4552,
            paper_avg_degree: 2.74,
            paper_features: 3703,
            paper_classes: 6,
            sim_nodes: 3327,
            sim_avg_degree: 2.74,
            sim_features: 600,
            sim_classes: 6,
            // Citeseer is the sparsest, least homophilous of the set.
            homophily: 0.78,
            ..base
        }),
        "photo-sim" => Ok(DatasetSpec {
            name: "photo-sim",
            paper_name: "Photo",
            paper_nodes: 7650,
            paper_edges: 119_081,
            paper_avg_degree: 31.13,
            paper_features: 745,
            paper_classes: 8,
            sim_nodes: 7650,
            sim_avg_degree: 31.13,
            sim_features: 512,
            sim_classes: 8,
            degree_tail_shape: 2.2,
            homophily: 0.52,
            feature_mismatch: 0.3,
            label_noise: 0.07,
            ..base
        }),
        "computers-sim" => Ok(DatasetSpec {
            name: "computers-sim",
            paper_name: "Computers",
            paper_nodes: 13_752,
            paper_edges: 245_861,
            paper_avg_degree: 35.76,
            paper_features: 767,
            paper_classes: 10,
            sim_nodes: 13_752,
            sim_avg_degree: 35.76,
            sim_features: 512,
            sim_classes: 10,
            degree_tail_shape: 2.2,
            homophily: 0.5,
            feature_mismatch: 0.35,
            label_noise: 0.10,
            ..base
        }),
        "cs-sim" => Ok(DatasetSpec {
            name: "cs-sim",
            paper_name: "CS",
            paper_nodes: 18_333,
            paper_edges: 81_894,
            paper_avg_degree: 8.93,
            paper_features: 6805,
            paper_classes: 15,
            sim_nodes: 18_333,
            sim_avg_degree: 8.93,
            sim_features: 768,
            sim_classes: 15,
            homophily: 0.72,
            feature_mismatch: 0.25,
            label_noise: 0.055,
            ..base
        }),
        "arxiv-sim" => Ok(DatasetSpec {
            name: "arxiv-sim",
            paper_name: "Arxiv",
            paper_nodes: 169_343,
            paper_edges: 1_166_243,
            paper_avg_degree: 13.77,
            paper_features: 128,
            paper_classes: 40,
            // Scaled 169k -> 20k nodes (DESIGN.md §1).
            sim_nodes: 20_000,
            sim_avg_degree: 13.77,
            sim_features: 128,
            sim_classes: 40,
            homophily: 0.6,
            ..base
        }),
        "products-sim" => Ok(DatasetSpec {
            name: "products-sim",
            paper_name: "Products",
            paper_nodes: 1_569_960,
            paper_edges: 264_339_468,
            paper_avg_degree: 336.74,
            paper_features: 200,
            paper_classes: 107,
            // Scaled 1.57M -> 50k nodes, degree 336 -> 40 (DESIGN.md §1).
            sim_nodes: 50_000,
            sim_avg_degree: 40.0,
            sim_features: 100,
            sim_classes: 47,
            homophily: 0.55,
            degree_tail_shape: 2.0,
            ..base
        }),
        "products-sim-1m" => Ok(DatasetSpec {
            name: "products-sim-1m",
            paper_name: "Products",
            paper_nodes: 1_569_960,
            paper_edges: 264_339_468,
            paper_avg_degree: 336.74,
            paper_features: 200,
            paper_classes: 107,
            // The million-node tier for mini-batch scaling runs
            // (DESIGN.md §13): node count matches the paper's order of
            // magnitude; degree 336 -> 32 keeps a full generation run
            // (~16M edge draws) tractable on one core.
            sim_nodes: 1_000_000,
            sim_avg_degree: 32.0,
            sim_features: 100,
            sim_classes: 47,
            homophily: 0.55,
            degree_tail_shape: 2.0,
            streaming: true,
            ..base
        }),
        other => Err(TrainError::UnknownDataset {
            name: other.to_string(),
            valid: names().iter().map(|s| s.to_string()).collect(),
        }),
    }
}

/// Valid analog names accepted by [`spec`].
pub fn names() -> Vec<&'static str> {
    vec![
        "cora-sim",
        "citeseer-sim",
        "photo-sim",
        "computers-sim",
        "cs-sim",
        "arxiv-sim",
        "products-sim",
        "products-sim-1m",
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_name_resolves() {
        for n in names() {
            let s = spec(n).unwrap();
            assert_eq!(s.name, n);
            assert!(s.sim_nodes > 0);
            assert!(s.sim_classes > 1);
            assert!(s.sim_features > 0);
            // Dense co-purchase analogs sit near 0.5 homophily (their
            // difficulty comes from label ambiguity, not structure).
            assert!(s.homophily >= 0.5 && s.homophily < 1.0);
            assert!((0.0..0.5).contains(&s.label_noise));
            assert!((0.0..=1.0).contains(&s.class_confusion));
        }
    }

    #[test]
    fn unknown_name_errors_and_lists_valid_names() {
        let err = spec("imagenet").unwrap_err();
        match &err {
            TrainError::UnknownDataset { name, valid } => {
                assert_eq!(name, "imagenet");
                assert_eq!(valid.len(), names().len());
            }
            other => panic!("wrong variant: {other:?}"),
        }
        assert!(err.to_string().contains("cora-sim"), "{err}");
    }

    #[test]
    fn small_graphs_match_paper_counts() {
        for n in [
            "cora-sim",
            "citeseer-sim",
            "photo-sim",
            "computers-sim",
            "cs-sim",
        ] {
            let s = spec(n).unwrap();
            assert_eq!(
                s.sim_nodes, s.paper_nodes,
                "{n} node count should match paper"
            );
            assert_eq!(
                s.sim_classes, s.paper_classes,
                "{n} class count should match paper"
            );
        }
    }
}
