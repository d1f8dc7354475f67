//! Failure-injection and degenerate-input tests: the pipeline must survive
//! pathological graphs without panicking or producing NaNs.

use e2gcl::eval;
use e2gcl::prelude::*;
use e2gcl_graph::norm;
use e2gcl_views::{ViewConfig, ViewGenerator};

fn tiny_cfg() -> TrainConfig {
    TrainConfig {
        epochs: 3,
        batch_size: 16,
        ..Default::default()
    }
}

/// Fully disconnected graph: every node isolated.
#[test]
fn edgeless_graph_trains_without_nans() {
    let g = CsrGraph::from_edges(30, &[]);
    let mut x = Matrix::zeros(30, 8);
    for v in 0..30 {
        x.set(v, v % 8, 1.0);
    }
    let model = E2gclModel::default();
    let out = model
        .pretrain(&g, &x, &tiny_cfg(), &mut SeedRng::new(0))
        .unwrap();
    assert_eq!(out.embeddings.rows(), 30);
    assert!(!out.embeddings.has_non_finite());
}

/// All-zero features: nothing to perturb, nothing to aggregate.
#[test]
fn zero_features_survive_pipeline() {
    let g = CsrGraph::from_edges(20, &[(0, 1), (1, 2), (5, 6), (10, 11)]);
    let x = Matrix::zeros(20, 4);
    let model = E2gclModel::default();
    let out = model
        .pretrain(&g, &x, &tiny_cfg(), &mut SeedRng::new(1))
        .unwrap();
    assert!(!out.embeddings.has_non_finite());
    // View generation on zero features is a no-op on X.
    let gen = ViewGenerator::new(&g, &x, ViewConfig::default(), &mut SeedRng::new(2));
    let (_, vx) = gen.sample_global_view(1.0, 1.4, &mut SeedRng::new(3));
    assert_eq!(vx, x);
}

/// Two-node graph: the smallest graph with an edge.
#[test]
fn two_node_graph() {
    let g = CsrGraph::from_edges(2, &[(0, 1)]);
    let x = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
    let model = E2gclModel::new(E2gclConfig {
        node_ratio: 1.0,
        ..Default::default()
    });
    let cfg = TrainConfig {
        epochs: 2,
        batch_size: 2,
        ..Default::default()
    };
    let out = model.pretrain(&g, &x, &cfg, &mut SeedRng::new(4)).unwrap();
    assert_eq!(out.embeddings.rows(), 2);
    assert!(!out.embeddings.has_non_finite());
}

/// Budget of a single node.
#[test]
fn budget_one_node() {
    let d = NodeDataset::generate(&spec("cora-sim").unwrap(), 0.05, 5);
    let model = E2gclModel::new(E2gclConfig {
        node_ratio: 1.0 / d.num_nodes() as f64,
        ..Default::default()
    });
    let sel = model.select_nodes(&d.graph, &d.features, &mut SeedRng::new(6));
    assert_eq!(sel.nodes.len(), 1);
    assert!((sel.weights[0] - d.num_nodes() as f32).abs() < 1.0);
    // Training on a single anchor must not panic (negatives may be empty).
    let out = model
        .pretrain(&d.graph, &d.features, &tiny_cfg(), &mut SeedRng::new(7))
        .unwrap();
    assert!(!out.embeddings.has_non_finite());
}

/// A graph dominated by one giant hub (pathological degree distribution).
#[test]
fn hub_dominated_graph() {
    let n = 100;
    let edges: Vec<(usize, usize)> = (1..n).map(|v| (0, v)).collect();
    let g = CsrGraph::from_edges(n, &edges);
    let mut x = Matrix::zeros(n, 4);
    for v in 0..n {
        x.set(v, v % 4, 1.0);
    }
    let model = E2gclModel::default();
    let out = model
        .pretrain(&g, &x, &tiny_cfg(), &mut SeedRng::new(8))
        .unwrap();
    assert!(!out.embeddings.has_non_finite());
}

/// The probe handles a class that never appears in training data.
#[test]
fn probe_with_unseen_class() {
    let mut rng = SeedRng::new(9);
    let mut h = Matrix::zeros(40, 4);
    for v in h.as_mut_slice() {
        *v = rng.normal();
    }
    // Class 3 exists only in the test portion.
    let mut labels = vec![0usize; 40];
    for (i, l) in labels.iter_mut().enumerate() {
        *l = i % 3;
    }
    labels[39] = 3;
    let acc = eval::node_classification_accuracy(&h, &labels, 4, 0);
    assert!((0.0..=1.0).contains(&acc));
}

/// Mismatched scales between structure and features: huge feature values
/// must not produce NaNs anywhere (exp-capped edge scores, stable losses).
#[test]
fn extreme_feature_scale() {
    let d = NodeDataset::generate(&spec("cora-sim").unwrap(), 0.04, 10);
    let mut x = d.features.clone();
    x.scale(1e4);
    let model = E2gclModel::default();
    let out = model
        .pretrain(&d.graph, &x, &tiny_cfg(), &mut SeedRng::new(11))
        .unwrap();
    assert!(!out.embeddings.has_non_finite());
}

/// Self-consistency: normalized adjacency of a corrupted view is always
/// well-formed even when corruption removes every edge.
#[test]
fn fully_corrupted_view_is_usable() {
    let d = NodeDataset::generate(&spec("cora-sim").unwrap(), 0.04, 12);
    let empty = e2gcl_views::uniform::drop_edges_uniform(&d.graph, 1.0, &mut SeedRng::new(13));
    assert_eq!(empty.num_edges(), 0);
    let adj = norm::normalized_adjacency(&empty);
    let h = adj.spmm(&d.features);
    // Identity propagation: isolated nodes keep their own features.
    assert_eq!(h, d.features);
}

/// Every baseline survives an (almost) edgeless graph.
#[test]
fn baselines_survive_sparse_graph() {
    use e2gcl::models::{
        bgrl::{AfgrlModel, BgrlModel},
        dgi::DgiModel,
        gae::{GaeModel, VgaeModel},
        grace::GraceModel,
        mvgrl::MvgrlModel,
        walks::WalkModel,
    };
    let g = CsrGraph::from_edges(25, &[(0, 1), (10, 11)]);
    let mut x = Matrix::zeros(25, 6);
    for v in 0..25 {
        x.set(v, v % 6, 1.0);
    }
    let cfg = TrainConfig {
        epochs: 2,
        batch_size: 8,
        ..Default::default()
    };
    let models: Vec<Box<dyn ContrastiveModel>> = vec![
        Box::new(GraceModel::grace()),
        Box::new(BgrlModel::default()),
        Box::new(AfgrlModel::default()),
        Box::new(DgiModel),
        Box::new(GaeModel),
        Box::new(VgaeModel::default()),
        Box::new(MvgrlModel::default()),
        Box::new(WalkModel::deepwalk()),
    ];
    for m in models {
        let out = m.pretrain(&g, &x, &cfg, &mut SeedRng::new(14)).unwrap();
        assert!(!out.embeddings.has_non_finite(), "{}", m.name());
    }
}

/// A scheduled feature fault reaches every baseline's encoder: under
/// `FailFast` the NaN written into the epoch's view features must end the
/// run with a typed error at that epoch, not be silently dropped.
#[test]
fn feature_fault_reaches_every_baseline() {
    use e2gcl::models::{
        bgrl::{AfgrlModel, BgrlModel},
        dgi::DgiModel,
        gae::{GaeModel, VgaeModel},
        mvgrl::MvgrlModel,
    };
    let d = NodeDataset::generate(&spec("cora-sim").unwrap(), 0.04, 3);
    let cfg = TrainConfig {
        epochs: 3,
        guard: GuardConfig {
            policy: GuardPolicy::FailFast,
            ..Default::default()
        },
        fault: Some(FaultPlan {
            nan_features_at: vec![1],
            ..FaultPlan::default()
        }),
        ..Default::default()
    };
    let models: Vec<Box<dyn ContrastiveModel>> = vec![
        Box::new(DgiModel),
        Box::new(MvgrlModel::default()),
        Box::new(BgrlModel::default()),
        Box::new(AfgrlModel::default()),
        Box::new(GaeModel),
        Box::new(VgaeModel::default()),
    ];
    let mut missed = Vec::new();
    for m in models {
        match m.pretrain(&d.graph, &d.features, &cfg, &mut SeedRng::new(5)) {
            Err(
                TrainError::NonFiniteLoss { epoch: 1 }
                | TrainError::NonFiniteGradient { epoch: 1 }
                | TrainError::NonFiniteEmbedding { epoch: 1 },
            ) => {}
            other => missed.push(format!("{}: {:?}", m.name(), other.map(|r| r.loss_curve))),
        }
    }
    assert!(missed.is_empty(), "feature fault dropped: {missed:#?}");
}

/// An empty graph (no nodes at all is unrepresentable in NodeDataset, so
/// "empty" here is edgeless) goes through the full per-run recovery pipeline
/// and comes out with clean aggregates, not a panic.
#[test]
fn edgeless_dataset_through_run_node_classification() {
    let g = CsrGraph::from_edges(24, &[]);
    let mut x = Matrix::zeros(24, 6);
    for v in 0..24 {
        x.set(v, v % 6, 1.0);
    }
    let labels: Vec<usize> = (0..24).map(|v| v % 3).collect();
    let d = NodeDataset {
        name: "edgeless".into(),
        graph: g,
        features: x,
        labels,
        num_classes: 3,
    };
    let cfg = TrainConfig {
        epochs: 2,
        batch_size: 8,
        ..Default::default()
    };
    let run =
        e2gcl::pipeline::run_node_classification(&E2gclModel::default(), &d, &cfg, 2, 0).unwrap();
    assert_eq!(run.accuracies.len() + run.failed_runs.len(), 2);
    for a in &run.accuracies {
        assert!((0.0..=1.0).contains(a));
    }
}

/// A dataset whose features are identically zero still completes the full
/// pipeline: the guard must not mistake degenerate-but-finite embeddings for
/// a numeric fault.
#[test]
fn zero_feature_dataset_through_run_node_classification() {
    let g = CsrGraph::from_edges(20, &[(0, 1), (1, 2), (2, 3), (4, 5), (10, 11)]);
    let x = Matrix::zeros(20, 4);
    let labels: Vec<usize> = (0..20).map(|v| v % 2).collect();
    let d = NodeDataset {
        name: "zero-features".into(),
        graph: g,
        features: x,
        labels,
        num_classes: 2,
    };
    let cfg = TrainConfig {
        epochs: 2,
        batch_size: 8,
        ..Default::default()
    };
    let run =
        e2gcl::pipeline::run_node_classification(&E2gclModel::default(), &d, &cfg, 1, 3).unwrap();
    assert!(run.failed_runs.is_empty(), "{:?}", run.failed_runs);
    assert_eq!(run.accuracies.len(), 1);
}
