//! Full-batch equivalence: a `minibatch` block whose configuration is
//! degenerate — `batch_nodes >= |V|` and unlimited `fanout` — must reproduce
//! the plain full-graph training path **bitwise**, because the models
//! dispatch that case to the existing step before drawing any additional
//! randomness (DESIGN.md §13). This pins the mini-batch refactor against the
//! golden fingerprints: if the degenerate path ever drifts, this fails
//! before `golden_determinism` does.

use e2gcl::models::grace::GraceModel;
use e2gcl::prelude::*;

mod common;
use common::fingerprint;

fn tiny_cfg() -> TrainConfig {
    TrainConfig {
        epochs: 5,
        batch_size: 64,
        hidden_dim: 32,
        embed_dim: 16,
        checkpoint_every: Some(2),
        ..TrainConfig::default()
    }
}

fn assert_degenerate_minibatch_matches_full_graph(name: &str, model: &dyn ContrastiveModel) {
    let data = NodeDataset::generate(&spec("cora-sim").expect("spec"), 0.05, 0);
    let n = data.num_nodes();

    let run = |minibatch: Option<MinibatchConfig>| {
        let cfg = TrainConfig {
            minibatch,
            ..tiny_cfg()
        };
        model
            .pretrain(&data.graph, &data.features, &cfg, &mut SeedRng::new(7))
            .expect("pretrain")
    };

    let full = run(None);
    let degenerate = run(Some(MinibatchConfig {
        batch_nodes: n,
        fanout: None,
    }));

    assert_eq!(
        full.loss_curve
            .iter()
            .map(|l| l.to_bits())
            .collect::<Vec<_>>(),
        degenerate
            .loss_curve
            .iter()
            .map(|l| l.to_bits())
            .collect::<Vec<_>>(),
        "{name}: degenerate mini-batch loss curve diverged from full-graph"
    );
    assert_eq!(
        fingerprint(&full),
        fingerprint(&degenerate),
        "{name}: degenerate mini-batch run is not bit-identical to full-graph"
    );

    // Sanity check the dispatch itself: an honestly mini-batched run on the
    // same seed takes a different trajectory (it must not silently fall
    // through to the full-graph step).
    let sampled = run(Some(MinibatchConfig {
        batch_nodes: (n / 3).max(2),
        fanout: Some(4),
    }));
    assert_ne!(
        fingerprint(&full),
        fingerprint(&sampled),
        "{name}: sampled mini-batch run unexpectedly matched the full-graph path"
    );
}

#[test]
fn e2gcl_degenerate_minibatch_is_bitwise_full_graph() {
    assert_degenerate_minibatch_matches_full_graph("e2gcl", &E2gclModel::default());
}

#[test]
fn grace_degenerate_minibatch_is_bitwise_full_graph() {
    assert_degenerate_minibatch_matches_full_graph("grace", &GraceModel::grace());
}

#[test]
fn gca_degenerate_minibatch_is_bitwise_full_graph() {
    // GCA's adaptive corruption rejects honest mini-batching, but the
    // degenerate block dispatches to the full-graph step before the
    // rejection triggers — existing GCA configs keep working.
    let data = NodeDataset::generate(&spec("cora-sim").expect("spec"), 0.05, 0);
    let model = GraceModel::gca();
    let run = |minibatch: Option<MinibatchConfig>| {
        let cfg = TrainConfig {
            minibatch,
            ..tiny_cfg()
        };
        model
            .pretrain(&data.graph, &data.features, &cfg, &mut SeedRng::new(7))
            .expect("pretrain")
    };
    let full = run(None);
    let degenerate = run(Some(MinibatchConfig {
        batch_nodes: data.num_nodes(),
        fanout: None,
    }));
    assert_eq!(fingerprint(&full), fingerprint(&degenerate));
}
