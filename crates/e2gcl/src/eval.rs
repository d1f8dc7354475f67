//! The paper's evaluation protocol (§V-A2, §V-E).
//!
//! Contrastive models are evaluated by freezing the encoder and training an
//! `l2`-regularised linear decoder on 10% of the labels (node
//! classification), 70% of the edges (link prediction), or 70% of the
//! graphs (graph classification). The supervised references (GCN, MLP) are
//! trained end-to-end on the same splits.

use crate::config::TrainConfig;
use e2gcl_datasets::split::{sample_non_edges, EdgeSplit, NodeSplit};
use e2gcl_graph::{norm, CsrGraph};
use e2gcl_linalg::{stats, Matrix, SeedRng};
use e2gcl_nn::loss;
use e2gcl_nn::optim::Optimizer;
use e2gcl_nn::probe::{LinearProbe, LinkDecoder, ProbeConfig};
use e2gcl_nn::{Adam, GcnEncoder, GcnWorkspace, Linear};

/// Accuracy of a frozen-embedding linear probe on one random 10/10/80 split.
pub fn node_classification_accuracy(
    embeddings: &Matrix,
    labels: &[usize],
    num_classes: usize,
    seed: u64,
) -> f32 {
    let mut rng = SeedRng::new(seed ^ 0xe7a1);
    let split = NodeSplit::paper(embeddings.rows(), &mut rng);
    let probe = LinearProbe::fit(
        embeddings,
        labels,
        &split.train,
        num_classes,
        &ProbeConfig::default(),
        &mut rng,
    );
    probe.accuracy(embeddings, labels, &split.test)
}

/// Mean ± std accuracy over `runs` random splits (the paper reports 10).
pub fn node_classification(
    embeddings: &Matrix,
    labels: &[usize],
    num_classes: usize,
    runs: usize,
    base_seed: u64,
) -> (f32, f32) {
    let accs: Vec<f32> = (0..runs)
        .map(|r| {
            node_classification_accuracy(embeddings, labels, num_classes, base_seed + r as u64)
        })
        .collect();
    stats::mean_std(&accs)
}

/// End-to-end supervised GCN (the paper's "GCN" row): encoder + linear head
/// trained jointly with cross-entropy on the training nodes.
pub fn supervised_gcn_accuracy(
    g: &CsrGraph,
    x: &Matrix,
    labels: &[usize],
    num_classes: usize,
    cfg: &TrainConfig,
    seed: u64,
) -> f32 {
    let mut rng = SeedRng::new(seed ^ 0x6c9);
    let split = NodeSplit::paper(g.num_nodes(), &mut rng);
    let adj = norm::normalized_adjacency(g);
    let mut encoder = GcnEncoder::new(&cfg.encoder_dims(x.cols()), &mut rng.fork("enc"));
    let mut head = Linear::new(cfg.embed_dim, num_classes, &mut rng.fork("head"));
    let mut opt = Adam::with_weight_decay(cfg.lr, cfg.weight_decay);
    let y_train: Vec<usize> = split.train.iter().map(|&v| labels[v]).collect();
    let mut ws = GcnWorkspace::new();
    for _ in 0..cfg.epochs.max(50) {
        encoder.forward_with(&adj, x, &mut ws);
        let h = ws.output();
        let h_train = h.select_rows(&split.train);
        let (logits, hc) = head.forward(&h_train);
        let (_, dlogits) = loss::softmax_cross_entropy(&logits, &y_train);
        let hg = head.backward(&hc, &dlogits);
        // Scatter the head's input gradient back to the full node set.
        let mut dh = Matrix::zeros(h.rows(), h.cols());
        for (i, &v) in split.train.iter().enumerate() {
            dh.row_mut(v).copy_from_slice(hg.dx.row(i));
        }
        encoder.backward_with(&adj, &mut ws, &dh);
        opt.step(encoder.params_mut(), ws.grads());
        head.step(&hg, cfg.lr, cfg.weight_decay);
    }
    let h = encoder.embed(&adj, x);
    let logits = head.apply(&h);
    let correct = split
        .test
        .iter()
        .filter(|&&v| e2gcl_linalg::ops::argmax(logits.row(v)).unwrap_or(0) == labels[v])
        .count();
    correct as f32 / split.test.len().max(1) as f32
}

/// Supervised MLP on raw features (the paper's "MLP" row) — structure-blind.
pub fn supervised_mlp_accuracy(
    x: &Matrix,
    labels: &[usize],
    num_classes: usize,
    cfg: &TrainConfig,
    seed: u64,
) -> f32 {
    let mut rng = SeedRng::new(seed ^ 0x311f);
    let split = NodeSplit::paper(x.rows(), &mut rng);
    let mut l1 = Linear::new(x.cols(), cfg.hidden_dim, &mut rng.fork("l1"));
    let mut l2 = Linear::new(cfg.hidden_dim, num_classes, &mut rng.fork("l2"));
    let x_train = x.select_rows(&split.train);
    let y_train: Vec<usize> = split.train.iter().map(|&v| labels[v]).collect();
    for _ in 0..cfg.epochs.max(100) {
        let (z1, c1) = l1.forward(&x_train);
        let mut a1 = z1.clone();
        e2gcl_linalg::activations::relu_inplace(&mut a1);
        let (logits, c2) = l2.forward(&a1);
        let (_, dlogits) = loss::softmax_cross_entropy(&logits, &y_train);
        let g2 = l2.backward(&c2, &dlogits);
        let mut da1 = g2.dx.clone();
        da1.mul_assign_elem(&e2gcl_linalg::activations::relu_grad_mask(&z1));
        let g1 = l1.backward(&c1, &da1);
        l1.step(&g1, cfg.lr * 10.0, cfg.weight_decay);
        l2.step(&g2, cfg.lr * 10.0, cfg.weight_decay);
    }
    let infer = |xs: &Matrix| -> Matrix {
        let mut a = l1.apply(xs);
        e2gcl_linalg::activations::relu_inplace(&mut a);
        l2.apply(&a)
    };
    let logits = infer(x);
    let correct = split
        .test
        .iter()
        .filter(|&&v| e2gcl_linalg::ops::argmax(logits.row(v)).unwrap_or(0) == labels[v])
        .count();
    correct as f32 / split.test.len().max(1) as f32
}

/// Link-prediction accuracy (§V-E1): fit the logistic pair decoder on
/// training edges + sampled negatives; report test accuracy.
pub fn link_prediction_accuracy(embeddings: &Matrix, split: &EdgeSplit, seed: u64) -> f32 {
    let mut rng = SeedRng::new(seed ^ 0x11e4);
    let train_neg = sample_non_edges(&split.train_graph, split.train_pos.len(), &mut rng);
    let dec = LinkDecoder::fit(
        embeddings,
        &split.train_pos,
        &train_neg,
        &ProbeConfig::default(),
        &mut rng,
    );
    dec.accuracy(embeddings, &split.test_pos, &split.test_neg)
}

/// SUM-readout graph embedding (§V-E2): `z_i = Σ_{v ∈ V_i} H_i[v]`.
pub fn sum_readout(node_embeddings: &Matrix) -> Vec<f32> {
    let d = node_embeddings.cols();
    let mut z = vec![0.0f32; d];
    for r in 0..node_embeddings.rows() {
        for (acc, &v) in z.iter_mut().zip(node_embeddings.row(r)) {
            *acc += v;
        }
    }
    z
}

/// Graph-classification accuracy from per-graph embeddings: linear probe on
/// a 70/10/20 split.
pub fn graph_classification_accuracy(
    graph_embeddings: &Matrix,
    labels: &[usize],
    num_classes: usize,
    seed: u64,
) -> f32 {
    let mut rng = SeedRng::new(seed ^ 0x9c1a);
    let split = NodeSplit::random(graph_embeddings.rows(), 0.7, 0.1, &mut rng);
    let probe = LinearProbe::fit(
        graph_embeddings,
        labels,
        &split.train,
        num_classes,
        &ProbeConfig::default(),
        &mut rng,
    );
    probe.accuracy(graph_embeddings, labels, &split.test)
}

#[cfg(test)]
mod tests {
    use super::*;
    use e2gcl_datasets::{spec, NodeDataset};

    #[test]
    fn probe_protocol_beats_chance_on_raw_aggregates() {
        let d = NodeDataset::generate(&spec("cora-sim").unwrap(), 0.15, 0);
        // Even untrained raw aggregates carry class signal on a homophilous
        // graph, so the probe must clear the 1/7 chance level easily.
        let r = norm::raw_aggregate(&d.graph, &d.features, 2);
        let (mean, std) = node_classification(&r, &d.labels, d.num_classes, 3, 0);
        assert!(mean > 0.4, "mean {mean} ± {std}");
        assert!(std >= 0.0);
    }

    #[test]
    fn supervised_gcn_learns() {
        let d = NodeDataset::generate(&spec("cora-sim").unwrap(), 0.1, 1);
        let cfg = TrainConfig {
            epochs: 60,
            ..Default::default()
        };
        let acc = supervised_gcn_accuracy(&d.graph, &d.features, &d.labels, d.num_classes, &cfg, 0);
        assert!(acc > 0.5, "GCN accuracy {acc}");
    }

    #[test]
    fn supervised_mlp_learns_but_less_than_gcn_style_signal() {
        let d = NodeDataset::generate(&spec("cora-sim").unwrap(), 0.1, 2);
        let cfg = TrainConfig {
            epochs: 100,
            ..Default::default()
        };
        let acc = supervised_mlp_accuracy(&d.features, &d.labels, d.num_classes, &cfg, 0);
        // Well above 7-class chance (~0.14); features alone carry signal
        // but markedly less than the graph-aware GCN (> 0.5 above).
        assert!(acc > 0.25, "MLP accuracy {acc}");
    }

    #[test]
    fn link_prediction_on_structured_embeddings() {
        let d = NodeDataset::generate(&spec("cora-sim").unwrap(), 0.1, 3);
        let mut rng = SeedRng::new(4);
        let split = EdgeSplit::random(&d.graph, &mut rng);
        // Raw aggregates of the training graph as embeddings.
        let h = norm::raw_aggregate(&split.train_graph, &d.features, 2);
        let acc = link_prediction_accuracy(&h, &split, 0);
        assert!(acc > 0.55, "link accuracy {acc}");
    }

    #[test]
    fn sum_readout_adds_rows() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(sum_readout(&m), vec![4.0, 6.0]);
    }
}
