//! Uniform and weighted corruption primitives.
//!
//! These implement (a) the `E²GCL\F\S`-style *uniform* ablations of
//! Table VIII and (b) the augmentations the baselines use: GRACE's uniform
//! edge dropping + feature-dimension masking, GCA's centrality-weighted
//! variants, GraphCL's node dropping, and uniform edge addition.

use e2gcl_graph::CsrGraph;
use e2gcl_linalg::{Matrix, SeedRng};

/// Drops each edge independently with probability `p`.
pub fn drop_edges_uniform(g: &CsrGraph, p: f32, rng: &mut SeedRng) -> CsrGraph {
    let edges: Vec<(usize, usize)> = g.edges().filter(|_| !rng.bernoulli(p)).collect();
    CsrGraph::from_edges(g.num_nodes(), &edges)
}

/// Drops edge `i` with probability `drop_prob[i]` (parallel to `g.edges()`),
/// each clamped to `max_p` — GCA's adaptive topology augmentation.
pub fn drop_edges_weighted(
    g: &CsrGraph,
    drop_prob: &[f32],
    max_p: f32,
    rng: &mut SeedRng,
) -> CsrGraph {
    let edges: Vec<(usize, usize)> = g
        .edges()
        .zip(drop_prob)
        .filter(|&(_, &p)| !rng.bernoulli(p.min(max_p)))
        .map(|(e, _)| e)
        .collect();
    CsrGraph::from_edges(g.num_nodes(), &edges)
}

/// GCA's per-edge drop probabilities from degree centrality:
/// `p_e = min( (w_max − w_e) / (w_max − w_mean) · p, p )` with
/// `w_e = mean log-centrality of the endpoints`, normalised so that
/// unimportant (low-centrality) edges drop more.
pub fn gca_edge_drop_probs(g: &CsrGraph, p: f32) -> Vec<f32> {
    let cent = e2gcl_graph::centrality::degree_centrality(g);
    let w: Vec<f32> = g.edges().map(|(u, v)| 0.5 * (cent[u] + cent[v])).collect();
    if w.is_empty() {
        return Vec::new();
    }
    let w_max = w.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    let w_mean = w.iter().sum::<f32>() / w.len() as f32;
    let denom = (w_max - w_mean).max(1e-9);
    w.iter()
        .map(|&wi| (p * (w_max - wi) / denom).min(p))
        .collect()
}

/// Adds `count` uniformly random non-existing edges.
pub fn add_edges_uniform(g: &CsrGraph, count: usize, rng: &mut SeedRng) -> CsrGraph {
    let n = g.num_nodes();
    let mut edges: Vec<(usize, usize)> = g.edges().collect();
    let mut added = 0usize;
    let mut attempts = 0usize;
    while added < count && attempts < count * 50 + 100 {
        attempts += 1;
        let u = rng.below(n);
        let v = rng.below(n);
        if u != v && !g.has_edge(u, v) {
            edges.push((u, v));
            added += 1;
        }
    }
    CsrGraph::from_edges(n, &edges)
}

/// GRACE-style feature masking: zeroes entire feature *dimensions* with
/// probability `p` each (the same mask applied to every node).
pub fn mask_feature_dims(x: &Matrix, p: f32, rng: &mut SeedRng) -> Matrix {
    let mask: Vec<bool> = (0..x.cols()).map(|_| rng.bernoulli(p)).collect();
    let mut out = x.clone();
    for r in 0..out.rows() {
        for (v, &m) in out.row_mut(r).iter_mut().zip(&mask) {
            if m {
                *v = 0.0;
            }
        }
    }
    out
}

/// GCA-style weighted dimension masking: dimension `i` masks with
/// probability `dim_probs[i]` (clamped to `max_p`).
pub fn mask_feature_dims_weighted(
    x: &Matrix,
    dim_probs: &[f32],
    max_p: f32,
    rng: &mut SeedRng,
) -> Matrix {
    assert_eq!(dim_probs.len(), x.cols());
    let mask: Vec<bool> = dim_probs
        .iter()
        .map(|&p| rng.bernoulli(p.min(max_p)))
        .collect();
    let mut out = x.clone();
    for r in 0..out.rows() {
        for (v, &m) in out.row_mut(r).iter_mut().zip(&mask) {
            if m {
                *v = 0.0;
            }
        }
    }
    out
}

/// Uniform entry-wise multiplicative perturbation — Eq. (16) with a flat
/// probability `p` instead of the importance-aware one (`E²GCL\F`).
pub fn perturb_features_uniform(x: &Matrix, p: f32, rng: &mut SeedRng) -> Matrix {
    let mut out = x.clone();
    perturb_features_uniform_in_place(&mut out, p, rng);
    out
}

/// [`perturb_features_uniform`] applied to `x` itself, with the same draws:
/// callers that perturb every epoch copy into a held buffer and call this.
pub fn perturb_features_uniform_in_place(x: &mut Matrix, p: f32, rng: &mut SeedRng) {
    for v in x.as_mut_slice() {
        if *v != 0.0 && rng.bernoulli(p) {
            *v += (2.0 * rng.uniform() - 1.0) * *v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use e2gcl_graph::generators;

    fn graph(seed: u64) -> CsrGraph {
        generators::erdos_renyi(100, 0.08, &mut SeedRng::new(seed))
    }

    #[test]
    fn drop_edges_extremes() {
        let g = graph(0);
        let mut rng = SeedRng::new(1);
        assert_eq!(drop_edges_uniform(&g, 0.0, &mut rng), g);
        assert_eq!(drop_edges_uniform(&g, 1.0, &mut rng).num_edges(), 0);
    }

    #[test]
    fn drop_edges_rate_roughly_p() {
        let g = graph(2);
        let d = drop_edges_uniform(&g, 0.3, &mut SeedRng::new(3));
        let kept = d.num_edges() as f64 / g.num_edges() as f64;
        assert!((kept - 0.7).abs() < 0.12, "kept {kept}");
    }

    #[test]
    fn gca_probs_drop_low_centrality_edges_more() {
        // A hub chain: edges near the hub get low drop probability.
        let mut edges = vec![];
        for v in 1..30 {
            edges.push((0, v));
        }
        edges.push((28, 29)); // leaf-leaf edge: lowest centrality
        let g = CsrGraph::from_edges(30, &edges);
        let probs = gca_edge_drop_probs(&g, 0.5);
        let edge_list: Vec<(usize, usize)> = g.edges().collect();
        let leaf_edge = edge_list.iter().position(|&e| e == (28, 29)).unwrap();
        let hub_edge = edge_list.iter().position(|&e| e == (0, 1)).unwrap();
        assert!(probs[leaf_edge] > probs[hub_edge]);
        assert!(probs.iter().all(|&p| (0.0..=0.5).contains(&p)));
    }

    #[test]
    fn add_edges_increases_count() {
        let g = graph(4);
        let before = g.num_edges();
        let a = add_edges_uniform(&g, 25, &mut SeedRng::new(5));
        assert_eq!(a.num_edges(), before + 25);
    }

    #[test]
    fn mask_dims_is_columnwise() {
        let x = Matrix::filled(10, 20, 1.0);
        let m = mask_feature_dims(&x, 0.5, &mut SeedRng::new(6));
        for c in 0..20 {
            let col: Vec<f32> = (0..10).map(|r| m.get(r, c)).collect();
            let all_zero = col.iter().all(|&v| v == 0.0);
            let all_one = col.iter().all(|&v| v == 1.0);
            assert!(all_zero || all_one, "column {c} mixed");
        }
    }

    #[test]
    fn perturb_uniform_respects_zero_entries() {
        let mut x = Matrix::zeros(5, 5);
        x.set(1, 1, 2.0);
        let p = perturb_features_uniform(&x, 1.0, &mut SeedRng::new(7));
        for r in 0..5 {
            for c in 0..5 {
                if (r, c) != (1, 1) {
                    assert_eq!(p.get(r, c), 0.0);
                }
            }
        }
        let v = p.get(1, 1);
        assert!((0.0..=4.0).contains(&v));
    }
}
