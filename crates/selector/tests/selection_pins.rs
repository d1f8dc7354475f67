//! Bit-level pins of the default greedy selector's output.
//!
//! Each case hashes `(nodes, weights.to_bits())` of
//! `GreedySelector::default()` with FNV-1a64. The expected values were
//! recorded from the selector that rebuilt every coverage table from
//! scratch after each pick; the incremental tables must reproduce them
//! exactly (DESIGN.md §17).

use e2gcl_graph::{generators, CsrGraph};
use e2gcl_linalg::hash::Fnv1a64;
use e2gcl_linalg::{Matrix, SeedRng};
use e2gcl_selector::greedy::GreedySelector;
use e2gcl_selector::NodeSelector;

/// A degree-corrected SBM with community-shifted Gaussian features.
/// `levels > 0` quantises every feature to that many steps per unit, so
/// many input rows repeat exactly.
fn community_graph(
    n: usize,
    classes: usize,
    dim: usize,
    levels: u32,
    seed: u64,
) -> (CsrGraph, Matrix) {
    let mut rng = SeedRng::new(seed);
    let labels: Vec<usize> = (0..n).map(|v| v % classes).collect();
    let theta = generators::pareto_theta(n, 2.5, &mut rng);
    let g = generators::dc_sbm(&labels, classes, 6.0, 0.8, &theta, &mut rng);
    let mut x = Matrix::zeros(n, dim);
    for (v, &c) in labels.iter().enumerate() {
        for j in 0..dim {
            let shift = if j % classes == c { 2.0 } else { 0.0 };
            let mut value = shift + rng.normal();
            if levels > 0 {
                value = (value * levels as f32).round() / levels as f32;
            }
            x.set(v, j, value);
        }
    }
    (g, x)
}

fn fingerprint(g: &CsrGraph, x: &Matrix, ratio: f64, seed: u64) -> u64 {
    let budget = ((g.num_nodes() as f64) * ratio).round() as usize;
    let sel = GreedySelector::default().select(g, x, budget, &mut SeedRng::new(seed));
    sel.validate(g.num_nodes(), budget)
        .expect("valid selection");
    let mut h = Fnv1a64::new();
    for &v in &sel.nodes {
        h.write_u64(v as u64);
    }
    for &w in &sel.weights {
        h.write_u64(u64::from(w.to_bits()));
    }
    h.finish()
}

/// (nodes, classes, dim, quantisation levels, graph seed, ratio, selection
/// seed, expected fingerprint)
type Case = (usize, usize, usize, u32, u64, f64, u64, u64);

#[test]
fn default_greedy_selection_fingerprints_are_pinned() {
    let cases: [Case; 4] = [
        // Moderate budget, the paper's default ratio.
        (2000, 8, 24, 0, 1, 0.4, 11, 0xe664_3615_b6b2_771d),
        // Small budget: 32 candidates per pick, most nodes never picked.
        (1500, 5, 16, 0, 2, 0.1, 12, 0xe041_68a2_7356_3d25),
        // Near-total budget: the last picks sample at least a third of the
        // remaining nodes, i.e. `sample_without_replacement`'s dense regime.
        (300, 4, 8, 0, 3, 0.95, 13, 0xa88d_f04f_48f3_24dd),
        // Integer-quantised features: few distinct input rows.
        (800, 3, 6, 1, 4, 0.25, 14, 0x0f43_abaf_7b6a_339e),
    ];
    let mut mismatches = Vec::new();
    for (n, classes, dim, levels, graph_seed, ratio, seed, expected) in cases {
        let (g, x) = community_graph(n, classes, dim, levels, graph_seed);
        let got = fingerprint(&g, &x, ratio, seed);
        if got != expected {
            mismatches.push(format!(
                "n={n} ratio={ratio} seed={seed}: got {got:#018x}, pinned {expected:#018x}"
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "selection fingerprints moved:\n{}",
        mismatches.join("\n")
    );
}
