//! Bit pins of Alg. 3's view sampling and of the in-memory dataset
//! generator.
//!
//! `ViewGenerator::new` (two-hop candidates, capped subsampling, edge
//! weights and their totals), `sample_global_view`, `sample_ego_view` and
//! `NodeDataset::generate` (`dc_sbm_with_confusion`'s weighted draws) are
//! fingerprinted with FNV-1a and compared against recorded values, so any
//! change to their RNG order or float arithmetic shows up here before it
//! moves a training golden. The test computes the pins in-process under
//! rayon pools of 1, 2 and 4 (`ThreadPool::install`) and requires identical
//! pins, because candidate collection and global-view sampling fan out
//! over nodes.

use e2gcl_datasets::{registry, NodeDataset};
use e2gcl_graph::CsrGraph;
use e2gcl_linalg::hash::Fnv1a64;
use e2gcl_linalg::{Matrix, SeedRng};
use e2gcl_views::{ViewConfig, ViewGenerator};

/// Recorded pins, one per label of [`compute_pins`].
const PINS: &[(&str, u64)] = &[
    ("dataset/cora-sim@0.2", 0x4abfd9aa4aebb882),
    ("dataset/products-sim@0.02", 0xac7abbe4d5d6cebb),
    ("global/aware/tau1.0/eta0.6", 0xcd8a2c082afd1118),
    ("global/aware/tau0.5/eta1.2", 0xee94be586e1a569c),
    ("ego/aware", 0x111b876fcafb3a86),
    ("global/uniform/tau1.0/eta0.6", 0xdfe5d81ae604c6ce),
    ("global/uniform/tau0.5/eta1.2", 0x32f6d7825875e13c),
    ("ego/uniform", 0xb3539e2653ce067b),
];

fn hash_graph(h: &mut Fnv1a64, g: &CsrGraph) {
    h.write_u64(g.num_nodes() as u64);
    for (u, v) in g.edges() {
        h.write_u64(u as u64);
        h.write_u64(v as u64);
    }
}

fn hash_matrix(h: &mut Fnv1a64, m: &Matrix) {
    h.write_u64(m.rows() as u64);
    h.write_u64(m.cols() as u64);
    for &f in m.as_slice() {
        h.write_f32(f);
    }
}

fn dataset(name: &str, scale: f64) -> NodeDataset {
    NodeDataset::generate(&registry::spec(name).expect("registered analog"), scale, 9)
}

/// Sizes of the two-hop lists `ViewGenerator::new` builds (distinct nodes
/// two hops from `u`, excluding `u` and its direct neighbours).
fn two_hop_sizes(g: &CsrGraph) -> Vec<usize> {
    (0..g.num_nodes())
        .map(|u| {
            let mut out: Vec<u32> = g
                .neighbors(u)
                .iter()
                .flat_map(|&w| g.neighbors(w as usize).iter().copied())
                .filter(|&t| t as usize != u && !g.has_edge(u, t as usize))
                .collect();
            out.sort_unstable();
            out.dedup();
            out.len()
        })
        .collect()
}

fn compute_pins() -> Vec<(String, u64)> {
    let mut pins = Vec::new();
    let cora = dataset("cora-sim", 0.2);
    let products = dataset("products-sim", 0.02);
    for (label, d) in [
        ("dataset/cora-sim@0.2", &cora),
        ("dataset/products-sim@0.02", &products),
    ] {
        let mut h = Fnv1a64::new();
        hash_graph(&mut h, &d.graph);
        hash_matrix(&mut h, &d.features);
        for &l in &d.labels {
            h.write_u64(l as u64);
        }
        pins.push((label.to_string(), h.finish()));
    }

    // The view graph must reach both branches of the capped two-hop
    // subsampling: `sample_without_replacement`'s sparse branch (more than
    // 3 × cap candidates) and its dense one (between cap and 3 × cap).
    let cs = dataset("cs-sim", 0.05);
    let (g, x) = (&cs.graph, &cs.features);
    let cap = ViewConfig::default().candidate_cap;
    let sizes = two_hop_sizes(g);
    assert!(sizes.iter().any(|&s| s > 3 * cap), "no sparse-branch node");
    assert!(
        sizes.iter().any(|&s| s > cap && s <= 3 * cap),
        "no dense-branch node"
    );

    for (mode, edge_aware) in [("aware", true), ("uniform", false)] {
        let config = ViewConfig {
            edge_aware,
            ..ViewConfig::default()
        };
        let gen = ViewGenerator::new(g, x, config, &mut SeedRng::new(31));
        for (tau, eta) in [(1.0f32, 0.6f32), (0.5, 1.2)] {
            let (vg, vx) = gen.sample_global_view(tau, eta, &mut SeedRng::new(32));
            let mut h = Fnv1a64::new();
            hash_graph(&mut h, &vg);
            hash_matrix(&mut h, &vx);
            pins.push((format!("global/{mode}/tau{tau:.1}/eta{eta:.1}"), h.finish()));
        }
        let mut rng = SeedRng::new(33);
        let mut h = Fnv1a64::new();
        for v in [0usize, 17, 333, g.num_nodes() - 1] {
            let view = gen.sample_ego_view(v, 1.0, 0.6, &mut rng);
            for &u in &view.nodes {
                h.write_u64(u as u64);
            }
            hash_graph(&mut h, &view.graph);
            hash_matrix(&mut h, &view.features);
        }
        pins.push((format!("ego/{mode}"), h.finish()));
    }
    pins
}

#[test]
fn generator_pins_hold_across_thread_counts() {
    let runs: Vec<Vec<(String, u64)>> = [1, 2, 4]
        .into_iter()
        .map(|threads| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("thread pool")
                .install(compute_pins)
        })
        .collect();
    for (threads, run) in [2, 4].iter().zip(&runs[1..]) {
        assert_eq!(
            run, &runs[0],
            "pins differ between pools of 1 and {threads}"
        );
    }
    let want: Vec<(String, u64)> = PINS.iter().map(|&(l, p)| (l.to_string(), p)).collect();
    let shown: Vec<String> = runs[0]
        .iter()
        .map(|(l, p)| format!("(\"{l}\", 0x{p:016x}),"))
        .collect();
    assert_eq!(runs[0], want, "pins moved; measured:\n{}", shown.join("\n"));
}
