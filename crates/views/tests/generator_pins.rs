//! Bit pins of Alg. 3's view sampling and of the in-memory dataset
//! generator.
//!
//! `ViewGenerator::new` (two-hop candidates, capped subsampling, edge
//! weights and their totals), `sample_global_view`, `sample_ego_view` and
//! `NodeDataset::generate` (`dc_sbm_with_confusion`'s weighted draws) are
//! fingerprinted with FNV-1a and compared against recorded values, so any
//! change to their RNG order or float arithmetic shows up here before it
//! moves a training golden. The test re-executes itself under
//! `RAYON_NUM_THREADS=1` and `=2` (the pool size is fixed per process) and
//! requires identical pins, because candidate collection and global-view
//! sampling fan out over nodes.

use e2gcl_datasets::{registry, NodeDataset};
use e2gcl_graph::CsrGraph;
use e2gcl_linalg::hash::Fnv1a64;
use e2gcl_linalg::{Matrix, SeedRng};
use e2gcl_views::{ViewConfig, ViewGenerator};
use std::process::Command;

const CHILD_ENV: &str = "E2GCL_GENERATOR_PINS_CHILD";

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
    if std::env::var(CHILD_ENV).is_ok() {
        for (label, pin) in compute_pins() {
            println!("PIN {label} {pin:016x}");
        }
        return;
    }
    let exe = std::env::current_exe().expect("test binary path");
    let mut runs = Vec::new();
    for threads in ["1", "2"] {
        let out = Command::new(&exe)
            .arg("generator_pins_hold_across_thread_counts")
            .arg("--exact")
            .arg("--nocapture")
            .env(CHILD_ENV, "1")
            .env("RAYON_NUM_THREADS", threads)
            .output()
            .expect("spawn child test process");
        assert!(
            out.status.success(),
            "child with {threads} threads failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        // With --nocapture a marker can share a line with libtest output.
        let stdout = String::from_utf8_lossy(&out.stdout);
        let pins: Vec<(String, u64)> = stdout
            .split("PIN ")
            .skip(1)
            .map(|rest| {
                let mut it = rest.split_whitespace();
                let label = it.next().expect("pin label").to_string();
                let hex = it.next().expect("pin value");
                (label, u64::from_str_radix(hex, 16).expect("hex pin"))
            })
            .collect();
        runs.push(pins);
    }
    assert_eq!(
        runs[0], runs[1],
        "pins differ between RAYON_NUM_THREADS=1 and 2"
    );
    let want: Vec<(String, u64)> = PINS.iter().map(|&(l, p)| (l.to_string(), p)).collect();
    let shown: Vec<String> = runs[0]
        .iter()
        .map(|(l, p)| format!("(\"{l}\", 0x{p:016x}),"))
        .collect();
    assert_eq!(runs[0], want, "pins moved; measured:\n{}", shown.join("\n"));
}
