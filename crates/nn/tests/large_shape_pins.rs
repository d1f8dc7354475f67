//! Bit pins for the dense kernels at training-size shapes, per dispatch
//! path, checked in-process under rayon pools of 1, 2 and 4
//! (`ThreadPool::install`).
//!
//! The end-to-end goldens train on graphs of ~135 nodes, so they never run
//! a reduction longer than one row block of the AVX2 `transpose_matmul`
//! nor a square transpose at a power-of-two size. These pins cover the
//! shapes the sampled training path really runs:
//!
//! * `info_nce_with` at 1024 and 784 anchors by 64 (loss bits, `d_z1`,
//!   `d_z2`): the `syrk` mirror, `transpose_into`, `add_transpose_assign`,
//!   `symmetrize_additive` and the n×n `transpose_matmul`, with every GEMM
//!   of the pass split between workers on both paths;
//! * `GcnEncoder::backward_with` weight gradients on a 5,900-node graph
//!   at 100→128→64;
//! * `transpose_matmul` of (5900×100)ᵀ·(5900×128).
//!
//! Each table is validated against the active dispatch path, never silently
//! regenerated. To (re)record after an intentional numeric change:
//!
//! ```text
//! GOLDEN_PRINT=1 E2GCL_KERNEL_CONFIG=scalar cargo test -q -p e2gcl-nn --test large_shape_pins -- --nocapture
//! GOLDEN_PRINT=1 E2GCL_KERNEL_CONFIG=avx2   cargo test -q -p e2gcl-nn --test large_shape_pins -- --nocapture
//! ```

use e2gcl_graph::norm::normalized_adjacency;
use e2gcl_graph::CsrGraph;
use e2gcl_linalg::hash::Fnv1a64;
use e2gcl_linalg::{DispatchPath, Matrix, SeedRng};
use e2gcl_nn::loss::{info_nce_with, InfoNceScratch};
use e2gcl_nn::{GcnEncoder, GcnWorkspace};

fn dense(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = SeedRng::new(seed);
    Matrix::from_vec(rows, cols, (0..rows * cols).map(|_| rng.normal()).collect())
}

fn hash_matrix(h: &mut Fnv1a64, m: &Matrix) {
    h.write_u64(m.rows() as u64);
    h.write_u64(m.cols() as u64);
    for &v in m.as_slice() {
        h.write_f32(v);
    }
}

fn info_nce_pin(n: usize, d: usize) -> u64 {
    let z1 = dense(n, d, 0x1000 + n as u64);
    let z2 = dense(n, d, 0x2000 + n as u64);
    let mut s = InfoNceScratch::default();
    let loss = info_nce_with(&z1, &z2, 0.5, &mut s);
    let mut h = Fnv1a64::new();
    h.write_f32(loss);
    hash_matrix(&mut h, s.d_z1());
    hash_matrix(&mut h, s.d_z2());
    h.finish()
}

/// A 5,900-node graph of ~11 random neighbours per node: with self-loops
/// the normalised adjacency has ~135k nonzeros.
fn random_graph(n: usize, per_node: usize, seed: u64) -> CsrGraph {
    let mut rng = SeedRng::new(seed);
    let mut edges = Vec::with_capacity(n * per_node);
    for u in 0..n {
        for _ in 0..per_node {
            let v = rng.below(n);
            if v != u {
                edges.push((u, v));
            }
        }
    }
    CsrGraph::from_edges(n, &edges)
}

fn gcn_backward_pin() -> u64 {
    let n = 5900;
    let adj = normalized_adjacency(&random_graph(n, 11, 0x3000));
    let x = dense(n, 100, 0x3001);
    let enc = GcnEncoder::new(&[100, 128, 64], &mut SeedRng::new(0x3002));
    let d_out = dense(n, 64, 0x3003);
    let mut ws = GcnWorkspace::new();
    enc.forward_with(&adj, &x, &mut ws);
    enc.backward_with(&adj, &mut ws, &d_out);
    let mut h = Fnv1a64::new();
    h.write_u64(adj.nnz() as u64);
    for g in ws.grads() {
        hash_matrix(&mut h, g);
    }
    h.finish()
}

fn transpose_matmul_pin() -> u64 {
    let a = dense(5900, 100, 0x4000);
    let b = dense(5900, 128, 0x4001);
    let mut h = Fnv1a64::new();
    hash_matrix(&mut h, &a.transpose_matmul(&b));
    h.finish()
}

fn all_pins() -> Vec<(&'static str, u64)> {
    vec![
        ("info_nce-1024x64", info_nce_pin(1024, 64)),
        ("info_nce-784x64", info_nce_pin(784, 64)),
        ("gcn_backward-5900", gcn_backward_pin()),
        ("transpose_matmul-5900x100t128", transpose_matmul_pin()),
    ]
}

/// Recorded under `E2GCL_KERNEL_CONFIG=scalar` before the transpose family
/// and the AVX2 `transpose_matmul` were made cache-aware; those changes
/// keep every element's reduction order, so these must not move.
const PINS_SCALAR: &[(&str, u64)] = &[
    ("info_nce-1024x64", 0x6b1545221d598f68),
    ("info_nce-784x64", 0xb33e75a7346cd440),
    ("gcn_backward-5900", 0x4159869fcc021f21),
    ("transpose_matmul-5900x100t128", 0xb37df51179442fba),
];

/// Recorded under `E2GCL_KERNEL_CONFIG=avx2` at the same point.
const PINS_AVX2: &[(&str, u64)] = &[
    ("info_nce-1024x64", 0x00ea01ee0507c853),
    ("info_nce-784x64", 0x7c4411035dfca3bb),
    ("gcn_backward-5900", 0x7afa0a52c977a4a3),
    ("transpose_matmul-5900x100t128", 0xb307ec97bf149f8b),
];

#[test]
fn large_shape_pins_are_bit_stable_across_thread_counts() {
    let runs: Vec<Vec<(&str, u64)>> = [1, 2, 4]
        .into_iter()
        .map(|threads| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("thread pool")
                .install(all_pins)
        })
        .collect();
    let pins = &runs[0];
    if std::env::var("GOLDEN_PRINT").is_ok() {
        for (name, fp) in pins {
            println!("    (\"{name}\", {fp:#018x}),");
        }
        return;
    }
    for (threads, run) in [2, 4].iter().zip(&runs[1..]) {
        assert_eq!(run, pins, "a pool of {threads} disagrees with a pool of 1");
    }
    let (path_name, table) = match e2gcl_linalg::dispatch::current_path() {
        DispatchPath::Scalar => ("scalar", PINS_SCALAR),
        DispatchPath::Avx2 => ("avx2", PINS_AVX2),
    };
    let drift: Vec<String> = pins
        .iter()
        .zip(table)
        .filter(|((_, got), (_, want))| got != want)
        .map(|((name, got), (_, want))| {
            format!("{name} [{path_name}]: got {got:#018x}, pinned {want:#018x}")
        })
        .collect();
    assert!(
        drift.is_empty(),
        "large-shape pin drift:\n{}",
        drift.join("\n")
    );
}
