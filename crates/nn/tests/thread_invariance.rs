//! Thread-count invariance of the sub-quadratic contrastive losses.
//!
//! The test fingerprints the losses and both gradients in-process under
//! rayon pools of 1, 2 and 4 (`ThreadPool::install`) and asserts they
//! match. The full InfoNCE kernel is covered at training-size shapes by
//! `large_shape_pins.rs`, which checks the same pools against its pins.

use e2gcl_graph::CsrGraph;
use e2gcl_linalg::hash::Fnv1a64;
use e2gcl_linalg::{Matrix, SeedRng};
use e2gcl_nn::{ContrastiveLoss, LocalizedInfoNce, Neighborhoods, SmallNegInfoNce};

fn dense(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = SeedRng::new(seed);
    Matrix::from_vec(rows, cols, (0..rows * cols).map(|_| rng.normal()).collect())
}

fn hash_strategy(h: &mut Fnv1a64, loss: f32, strat: &dyn ContrastiveLoss) {
    h.write_f32(loss);
    for &v in strat.d_z1().as_slice() {
        h.write_f32(v);
    }
    for &v in strat.d_z2().as_slice() {
        h.write_f32(v);
    }
}

/// 600 anchors through the sub-quadratic kernels on their *general*
/// paths: small-neg with k = 96 < n (fused select/GEMM/scatter
/// backward) and localized on a ring graph with 2-hop neighbourhoods
/// (sparse softmax, per-anchor parallel pass 1, per-row parallel pass 2).
fn subq_fingerprint() -> u64 {
    let n = 600;
    let z1 = dense(n, 16, 42);
    let z2 = dense(n, 16, 43);
    let mut h = Fnv1a64::new();
    let mut small = SmallNegInfoNce::new(0.5);
    small.set_negatives(&(0..n).step_by(6).map(|v| v + 1).collect::<Vec<_>>());
    let l = small.compute(&z1, &z2);
    hash_strategy(&mut h, l, &small);
    let edges: Vec<(usize, usize)> = (0..n).map(|v| (v, (v + 1) % n)).collect();
    let ring = CsrGraph::from_edges(n, &edges);
    let mut local = LocalizedInfoNce::new(0.5, Neighborhoods::from_graph(&ring, 2));
    let l = local.compute(&z1, &z2);
    hash_strategy(&mut h, l, &local);
    h.finish()
}

#[test]
fn sub_quadratic_losses_bitwise_invariant_across_thread_counts() {
    let fps: Vec<u64> = [1, 2, 4]
        .into_iter()
        .map(|threads| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("thread pool")
                .install(subq_fingerprint)
        })
        .collect();
    assert!(
        fps.iter().all(|&fp| fp == fps[0]),
        "sub-quadratic loss output differs across pools of 1, 2 and 4: {fps:016x?}"
    );
}
