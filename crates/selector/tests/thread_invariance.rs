//! Thread-count invariance of the greedy selector.
//!
//! The sub-quadratic loss strategies re-run `select_from_aggregate` every
//! epoch on current embeddings, so the selection itself must be bitwise
//! reproducible whatever the pool size. The gain argmax tie-breaks on the
//! lowest node id and the rayon stand-in reduces sequentially in item
//! order; this test pins both by selecting in-process under rayon pools of
//! 1, 2 and 4 (`ThreadPool::install`).

use e2gcl_linalg::hash::Fnv1a64;
use e2gcl_linalg::{Matrix, SeedRng};
use e2gcl_selector::greedy::{GreedyConfig, GreedySelector};

/// Large enough that `step_work` crosses the selector's parallel-gains
/// threshold (4M): n_s ≈ max(n/k·3, 32) candidates × (avg cluster × dim).
fn compute_fingerprint() -> u64 {
    let n = 4096;
    let dim = 32;
    let mut rng = SeedRng::new(77);
    let repr = Matrix::from_vec(n, dim, (0..n * dim).map(|_| rng.normal()).collect());
    let selector = GreedySelector::new(GreedyConfig {
        num_clusters: 8,
        sample_size: 2048,
        kmeans_iters: 3,
        ..Default::default()
    });
    let sel = selector.select_from_aggregate(&repr, 48, &mut SeedRng::new(5));
    let mut h = Fnv1a64::new();
    for &v in &sel.nodes {
        h.write_u64(v as u64);
    }
    for &w in &sel.weights {
        h.write_f32(w);
    }
    h.finish()
}

#[test]
fn greedy_selection_bitwise_invariant_across_thread_counts() {
    let fps: Vec<u64> = [1, 2, 4]
        .into_iter()
        .map(|threads| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("thread pool")
                .install(compute_fingerprint)
        })
        .collect();
    assert!(
        fps.iter().all(|&fp| fp == fps[0]),
        "greedy selection differs across pools of 1, 2 and 4: {fps:016x?}"
    );
}
