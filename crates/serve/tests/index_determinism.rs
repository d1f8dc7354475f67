//! Thread-count invariance of IVF index construction.
//!
//! The index determinism contract (DESIGN.md §14) extends the kernel
//! contract (§11) to a whole subsystem: `IvfIndex::build` must produce
//! **bitwise identical serialized bytes** regardless of run or pool size.
//! The test builds the index in-process under rayon pools of 1, 2 and 4
//! (`ThreadPool::install`), fingerprints the bytes with FNV-1a and asserts
//! every fingerprint matches; ci.sh stage 12 checks the bytes across
//! processes.

use e2gcl_linalg::hash::Fnv1a64;
use e2gcl_linalg::{Matrix, SeedRng};
use e2gcl_serve::{EmbeddingStore, IvfConfig, IvfIndex};

/// Clustered synthetic embeddings: community centers + gaussian noise,
/// the shape real GNN embeddings have. The build's one parallel site is
/// the `matmul_transpose` of the k-means assignment, which splits only
/// when its items number at least twice its `with_min_len` minimum,
/// `ceil(8M / (rows per item × nlist × dim))`. With 8192 × 32 rows, `nlist`
/// 128 and `train_sample` 4096, the AVX2 path's tall tile (64 rows per
/// item) gives 128 items for the full assignment and 64 per k-means
/// iteration, against a minimum of 31; the scalar path (2 rows per item)
/// gives 4096 and 2048 items against a minimum of 64. So both paths fan
/// out on pools of 2 and 4.
fn clustered_store(seed: u64) -> EmbeddingStore {
    let rows = 8192;
    let dim = 32;
    let clusters = 24;
    let mut rng = SeedRng::new(seed);
    let mut centers = Matrix::zeros(clusters, dim);
    for v in centers.as_mut_slice() {
        *v = rng.normal();
    }
    let mut m = Matrix::zeros(rows, dim);
    for r in 0..rows {
        let c = rng.below(clusters);
        for (d, x) in m.row_mut(r).iter_mut().enumerate() {
            *x = centers.get(c, d) + 0.2 * rng.normal();
        }
    }
    EmbeddingStore::new(m)
}

fn index_fingerprint() -> u64 {
    let store = clustered_store(11);
    let index = IvfIndex::build(
        &store,
        IvfConfig {
            nlist: 128,
            nprobe: 8,
            train_sample: 4096,
            kmeans_iters: 5,
            seed: 3,
        },
    )
    .expect("index build");
    let mut h = Fnv1a64::new();
    h.write(&index.to_bytes());
    h.finish()
}

#[test]
fn index_build_bitwise_invariant_across_thread_counts() {
    let fps: Vec<u64> = [1, 2, 4]
        .into_iter()
        .map(|threads| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("thread pool")
                .install(index_fingerprint)
        })
        .collect();
    assert!(
        fps.iter().all(|&fp| fp == fps[0]),
        "index bytes differ across pools of 1, 2 and 4: {fps:016x?}"
    );
    // A second build on the default pool must reproduce the first.
    assert_eq!(index_fingerprint(), fps[0], "same-process rebuild differs");
}
