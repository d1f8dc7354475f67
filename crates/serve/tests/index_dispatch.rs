//! Dispatch-path invariance of IVF index behaviour (DESIGN.md §16).
//!
//! The kernel-dispatch PR routes the re-rank `lane_dot`/`lane_dot4` calls
//! in `index.rs`/`store.rs` through the runtime dispatcher. Scores are
//! *not* bit-identical across dispatch paths (each path has its own
//! reduction contract), but the serving behaviour that callers observe
//! must be: this test builds the same IVF index and runs the same queries
//! under a forced scalar path (`E2GCL_KERNEL_CONFIG=scalar` equivalent,
//! via `dispatch::with_path`) and under the AVX2 path, and asserts
//!
//! 1. recall@10 against brute force is identical,
//! 2. every query returns the same hit ids in the same order, and
//! 3. exact score ties (planted duplicate rows) break by ascending node
//!    id on both paths.
//!
//! Skipped (vacuously green) on hosts without AVX2+FMA, where only one
//! path exists.

use e2gcl_linalg::{dispatch, DispatchPath, Matrix, SeedRng};
use e2gcl_serve::{EmbeddingStore, IvfConfig, IvfIndex};

/// How many leading rows get two extra exact duplicates planted.
const DUPES: usize = 16;
const ROWS: usize = 3000;
const DIM: usize = 16;

/// Clustered synthetic embeddings (as in `index_determinism.rs`), with
/// rows `0..DUPES` copied verbatim to rows `1000..1000+DUPES` and
/// `2000..2000+DUPES`. Duplicates score exactly equal against any query,
/// forcing the tie-break (ascending node id) to decide their order.
fn clustered_store_with_ties(seed: u64) -> EmbeddingStore {
    let clusters = 24;
    let mut rng = SeedRng::new(seed);
    let mut centers = Matrix::zeros(clusters, DIM);
    for v in centers.as_mut_slice() {
        *v = rng.normal();
    }
    let mut m = Matrix::zeros(ROWS, DIM);
    for r in 0..ROWS {
        let c = rng.below(clusters);
        for (d, x) in m.row_mut(r).iter_mut().enumerate() {
            *x = centers.get(c, d) + 0.2 * rng.normal();
        }
    }
    for i in 0..DUPES {
        let src: Vec<f32> = m.row(i).to_vec();
        m.row_mut(1000 + i).copy_from_slice(&src);
        m.row_mut(2000 + i).copy_from_slice(&src);
    }
    EmbeddingStore::new(m)
}

struct PathRun {
    recall: f64,
    /// Per-query hit ids, in returned order.
    hits: Vec<Vec<usize>>,
}

/// Builds the index and runs every probe query under the *current*
/// dispatch path. Everything stays on the calling thread up to the
/// kernels' own fan-out, so `with_path` governs the whole run.
fn run_under_current_path() -> PathRun {
    let store = clustered_store_with_ties(11);
    let index = IvfIndex::build(
        &store,
        IvfConfig {
            nlist: 48,
            nprobe: 8,
            train_sample: 2048,
            kmeans_iters: 5,
            seed: 3,
        },
    )
    .expect("index build");
    // Duplicated rows first (guaranteed ties), then a spread of others.
    let query_nodes: Vec<usize> = (0..DUPES).chain((0..40).map(|i| 17 + i * 71)).collect();
    let recall = index
        .measure_recall(&store, &query_nodes, 10)
        .expect("recall");
    let hits = query_nodes
        .iter()
        .map(|&n| {
            let q = store.embedding(n).expect("row").to_vec();
            index
                .search(&store, &q, 10)
                .expect("search")
                .into_iter()
                .map(|(id, _)| id)
                .collect()
        })
        .collect();
    PathRun { recall, hits }
}

#[test]
fn ivf_behaviour_invariant_across_dispatch_paths() {
    if !dispatch::avx2_available() {
        eprintln!("skipping: host lacks AVX2+FMA, only the scalar path exists");
        return;
    }
    let scalar = dispatch::with_path(DispatchPath::Scalar, run_under_current_path);
    let avx2 = dispatch::with_path(DispatchPath::Avx2, run_under_current_path);

    assert_eq!(
        scalar.recall.to_bits(),
        avx2.recall.to_bits(),
        "recall@10 differs across dispatch paths: scalar {} vs avx2 {}",
        scalar.recall,
        avx2.recall
    );
    for (qi, (s, a)) in scalar.hits.iter().zip(&avx2.hits).enumerate() {
        assert_eq!(
            s, a,
            "query #{qi}: hit ids / order differ across dispatch paths"
        );
    }
    // Tie-break contract: for each planted duplicate triple, whichever of
    // the three ids made it into the top-10 must appear in ascending order
    // (equal scores break by ascending node id), on both paths.
    for (path, run) in [("scalar", &scalar), ("avx2", &avx2)] {
        for (i, hits) in run.hits.iter().take(DUPES).enumerate() {
            let triple = [i, 1000 + i, 2000 + i];
            let present: Vec<usize> = hits
                .iter()
                .copied()
                .filter(|id| triple.contains(id))
                .collect();
            assert!(
                present.len() >= 2,
                "[{path}] query #{i}: expected the duplicate triple in top-10, got {hits:?}"
            );
            let mut sorted = present.clone();
            sorted.sort_unstable();
            assert_eq!(
                present, sorted,
                "[{path}] query #{i}: tied duplicates not in ascending node-id order"
            );
        }
    }
}
