//! Thread-count invariance of the dispatched GEMM kernels.
//!
//! Determinism contract (DESIGN.md §11, §16): every kernel must produce
//! bitwise identical output whatever the pool size, on *each* dispatch
//! path. The test pins each path with `dispatch::with_path` and each pool
//! size with rayon's `ThreadPool::install`, both in-process: the kernels
//! below are top-level calls, which capture the path on the calling thread
//! before they fan out. It asserts an FNV-1a fingerprint of the kernel
//! outputs matches across pools of 1, 2 and 4 within a path (and, on
//! AVX2+FMA hosts, that the two paths legitimately differ — the per-path
//! golden tables would be meaningless otherwise).

use e2gcl_linalg::hash::Fnv1a64;
use e2gcl_linalg::{dispatch, DispatchPath, Matrix, SeedRng};

fn dense(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = SeedRng::new(seed);
    Matrix::from_vec(rows, cols, (0..rows * cols).map(|_| rng.normal()).collect())
}

fn fingerprint(ms: &[&Matrix]) -> u64 {
    let mut h = Fnv1a64::new();
    for m in ms {
        for &v in m.as_slice() {
            h.write_f32(v);
        }
    }
    h.finish()
}

/// Runs every blocked kernel at sizes where the stand-in pool fans out on
/// both dispatch paths. A kernel splits when its work items number at least
/// twice its `with_min_len` minimum, which is `ceil(8M / multiply-adds per
/// item)` clamped to `1..=64`. Items are `mm_mr × grain` output rows for
/// `matmul`/`transpose_matmul`, `dot_mr × grain` rows for
/// `matmul_transpose`, and pairs of those row bands for `syrk`; AVX2 rows
/// per item are 64 (square, mm), 32 (tall, mm) and 32 (square, dot), and
/// scalar rows 4 (mm) and 2 (dot). Items / minimum per kernel:
/// - `matmul` 1024×131·131×129 (square): AVX2 16 / 8, scalar 256 / 64;
/// - `transpose_matmul` (700×600)ᵀ·700×41 (tall): AVX2 19 / 9, scalar
///   150 / 64;
/// - `matmul_transpose` 1024×67·(261×67)ᵀ (square): AVX2 32 / 15, scalar
///   512 / 64;
/// - `syrk` 901×47: 29 AVX2 bands (15 pairs) / 6, 451 scalar bands (226
///   pairs) / 64. Both band counts are odd, so each path has a lone
///   middle band, and 901 rows leave the scalar path its one-row band.
fn compute_fingerprint() -> u64 {
    let mm = dense(1024, 131, 7).matmul(&dense(131, 129, 8));
    let tm = dense(700, 600, 9).transpose_matmul(&dense(700, 41, 10));
    let mt = dense(1024, 67, 13).matmul_transpose(&dense(261, 67, 11));
    let sy = dense(901, 47, 12).syrk();
    fingerprint(&[&mm, &tm, &mt, &sy])
}

#[test]
fn kernels_bitwise_invariant_across_thread_counts() {
    let mut paths = vec![DispatchPath::Scalar];
    if dispatch::avx2_available() {
        paths.push(DispatchPath::Avx2);
    }
    let mut per_path = Vec::new();
    for &path in &paths {
        let fps: Vec<u64> = [1, 2, 4]
            .into_iter()
            .map(|threads| {
                let pool = rayon::ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .expect("thread pool");
                dispatch::with_path(path, || pool.install(compute_fingerprint))
            })
            .collect();
        assert!(
            fps.iter().all(|&fp| fp == fps[0]),
            "[{path}] kernel output differs across pools of 1, 2 and 4: {fps:016x?}"
        );
        per_path.push(fps[0]);
    }
    if per_path.len() == 2 {
        // The two dispatch paths have different reduction contracts; if
        // they ever agreed the per-path golden split would be vestigial.
        assert_ne!(
            per_path[0], per_path[1],
            "scalar and avx2 paths produced identical bits on this workload"
        );
    }
}
