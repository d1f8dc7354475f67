//! Thread-count invariance of the dispatched GEMM kernels.
//!
//! Determinism contract (DESIGN.md §11, §16): every kernel must produce
//! bitwise identical output regardless of `RAYON_NUM_THREADS`, on *each*
//! dispatch path. The vendored rayon stand-in reads that variable once per
//! process, so each (thread count, kernel config) pair needs its own
//! process: the test re-execs its own binary as a child per combination,
//! each child prints an FNV-1a fingerprint of the kernel outputs, and the
//! parent asserts fingerprints match across thread counts within a config
//! (and, on AVX2+FMA hosts, that the two configs legitimately differ —
//! the per-path golden tables would be meaningless otherwise).

use e2gcl_linalg::hash::Fnv1a64;
use e2gcl_linalg::{dispatch, Matrix, SeedRng};
use std::process::Command;

const CHILD_ENV: &str = "E2GCL_THREAD_INVARIANCE_CHILD";

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

/// Fingerprint from a re-exec'd child pinned to (`config`, `threads`).
fn child_fingerprint(exe: &std::path::Path, config: &str, threads: &str) -> String {
    let out = Command::new(exe)
        .arg("kernels_bitwise_invariant_across_thread_counts")
        .arg("--exact")
        .arg("--nocapture")
        .env(CHILD_ENV, "1")
        .env("RAYON_NUM_THREADS", threads)
        .env(dispatch::CONFIG_ENV, config)
        .output()
        .expect("spawn child test process");
    assert!(
        out.status.success(),
        "child ({config}, {threads} threads) failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    // With --nocapture the marker can share a line with libtest output.
    let at = stdout
        .find("FP:")
        .unwrap_or_else(|| panic!("no FP marker in child output: {stdout}"));
    stdout[at + 3..at + 19].to_string()
}

#[test]
fn kernels_bitwise_invariant_across_thread_counts() {
    if std::env::var(CHILD_ENV).is_ok() {
        println!("FP:{:016x}", compute_fingerprint());
        return;
    }
    let exe = std::env::current_exe().expect("test binary path");
    let mut configs = vec!["scalar"];
    if dispatch::avx2_available() {
        configs.push("avx2");
    }
    let mut per_config = Vec::new();
    for config in &configs {
        let fp1 = child_fingerprint(&exe, config, "1");
        let fp4 = child_fingerprint(&exe, config, "4");
        assert_eq!(
            fp1, fp4,
            "[{config}] kernel output differs between RAYON_NUM_THREADS=1 and 4"
        );
        per_config.push(fp1);
    }
    if per_config.len() == 2 {
        // The two dispatch paths have different reduction contracts; if
        // they ever agreed the per-path golden split would be vestigial.
        assert_ne!(
            per_config[0], per_config[1],
            "scalar and avx2 paths produced identical bits on this workload"
        );
    }
    // The in-process pool (whatever its size and the ambient config) must
    // agree with the matching child config.
    let here = format!("{:016x}", compute_fingerprint());
    let ambient = match dispatch::current_path() {
        dispatch::DispatchPath::Scalar => 0,
        dispatch::DispatchPath::Avx2 => 1,
    };
    assert_eq!(
        per_config[ambient.min(per_config.len() - 1)],
        here,
        "parent fingerprint differs from children"
    );
}
