//! Dense-kernel throughput benchmark: GFLOP/s and wall time for the three
//! GEMM kernels (`matmul`, `transpose_matmul`, `matmul_transpose`), SpMM,
//! end-to-end `info_nce_with`, and one GRACE epoch.
//!
//! Every kernel is measured three times per shape (DESIGN.md §16):
//!
//! * `scalar` — a serial single-accumulator reference replicating the
//!   pre-PR-4 kernels bit-for-bit in structure,
//! * `blocked` — the library's blocked micro-kernels forced onto the
//!   scalar dispatch path (`Selection::SCALAR`), i.e. the pre-dispatch
//!   code path, and
//! * `simd` — the library under the *active* dispatch selection (AVX2+FMA
//!   with autotuned tiles where the host supports it; identical to
//!   `blocked` on scalar-only hosts).
//!
//! Full mode first runs the autotuner ([`e2gcl_linalg::tune::ensure`]),
//! persisting `kernel_tune.json` at the repo root, then measures under the
//! tuned selection; `E2GCL_KERNEL_CONFIG` overrides this (no tuning).
//! Detected CPU features, the dispatch path, selection source, and active
//! tile configuration are printed up front (captured into
//! `bench-logs/kernel_bench.log`) and recorded in `BENCH_kernels.json` —
//! top-level under `hardware`, and per entry as `dispatch`.
//!
//! ```sh
//! cargo run -p e2gcl-bench --bin kernel_bench --release              # full sweep
//! cargo run -p e2gcl-bench --bin kernel_bench --release -- --quick   # CI smoke
//! ```
//!
//! Full mode writes `BENCH_kernels.json` at the repo root (machine-readable
//! perf trajectory, tracked in git). Quick mode runs only the smallest
//! shape, writes to `target/bench-results/`, and **fails** (non-zero exit)
//! if the blocked kernels measure slower than `0.8x` the scalar reference,
//! if the committed `BENCH_kernels.json` is missing, unparsable, or records
//! a blocked/scalar ratio below `0.8x`, or if this run's GFLOP/s drops more
//! than 20% below a committed entry with matching (kernel, shape, dispatch
//! path). Committed `simd` baselines recorded on a path this host cannot
//! run are skipped with an explicit message, never failed.

use e2gcl::models::grace::GraceModel;
use e2gcl::prelude::*;
use e2gcl_bench::flags::{exit_usage, FlagSet};
use e2gcl_bench::report;
use e2gcl_graph::{CsrGraph, SparseMatrix};
use e2gcl_linalg::dispatch::{self, TileConfig};
use e2gcl_linalg::{ops, tune, Matrix, Selection};
use e2gcl_nn::loss::{self, InfoNceScratch};
use e2gcl_nn::{ContrastiveLoss, LocalizedInfoNce, Neighborhoods, SmallNegInfoNce};
use serde::Serialize;
use std::time::Instant;

/// Minimum acceptable blocked/scalar throughput ratio in quick (CI) mode.
const MIN_RATIO: f32 = 0.8;

/// Quick-mode regression gate: this run's GFLOP/s must be at least this
/// fraction of the committed value for matching (kernel, shape, dispatch)
/// entries — i.e. fail on a >20% throughput drop.
const MAX_DROP_RATIO: f64 = 0.8;

/// Quick-mode gate: small-negative-set fwd+bwd at [`GATE_N`] must cost at
/// most this fraction of the full quadratic kernel at the same n (the full
/// time is projected — see [`LossScalingEntry::projected`]).
const SMALLNEG_GATE_FRACTION: f64 = 0.25;
/// Committed-sweep gate: smallneg fwd+bwd at n=65536 must be at most this
/// multiple of its n=8192 time (O(n·k) predicts ~8×; the quadratic kernel
/// would be ~64×).
const SMALLNEG_SCALING_MAX: f64 = 10.0;
/// The n the quick-mode sub-quadratic gates run at.
const GATE_N: usize = 65536;

// ---------------------------------------------------------------------------
// Scalar reference kernels: the pre-PR single-accumulator serial loops.
// ---------------------------------------------------------------------------

/// Pre-PR `matmul` inner loop (ikj order, one accumulator per element).
fn ref_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let mut out = Matrix::zeros(m, n);
    for r in 0..m {
        let a_row = a.row(r);
        for (kk, &av) in a_row.iter().enumerate().take(k) {
            let b_row = b.row(kk);
            for (o, &bv) in out.row_mut(r).iter_mut().zip(b_row) {
                *o += av * bv;
            }
        }
    }
    out
}

/// Pre-PR `transpose_matmul`: ascending-row accumulation per output row.
fn ref_transpose_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let (k, m, n) = (a.rows(), a.cols(), b.cols());
    let mut out = Matrix::zeros(m, n);
    for c in 0..m {
        for r in 0..k {
            let av = a.get(r, c);
            let b_row = b.row(r);
            for (o, &bv) in out.row_mut(c).iter_mut().zip(b_row) {
                *o += av * bv;
            }
        }
    }
    out
}

/// Pre-PR `matmul_transpose`: serial scalar dot product per element.
fn ref_matmul_transpose(a: &Matrix, b: &Matrix) -> Matrix {
    let (m, n) = (a.rows(), b.rows());
    let mut out = Matrix::zeros(m, n);
    for i in 0..m {
        let a_row = a.row(i);
        for j in 0..n {
            let b_row = b.row(j);
            let mut acc = 0.0f32;
            for (&x, &y) in a_row.iter().zip(b_row) {
                acc += x * y;
            }
            out.set(i, j, acc);
        }
    }
    out
}

/// Pre-PR SpMM: serial per-row axpy over the stored entries.
fn ref_spmm(s: &SparseMatrix, x: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(s.rows(), x.cols());
    for r in 0..s.rows() {
        for (c, v) in s.row_entries(r) {
            let x_row = x.row(c);
            for (o, &xv) in out.row_mut(r).iter_mut().zip(x_row) {
                *o += v * xv;
            }
        }
    }
    out
}

/// Pre-PR symmetric NT-Xent (`info_nce`): serial normalisation, serial
/// scalar-dot similarity blocks, and the serial per-anchor triple loop with
/// axpy gradient accumulation.
fn ref_info_nce(z1: &Matrix, z2: &Matrix, tau: f32) -> (f32, Matrix, Matrix) {
    fn normalize(z: &Matrix) -> (Matrix, Vec<f32>) {
        let mut u = z.clone();
        let mut norms = Vec::with_capacity(z.rows());
        for r in 0..z.rows() {
            let nrm = ops::norm(z.row(r)).max(1e-12);
            norms.push(nrm);
            for v in u.row_mut(r) {
                *v /= nrm;
            }
        }
        (u, norms)
    }
    #[allow(clippy::too_many_arguments)]
    fn side(
        s_ab: &Matrix,
        s_aa: &Matrix,
        ua: &Matrix,
        ub: &Matrix,
        dua: &mut Matrix,
        dub: &mut Matrix,
        scale: f32,
        inv_tau: f32,
        loss: &mut f64,
    ) {
        let n = s_ab.rows();
        for i in 0..n {
            let mut mx = f32::NEG_INFINITY;
            for j in 0..n {
                mx = mx.max(s_ab.get(i, j));
                if j != i {
                    mx = mx.max(s_aa.get(i, j));
                }
            }
            let mut denom = 0.0f32;
            for j in 0..n {
                denom += (s_ab.get(i, j) - mx).exp();
                if j != i {
                    denom += (s_aa.get(i, j) - mx).exp();
                }
            }
            *loss += f64::from((mx + denom.ln() - s_ab.get(i, i)) * scale);
            for j in 0..n {
                let p = (s_ab.get(i, j) - mx).exp() / denom;
                let g = scale * (p - if i == j { 1.0 } else { 0.0 }) * inv_tau;
                ops::axpy_slice(dua.row_mut(i), g, ub.row(j));
                ops::axpy_slice(dub.row_mut(j), g, ua.row(i));
                if j != i {
                    let p = (s_aa.get(i, j) - mx).exp() / denom;
                    let g = scale * p * inv_tau;
                    ops::axpy_slice(dua.row_mut(i), g, ua.row(j));
                    ops::axpy_slice(dua.row_mut(j), g, ua.row(i));
                }
            }
        }
    }
    fn normalize_backward(u: &Matrix, norms: &[f32], du: &Matrix) -> Matrix {
        let mut dz = Matrix::zeros(u.rows(), u.cols());
        for (r, &norm_r) in norms.iter().enumerate() {
            let ur = u.row(r);
            let dur = du.row(r);
            let proj = ops::dot(dur, ur);
            for ((o, &d), &uv) in dz.row_mut(r).iter_mut().zip(dur).zip(ur) {
                *o = (d - proj * uv) / norm_r;
            }
        }
        dz
    }

    let n = z1.rows();
    let (u1, n1) = normalize(z1);
    let (u2, n2) = normalize(z2);
    let inv_tau = 1.0 / tau;
    let mut s12 = ref_matmul_transpose(&u1, &u2);
    let mut s11 = ref_matmul_transpose(&u1, &u1);
    let mut s22 = ref_matmul_transpose(&u2, &u2);
    s12.scale(inv_tau);
    s11.scale(inv_tau);
    s22.scale(inv_tau);
    let mut loss = 0.0f64;
    let mut du1 = Matrix::zeros(n, u1.cols());
    let mut du2 = Matrix::zeros(n, u2.cols());
    let scale = 1.0 / (2 * n) as f32;
    side(
        &s12, &s11, &u1, &u2, &mut du1, &mut du2, scale, inv_tau, &mut loss,
    );
    let s21 = s12.transpose();
    side(
        &s21, &s22, &u2, &u1, &mut du2, &mut du1, scale, inv_tau, &mut loss,
    );
    let d_z1 = normalize_backward(&u1, &n1, &du1);
    let d_z2 = normalize_backward(&u2, &n2, &du2);
    (loss as f32, d_z1, d_z2)
}

// ---------------------------------------------------------------------------
// Measurement harness
// ---------------------------------------------------------------------------

fn rand_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = SeedRng::new(seed);
    let mut m = Matrix::zeros(rows, cols);
    for v in m.as_mut_slice() {
        *v = rng.normal();
    }
    m
}

/// Best-of-`reps` wall time in milliseconds; `sink` defeats dead-code
/// elimination by folding one output element into a checksum.
fn time_best<F: FnMut() -> f32>(reps: usize, mut f: F) -> (f64, f32) {
    let mut best = f64::INFINITY;
    let mut sink = 0.0f32;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        sink += f();
        best = best.min(t.elapsed().as_secs_f64() * 1e3);
    }
    (best, sink)
}

/// Detected hardware + the selection every `simd` measurement ran under.
/// Serialised at the top of `BENCH_kernels.json` so committed numbers are
/// attributable to a concrete CPU feature set and tile configuration.
#[derive(Serialize)]
struct HardwareInfo {
    cpu_features: Vec<String>,
    /// Dispatch path of the `simd` tier (`scalar` | `avx2`).
    dispatch_path: String,
    /// Where the selection came from: autotuned this run, a loaded
    /// `kernel_tune.json`, an `E2GCL_KERNEL_CONFIG` override, or defaults.
    selection_source: String,
    tall_tiles: TileConfig,
    square_tiles: TileConfig,
    spmm_tiles: TileConfig,
}

#[derive(Serialize)]
struct GemmEntry {
    kernel: String,
    /// Output rows.
    m: usize,
    /// Output cols.
    n: usize,
    /// Reduction length.
    k: usize,
    reps: usize,
    /// Dispatch path of the `simd` columns (`scalar` | `avx2`).
    dispatch: String,
    scalar_ms: f64,
    blocked_ms: f64,
    simd_ms: f64,
    scalar_gflops: f64,
    blocked_gflops: f64,
    simd_gflops: f64,
    /// blocked/scalar throughput ratio.
    speedup: f64,
    /// simd/scalar throughput ratio.
    simd_speedup: f64,
}

#[derive(Serialize)]
struct SpmmEntry {
    n: usize,
    d: usize,
    nnz: usize,
    reps: usize,
    dispatch: String,
    scalar_ms: f64,
    blocked_ms: f64,
    simd_ms: f64,
    scalar_gflops: f64,
    blocked_gflops: f64,
    simd_gflops: f64,
    speedup: f64,
    simd_speedup: f64,
}

#[derive(Serialize)]
struct InfoNceEntry {
    n: usize,
    d: usize,
    reps: usize,
    dispatch: String,
    scalar_ms: f64,
    blocked_ms: f64,
    simd_ms: f64,
    speedup: f64,
    simd_speedup: f64,
}

#[derive(Clone, Serialize)]
struct LossScalingEntry {
    /// `full` | `smallneg` | `localized`.
    strategy: String,
    n: usize,
    d: usize,
    /// Negative-set size per anchor: k for smallneg, the mean neighbourhood
    /// size for localized, n (every other row) for full.
    k: usize,
    reps: usize,
    /// Dispatch path the strategy ran under.
    dispatch: String,
    /// Fused forward+backward wall time (loss + both gradients).
    fwd_bwd_ms: f64,
    /// True when the time was projected by n² scaling from the largest
    /// measured full shape instead of measured — full InfoNCE at n=65536
    /// would need four n×n f32 similarity blocks (~69 GB).
    projected: bool,
}

#[derive(Serialize)]
struct GraceEntry {
    dataset: String,
    nodes: usize,
    epochs: usize,
    dispatch: String,
    total_ms: f64,
    ms_per_epoch: f64,
}

#[derive(Serialize)]
struct KernelBenchDump {
    name: String,
    mode: String,
    hardware: HardwareInfo,
    gemm: Vec<GemmEntry>,
    spmm: Vec<SpmmEntry>,
    info_nce: Vec<InfoNceEntry>,
    loss_scaling: Vec<LossScalingEntry>,
    grace_epoch: Option<GraceEntry>,
}

/// Times `f` once per tier: under the forced-scalar selection (`blocked`)
/// and under `active` (`simd`). When `active` *is* the scalar path the two
/// tiers are the same code, so the blocked numbers are reused.
fn two_tier<F: FnMut() -> f32>(active: Selection, reps: usize, mut f: F) -> (f64, f64) {
    let (blocked_ms, _) = dispatch::with_selection(Selection::SCALAR, || time_best(reps, &mut f));
    let simd_ms = if active.path == dispatch::DispatchPath::Scalar {
        blocked_ms
    } else {
        dispatch::with_selection(active, || time_best(reps, &mut f)).0
    };
    (blocked_ms, simd_ms)
}

fn gemm_case(
    kernel: &str,
    n: usize,
    d: usize,
    reps: usize,
    ref_reps: usize,
    active: Selection,
) -> GemmEntry {
    let (a, b, m_out, n_out, k) = match kernel {
        // X(n x d) * W(d x d): the layer-forward shape.
        "matmul" => (rand_matrix(n, d, 1), rand_matrix(d, d, 2), n, d, d),
        // X^T(d x n) * G(n x d): the weight-gradient shape.
        "transpose_matmul" => (rand_matrix(n, d, 3), rand_matrix(n, d, 4), d, d, n),
        // Z(n x d) * Z'(n x d)^T: the InfoNCE similarity shape.
        "matmul_transpose" => (rand_matrix(n, d, 5), rand_matrix(n, d, 6), n, n, d),
        other => {
            eprintln!("unknown gemm kernel {other}");
            std::process::exit(2);
        }
    };
    let flops = 2.0 * m_out as f64 * n_out as f64 * k as f64;
    let (blocked_ms, simd_ms) = two_tier(active, reps, || match kernel {
        "matmul" => a.matmul(&b).get(0, 0),
        "transpose_matmul" => a.transpose_matmul(&b).get(0, 0),
        _ => a.matmul_transpose(&b).get(0, 0),
    });
    let (scalar_ms, _) = time_best(ref_reps, || match kernel {
        "matmul" => ref_matmul(&a, &b).get(0, 0),
        "transpose_matmul" => ref_transpose_matmul(&a, &b).get(0, 0),
        _ => ref_matmul_transpose(&a, &b).get(0, 0),
    });
    GemmEntry {
        kernel: kernel.to_string(),
        m: m_out,
        n: n_out,
        k,
        reps,
        dispatch: active.path.as_str().to_string(),
        scalar_ms,
        blocked_ms,
        simd_ms,
        scalar_gflops: flops / (scalar_ms * 1e6),
        blocked_gflops: flops / (blocked_ms * 1e6),
        simd_gflops: flops / (simd_ms * 1e6),
        speedup: scalar_ms / blocked_ms,
        simd_speedup: scalar_ms / simd_ms,
    }
}

/// Synthetic ring-of-cliques adjacency with ~`degree` entries per row.
fn synthetic_sparse(n: usize, degree: usize) -> SparseMatrix {
    let mut triplets = Vec::with_capacity(n * degree);
    for r in 0..n {
        for s in 0..degree {
            let c = (r + 1 + s * s) % n;
            triplets.push((r, c, 1.0 / degree as f32));
        }
    }
    SparseMatrix::from_triplets(n, n, &triplets)
}

fn spmm_case(n: usize, d: usize, reps: usize, active: Selection) -> SpmmEntry {
    let s = synthetic_sparse(n, 16);
    let x = rand_matrix(n, d, 7);
    let flops = 2.0 * s.nnz() as f64 * d as f64;
    let (blocked_ms, simd_ms) = two_tier(active, reps, || s.spmm(&x).get(0, 0));
    let (scalar_ms, _) = time_best(reps, || ref_spmm(&s, &x).get(0, 0));
    SpmmEntry {
        n,
        d,
        nnz: s.nnz(),
        reps,
        dispatch: active.path.as_str().to_string(),
        scalar_ms,
        blocked_ms,
        simd_ms,
        scalar_gflops: flops / (scalar_ms * 1e6),
        blocked_gflops: flops / (blocked_ms * 1e6),
        simd_gflops: flops / (simd_ms * 1e6),
        speedup: scalar_ms / blocked_ms,
        simd_speedup: scalar_ms / simd_ms,
    }
}

fn info_nce_case(
    n: usize,
    d: usize,
    reps: usize,
    ref_reps: usize,
    active: Selection,
) -> InfoNceEntry {
    let z1 = rand_matrix(n, d, 8);
    let z2 = rand_matrix(n, d, 9);
    let mut scratch = InfoNceScratch::default();
    // Warm the scratch so both library tiers measure the steady-state path.
    let _ = loss::info_nce_with(&z1, &z2, 0.5, &mut scratch);
    let (blocked_ms, simd_ms) = two_tier(active, reps, || {
        loss::info_nce_with(&z1, &z2, 0.5, &mut scratch)
    });
    let (scalar_ms, _) = time_best(ref_reps, || ref_info_nce(&z1, &z2, 0.5).0);
    InfoNceEntry {
        n,
        d,
        reps,
        dispatch: active.path.as_str().to_string(),
        scalar_ms,
        blocked_ms,
        simd_ms,
        speedup: scalar_ms / blocked_ms,
        simd_speedup: scalar_ms / simd_ms,
    }
}

// ---------------------------------------------------------------------------
// Contrastive-loss n-scaling sweep (DESIGN.md §15)
// ---------------------------------------------------------------------------

fn full_loss_case(n: usize, d: usize, reps: usize, active: Selection) -> LossScalingEntry {
    let z1 = rand_matrix(n, d, 12);
    let z2 = rand_matrix(n, d, 13);
    let mut s = InfoNceScratch::default();
    let fwd_bwd_ms = dispatch::with_selection(active, || {
        let _ = loss::info_nce_with(&z1, &z2, 0.5, &mut s);
        time_best(reps, || loss::info_nce_with(&z1, &z2, 0.5, &mut s)).0
    });
    LossScalingEntry {
        strategy: "full".to_string(),
        n,
        d,
        k: n,
        reps,
        dispatch: active.path.as_str().to_string(),
        fwd_bwd_ms,
        projected: false,
    }
}

/// Extrapolates the quadratic kernel to `n` from a measured smaller shape:
/// similarity work and memory are both Θ(n²·d), so wall time scales ~n²
/// at fixed d.
fn full_loss_projection(base: &LossScalingEntry, n: usize) -> LossScalingEntry {
    let ratio = (n as f64 / base.n as f64).powi(2);
    LossScalingEntry {
        strategy: "full".to_string(),
        n,
        d: base.d,
        k: n,
        reps: 0,
        dispatch: base.dispatch.clone(),
        fwd_bwd_ms: base.fwd_bwd_ms * ratio,
        projected: true,
    }
}

fn smallneg_loss_case(
    n: usize,
    d: usize,
    k: usize,
    reps: usize,
    active: Selection,
) -> LossScalingEntry {
    let z1 = rand_matrix(n, d, 12);
    let z2 = rand_matrix(n, d, 13);
    let k = k.min(n).max(1);
    // Evenly spread negative rows: strictly ascending for any k <= n.
    let negatives: Vec<usize> = (0..k).map(|i| i * n / k).collect();
    let mut strat = SmallNegInfoNce::new(0.5);
    strat.set_negatives(&negatives);
    let fwd_bwd_ms = dispatch::with_selection(active, || {
        let _ = strat.compute(&z1, &z2);
        time_best(reps, || strat.compute(&z1, &z2)).0
    });
    LossScalingEntry {
        strategy: "smallneg".to_string(),
        n,
        d,
        k,
        reps,
        dispatch: active.path.as_str().to_string(),
        fwd_bwd_ms,
        projected: false,
    }
}

fn localized_loss_case(
    n: usize,
    d: usize,
    degree: usize,
    reps: usize,
    active: Selection,
) -> LossScalingEntry {
    // Ring lattice: v connected to v±1..±(degree/2), so every 1-hop
    // neighbourhood has exactly `degree` negatives.
    let half = (degree / 2).max(1);
    let mut edges = Vec::with_capacity(n * half);
    for v in 0..n {
        for s in 1..=half {
            edges.push((v, (v + s) % n));
        }
    }
    let g = CsrGraph::from_edges(n, &edges);
    let nb = Neighborhoods::from_graph(&g, 1);
    let k = nb.nnz() / n.max(1);
    let z1 = rand_matrix(n, d, 12);
    let z2 = rand_matrix(n, d, 13);
    let mut strat = LocalizedInfoNce::new(0.5, nb);
    let fwd_bwd_ms = dispatch::with_selection(active, || {
        let _ = strat.compute(&z1, &z2);
        time_best(reps, || strat.compute(&z1, &z2)).0
    });
    LossScalingEntry {
        strategy: "localized".to_string(),
        n,
        d,
        k,
        reps,
        dispatch: active.path.as_str().to_string(),
        fwd_bwd_ms,
        projected: false,
    }
}

fn print_loss_scaling(entries: &[LossScalingEntry]) {
    println!(
        "{:<10} {:>8} {:>5} {:>6} {:>8} {:>13}",
        "strategy", "n", "d", "k", "disp", "fwd+bwd(ms)"
    );
    for e in entries {
        println!(
            "{:<10} {:>8} {:>5} {:>6} {:>8} {:>13.2}{}",
            e.strategy,
            e.n,
            e.d,
            e.k,
            e.dispatch,
            e.fwd_bwd_ms,
            if e.projected { "  (projected n²)" } else { "" }
        );
    }
}

fn grace_epoch_case(active: Selection) -> Option<GraceEntry> {
    let ds = match spec("cora-sim") {
        Ok(s) => s,
        Err(e) => {
            eprintln!("grace epoch bench: {e}");
            return None;
        }
    };
    let data = NodeDataset::generate(&ds, 1.0, 11);
    let epochs = 3usize;
    let cfg = TrainConfig {
        epochs,
        ..TrainConfig::default()
    };
    let model = GraceModel::grace();
    let t = Instant::now();
    let out = dispatch::with_selection(active, || {
        model.pretrain(&data.graph, &data.features, &cfg, &mut SeedRng::new(11))
    });
    let total_ms = t.elapsed().as_secs_f64() * 1e3;
    match out {
        Ok(_) => Some(GraceEntry {
            dataset: data.name.clone(),
            nodes: data.num_nodes(),
            epochs,
            dispatch: active.path.as_str().to_string(),
            total_ms,
            ms_per_epoch: total_ms / epochs as f64,
        }),
        Err(e) => {
            eprintln!("grace epoch bench failed: {e}");
            None
        }
    }
}

// ---------------------------------------------------------------------------
// Quick-mode CI checks
// ---------------------------------------------------------------------------

/// The subset of `BENCH_kernels.json` the CI gates inspect (extra fields in
/// the file are ignored by deserialisation). Optional fields keep the gate
/// tolerant of baselines committed before the dispatch PR.
#[derive(serde::Deserialize)]
struct BaselineHardware {
    #[serde(default)]
    cpu_features: Vec<String>,
    #[serde(default)]
    dispatch_path: String,
}

#[derive(serde::Deserialize)]
struct BaselineGemm {
    kernel: String,
    m: usize,
    n: usize,
    k: usize,
    speedup: f64,
    #[serde(default)]
    dispatch: Option<String>,
    #[serde(default)]
    blocked_gflops: Option<f64>,
    #[serde(default)]
    simd_gflops: Option<f64>,
}

#[derive(serde::Deserialize)]
struct BaselineSpmm {
    n: usize,
    d: usize,
    #[serde(default)]
    dispatch: Option<String>,
    #[serde(default)]
    blocked_gflops: Option<f64>,
    #[serde(default)]
    simd_gflops: Option<f64>,
}

#[derive(serde::Deserialize)]
struct BaselineLoss {
    strategy: String,
    n: usize,
    fwd_bwd_ms: f64,
}

#[derive(serde::Deserialize)]
struct BaselineDump {
    #[serde(default)]
    hardware: Option<BaselineHardware>,
    gemm: Vec<BaselineGemm>,
    #[serde(default)]
    spmm: Vec<BaselineSpmm>,
    #[serde(default)]
    loss_scaling: Vec<BaselineLoss>,
}

/// Validates the committed `BENCH_kernels.json`: it must parse, every
/// recorded gemm speedup must be at least [`MIN_RATIO`], and the recorded
/// loss n-scaling sweep must show the small-negative-set kernel scaling
/// sub-quadratically (n=8192 → n=65536 within [`SMALLNEG_SCALING_MAX`]×).
/// Returns the parsed baseline for the throughput-regression gate.
fn check_committed_baseline(path: &str) -> Result<BaselineDump, String> {
    let dump: BaselineDump = report::read_committed(path)?;
    if dump.gemm.is_empty() {
        return Err(format!("{path}: empty gemm array"));
    }
    for entry in &dump.gemm {
        if entry.speedup < f64::from(MIN_RATIO) {
            return Err(format!(
                "{path}: recorded {} speedup {:.2} is below {MIN_RATIO}",
                entry.kernel, entry.speedup
            ));
        }
    }
    let smallneg_at = |n: usize| {
        dump.loss_scaling
            .iter()
            .find(|e| e.strategy == "smallneg" && e.n == n)
            .map(|e| e.fwd_bwd_ms)
            .ok_or_else(|| format!("{path}: no smallneg loss_scaling entry at n={n}"))
    };
    let (small, base) = (smallneg_at(GATE_N)?, smallneg_at(8192)?);
    if small > base * SMALLNEG_SCALING_MAX {
        return Err(format!(
            "{path}: smallneg fwd+bwd grew {:.1}x from n=8192 to n={GATE_N} \
             (limit {SMALLNEG_SCALING_MAX}x — sub-quadratic scaling regressed)",
            small / base
        ));
    }
    Ok(dump)
}

/// The throughput-regression gate (DESIGN.md §16): this run's GFLOP/s must
/// stay within [`MAX_DROP_RATIO`] of every committed entry that matches on
/// kernel, shape, and dispatch path. Committed `simd` numbers recorded on a
/// dispatch path this host does not run are reported in `skips`, not
/// failed: the baseline stays meaningful on weaker CI hosts.
fn check_perf_vs_committed(
    run: &KernelBenchDump,
    base: &BaselineDump,
) -> (Vec<String>, Vec<String>) {
    let mut failures = Vec::new();
    let mut skips = Vec::new();
    if let Some(hw) = &base.hardware {
        let host = dispatch::detected_features();
        let missing: Vec<&str> = hw
            .cpu_features
            .iter()
            .map(String::as_str)
            .filter(|f| !host.contains(f))
            .collect();
        if !missing.is_empty() {
            skips.push(format!(
                "committed baseline was recorded with cpu features [{}] this host lacks \
                 [{}]; `{}`-path comparisons are skipped",
                hw.cpu_features.join(" "),
                missing.join(" "),
                hw.dispatch_path
            ));
        }
    }
    let mut gate = |label: String, dispatch_match: bool, committed: Option<f64>, measured: f64| {
        let Some(committed) = committed else { return };
        if !dispatch_match {
            skips.push(format!(
                "{label}: committed on a dispatch path this host does not run — skipped"
            ));
            return;
        }
        if measured < committed * MAX_DROP_RATIO {
            failures.push(format!(
                "{label}: {measured:.2} GF/s is a >20% drop from committed {committed:.2} GF/s"
            ));
        }
    };
    for b in &base.gemm {
        let Some(e) = run
            .gemm
            .iter()
            .find(|e| e.kernel == b.kernel && e.m == b.m && e.n == b.n && e.k == b.k)
        else {
            continue;
        };
        let shape = format!("{} m={} n={} k={}", b.kernel, b.m, b.n, b.k);
        gate(
            format!("{shape} [blocked]"),
            true,
            b.blocked_gflops,
            e.blocked_gflops,
        );
        let committed_disp = b.dispatch.as_deref().unwrap_or("scalar");
        gate(
            format!("{shape} [simd:{committed_disp}]"),
            committed_disp == e.dispatch,
            b.simd_gflops,
            e.simd_gflops,
        );
    }
    for b in &base.spmm {
        let Some(e) = run.spmm.iter().find(|e| e.n == b.n && e.d == b.d) else {
            continue;
        };
        let shape = format!("spmm n={} d={}", b.n, b.d);
        gate(
            format!("{shape} [blocked]"),
            true,
            b.blocked_gflops,
            e.blocked_gflops,
        );
        let committed_disp = b.dispatch.as_deref().unwrap_or("scalar");
        gate(
            format!("{shape} [simd:{committed_disp}]"),
            committed_disp == e.dispatch,
            b.simd_gflops,
            e.simd_gflops,
        );
    }
    (failures, skips)
}

fn print_gemm_table(entries: &[GemmEntry]) {
    println!(
        "{:<18} {:>6} {:>6} {:>6} {:>11} {:>11} {:>9} {:>8} {:>8} {:>9} {:>7}",
        "kernel",
        "m",
        "n",
        "k",
        "scalar(ms)",
        "blocked(ms)",
        "simd(ms)",
        "sc GF/s",
        "bl GF/s",
        "simd GF/s",
        "disp"
    );
    for e in entries {
        println!(
            "{:<18} {:>6} {:>6} {:>6} {:>11.2} {:>11.2} {:>9.2} {:>8.2} {:>8.2} {:>9.2} {:>7}",
            e.kernel,
            e.m,
            e.n,
            e.k,
            e.scalar_ms,
            e.blocked_ms,
            e.simd_ms,
            e.scalar_gflops,
            e.blocked_gflops,
            e.simd_gflops,
            e.dispatch
        );
    }
}

fn main() {
    let flags = FlagSet::new()
        .switch("quick")
        .valued("loss")
        .valued("negatives")
        .parse_env();
    let quick = flags.is_set("quick");
    // Which strategies the loss n-scaling sweep measures, and the smallneg
    // negative budget (mirrors the CLI's `--loss` / `--negatives`).
    let loss_filter = match flags.get_parse("loss", "all".to_string()) {
        Ok(v) if ["all", "full", "smallneg", "localized"].contains(&v.as_str()) => v,
        Ok(v) => exit_usage(format!(
            "--loss '{v}' (accepted: all, full, smallneg, localized)"
        )),
        Err(e) => exit_usage(e),
    };
    let neg_k = match flags.get_parse("negatives", 256usize) {
        Ok(k) if k > 0 => k,
        Ok(_) => exit_usage("--negatives must be > 0"),
        Err(e) => exit_usage(e),
    };
    let runs = |s: &str| loss_filter == "all" || loss_filter == s;
    let mode = if quick { "quick" } else { "full" };
    println!("kernel_bench — mode: {mode}");

    // Resolve the selection the `simd` tier runs under. An explicit
    // E2GCL_KERNEL_CONFIG always wins (and suppresses tuning); otherwise
    // full mode autotunes (persisting kernel_tune.json at the repo root)
    // and quick mode uses the library's normal resolution, which loads the
    // committed kernel_tune.json when present.
    if let Some(err) = dispatch::startup_error() {
        eprintln!("kernel_bench: {err}\n{}", dispatch::CONFIG_USAGE);
        std::process::exit(2);
    }
    for ev in dispatch::startup_events() {
        println!("[dispatch] {ev}");
    }
    let (active, source) = if std::env::var(dispatch::CONFIG_ENV).is_ok() || quick {
        (dispatch::active_selection(), dispatch::active_source())
    } else {
        let outcome = tune::ensure(dispatch::TUNE_FILE_DEFAULT);
        for ev in &outcome.events {
            println!("[tune] {ev}");
        }
        let src = if outcome.tuned_now {
            format!("autotuned this run -> {}", dispatch::TUNE_FILE_DEFAULT)
        } else {
            format!("loaded {}", dispatch::TUNE_FILE_DEFAULT)
        };
        (outcome.tune.selection(), src)
    };
    let hardware = HardwareInfo {
        cpu_features: dispatch::detected_features()
            .into_iter()
            .map(str::to_string)
            .collect(),
        dispatch_path: active.path.as_str().to_string(),
        selection_source: source,
        tall_tiles: active.tall,
        square_tiles: active.square,
        spmm_tiles: active.spmm,
    };
    println!(
        "cpu features: [{}]\ndispatch: {} (source: {})\ntiles: tall={:?} square={:?} spmm={:?}",
        hardware.cpu_features.join(" "),
        hardware.dispatch_path,
        hardware.selection_source,
        hardware.tall_tiles,
        hardware.square_tiles,
        hardware.spmm_tiles
    );

    let shapes: Vec<(usize, usize)> = if quick {
        vec![(512, 64)]
    } else {
        vec![
            (512, 64),
            (512, 256),
            (2048, 64),
            (2048, 256),
            (8192, 64),
            (8192, 256),
        ]
    };
    let spmm_shapes: Vec<(usize, usize)> = if quick {
        vec![(512, 64)]
    } else {
        vec![(512, 64), (2048, 64), (2048, 256), (8192, 256)]
    };
    let nce_shapes: Vec<(usize, usize)> = if quick {
        vec![(512, 64)]
    } else {
        vec![(512, 64), (512, 256), (2048, 64), (2048, 256)]
    };

    let mut gemm = Vec::new();
    for kernel in ["matmul", "transpose_matmul", "matmul_transpose"] {
        for &(n, d) in &shapes {
            let reps = if quick {
                3
            } else if n >= 8192 {
                2
            } else {
                4
            };
            let ref_reps = if n >= 8192 { 1 } else { reps.min(2) };
            gemm.push(gemm_case(kernel, n, d, reps, ref_reps, active));
        }
    }
    println!("\n=== dense GEMM kernels ===");
    print_gemm_table(&gemm);

    let spmm: Vec<SpmmEntry> = spmm_shapes
        .iter()
        .map(|&(n, d)| spmm_case(n, d, if quick { 3 } else { 4 }, active))
        .collect();
    println!("\n=== SpMM (avg degree 16) ===");
    for e in &spmm {
        println!(
            "n={:<6} d={:<4} nnz={:<8} scalar {:>8.2} ms / blocked {:>8.2} ms / simd {:>8.2} ms  \
             ({:.2} -> {:.2} -> {:.2} GF/s, {})",
            e.n,
            e.d,
            e.nnz,
            e.scalar_ms,
            e.blocked_ms,
            e.simd_ms,
            e.scalar_gflops,
            e.blocked_gflops,
            e.simd_gflops,
            e.dispatch
        );
    }

    let info_nce: Vec<InfoNceEntry> = nce_shapes
        .iter()
        .map(|&(n, d)| {
            let reps = if quick || n >= 2048 { 2 } else { 3 };
            info_nce_case(n, d, reps, if n >= 2048 { 1 } else { 2 }, active)
        })
        .collect();
    println!("\n=== info_nce_with end to end ===");
    for e in &info_nce {
        println!(
            "n={:<6} d={:<4} scalar {:>9.2} ms / blocked {:>9.2} ms / simd {:>9.2} ms  \
             ({:.2}x -> {:.2}x, {})",
            e.n, e.d, e.scalar_ms, e.blocked_ms, e.simd_ms, e.speedup, e.simd_speedup, e.dispatch
        );
    }

    // Contrastive-loss n-scaling: full is measured only while its four n×n
    // similarity blocks fit comfortably in RAM, then projected by n²; the
    // sub-quadratic kernels are measured end to end, including at n=65536.
    let mut loss_scaling: Vec<LossScalingEntry> = Vec::new();
    let loss_d = 64;
    if quick {
        if runs("full") {
            let base = full_loss_case(8192, loss_d, 1, active);
            loss_scaling.push(full_loss_projection(&base, GATE_N));
            loss_scaling.push(base);
        }
        if runs("smallneg") {
            loss_scaling.push(smallneg_loss_case(GATE_N, loss_d, neg_k, 2, active));
        }
        if runs("localized") {
            loss_scaling.push(localized_loss_case(GATE_N, loss_d, 16, 2, active));
        }
    } else {
        let mut full_base: Option<LossScalingEntry> = None;
        for n in [2048usize, 8192, 16384, 65536] {
            if runs("full") {
                if n <= 16384 {
                    let e = full_loss_case(n, loss_d, if n >= 8192 { 1 } else { 2 }, active);
                    full_base = Some(e.clone());
                    loss_scaling.push(e);
                } else if let Some(base) = &full_base {
                    loss_scaling.push(full_loss_projection(base, n));
                }
            }
            if runs("smallneg") {
                loss_scaling.push(smallneg_loss_case(n, loss_d, neg_k, 2, active));
            }
            if runs("localized") {
                loss_scaling.push(localized_loss_case(n, loss_d, 16, 2, active));
            }
        }
    }
    if !loss_scaling.is_empty() {
        println!("\n=== contrastive loss n-scaling (fused fwd+bwd) ===");
        print_loss_scaling(&loss_scaling);
    }

    let grace_epoch = if quick {
        None
    } else {
        grace_epoch_case(active)
    };
    if let Some(g) = &grace_epoch {
        println!(
            "\n=== GRACE epoch ({} @ {} nodes, {} path) ===\n{} epochs in {:.1} ms -> {:.1} ms/epoch",
            g.dataset, g.nodes, g.dispatch, g.epochs, g.total_ms, g.ms_per_epoch
        );
    }

    let dump = KernelBenchDump {
        name: "kernel_bench".to_string(),
        mode: mode.to_string(),
        hardware,
        gemm,
        spmm,
        info_nce,
        loss_scaling,
        grace_epoch,
    };
    report::write_json(
        if quick {
            "kernel_bench_quick"
        } else {
            "kernel_bench"
        },
        &dump,
    );

    if quick {
        // CI gate 1: the blocked kernels measured in this run must not be
        // slower than MIN_RATIO x the scalar reference measured in this run.
        let mut failed = false;
        for e in &dump.gemm {
            if e.speedup < f64::from(MIN_RATIO) {
                eprintln!(
                    "FAIL: {} at m={} n={} k={} measured {:.2}x (< {MIN_RATIO}x scalar baseline)",
                    e.kernel, e.m, e.n, e.k, e.speedup
                );
                failed = true;
            }
        }
        // CI gate 2: smallneg at n=65536 must cost at most
        // SMALLNEG_GATE_FRACTION of the full quadratic kernel at the same n
        // (projected from the measured n=8192 run in this same process).
        let ms_of = |strategy: &str, projected: bool| {
            dump.loss_scaling
                .iter()
                .find(|e| e.strategy == strategy && e.n == GATE_N && e.projected == projected)
                .map(|e| e.fwd_bwd_ms)
        };
        if let (Some(small), Some(full)) = (ms_of("smallneg", false), ms_of("full", true)) {
            if small > full * SMALLNEG_GATE_FRACTION {
                eprintln!(
                    "FAIL: smallneg fwd+bwd at n={GATE_N} took {small:.1} ms, more than \
                     {SMALLNEG_GATE_FRACTION}x the projected full kernel ({full:.1} ms)"
                );
                failed = true;
            }
        } else if loss_filter == "all" {
            eprintln!("FAIL: quick loss-scaling sweep missing its gate entries");
            failed = true;
        }
        // CI gates 3+4: the committed trajectory file must parse and be
        // self-consistent, and this run's throughput must not regress >20%
        // against committed entries matching (kernel, shape, dispatch).
        match check_committed_baseline("BENCH_kernels.json") {
            Ok(baseline) => {
                let (perf_failures, perf_skips) = check_perf_vs_committed(&dump, &baseline);
                for s in &perf_skips {
                    println!("SKIP: {s}");
                }
                for f in &perf_failures {
                    eprintln!("FAIL: {f}");
                    failed = true;
                }
            }
            Err(e) => {
                eprintln!("FAIL: {e}");
                failed = true;
            }
        }
        if failed {
            std::process::exit(1);
        }
        println!(
            "quick-mode checks passed (blocked >= {MIN_RATIO}x scalar; smallneg <= \
             {SMALLNEG_GATE_FRACTION}x full at n={GATE_N}; BENCH_kernels.json ok; \
             no >20% GFLOP/s regression vs committed)"
        );
    } else if let Err(e) = report::write_record("BENCH_kernels.json", &dump) {
        eprintln!("{e}");
        std::process::exit(1);
    }
}
