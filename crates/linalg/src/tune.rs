//! First-run kernel autotuner and the persisted `kernel_tune.json` format.
//!
//! The autotuner benchmarks a small grid of (tile geometry, rayon
//! parallel-grain) configurations per matrix-shape class — tall-skinny
//! embedding products, square-ish similarity blocks, and SpMM-style panels
//! — on the detected dispatch path, and persists the winner keyed by the
//! detected CPU feature set. Tile choices are pure performance knobs (they
//! never change per-element reduction order — see [`crate::simd`]), so a
//! tuned process produces bit-identical results to a default-tiled one on
//! the same path.
//!
//! Persistence follows the workspace's durable-file policy
//! ([`crate::durable`]): files are written atomically, a corrupt file is
//! quarantined to `<path>.corrupt` and re-tuned rather than panicking; a
//! file tuned under a feature set the host does not satisfy is ignored.
//! Version bumps of [`TUNE_VERSION`] invalidate old files the same way.
//! The library only *reads* tune files (see [`crate::dispatch`]); writing
//! happens here, driven by `kernel_bench` and `e2gcl kernels --tune`.

use crate::dispatch::{
    avx2_available, detected_features, DispatchPath, KernelConfigError, Selection, TileConfig,
};
use crate::durable::{self, DurableError};
use crate::matrix::Matrix;
use serde::{Deserialize, Serialize};
use std::path::Path;
use std::time::Instant;

/// Version of the persisted tune-file schema. Bump on incompatible change.
pub const TUNE_VERSION: u64 = 1;

/// The persisted autotune result.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct KernelTune {
    /// Must equal [`TUNE_VERSION`].
    pub version: u64,
    /// Dispatch path the tiles were tuned for (`scalar` | `avx2`).
    pub path: String,
    /// CPU features detected when tuning ran; the file only applies on
    /// hosts that still advertise all of them.
    pub features: Vec<String>,
    /// Tall-skinny dense outputs (n×d embedding products).
    pub tall: TileConfig,
    /// Square-ish dense outputs (similarity blocks).
    pub square: TileConfig,
    /// Sparse-times-dense panels (only `grain` and `mm_nv` apply).
    pub spmm: TileConfig,
}

impl KernelTune {
    /// The dispatch path this tune selects.
    pub fn dispatch_path(&self) -> Option<DispatchPath> {
        DispatchPath::parse(&self.path)
    }

    /// Whether this host still advertises every feature the tune was keyed
    /// by (and supports the tuned path at all).
    pub fn check_host(&self) -> Result<(), KernelConfigError> {
        let host = detected_features();
        let missing: Vec<&str> = self
            .features
            .iter()
            .map(String::as_str)
            .filter(|f| !host.contains(f))
            .collect();
        let path_ok = match self.dispatch_path() {
            Some(DispatchPath::Avx2) => avx2_available(),
            Some(DispatchPath::Scalar) => true,
            None => false,
        };
        if missing.is_empty() && path_ok {
            Ok(())
        } else {
            Err(KernelConfigError::FeatureMismatch {
                path: String::new(),
                file_features: self.features.join(","),
                host_features: host.join(","),
            })
        }
    }

    /// The [`Selection`] this tune resolves to.
    pub fn selection(&self) -> Selection {
        let path = self.dispatch_path().unwrap_or(DispatchPath::Scalar);
        Selection {
            path,
            tall: self.tall,
            square: self.square,
            spmm: self.spmm,
        }
    }
}

/// Parses and validates tune-file bytes. Every failure is
/// [`DurableError::Corrupt`] with a human-readable cause.
pub fn decode(bytes: &[u8]) -> Result<KernelTune, DurableError> {
    let corrupt = |why: String| Err(DurableError::Corrupt(why));
    let Ok(text) = std::str::from_utf8(bytes) else {
        return corrupt("tune file is not UTF-8".into());
    };
    let tune: KernelTune = match serde_json::from_str(text) {
        Ok(t) => t,
        Err(e) => return corrupt(format!("parse failed: {e:?}")),
    };
    if tune.version != TUNE_VERSION {
        return corrupt(format!(
            "version {} != supported {TUNE_VERSION}",
            tune.version
        ));
    }
    if tune.dispatch_path().is_none() {
        return corrupt(format!("unknown dispatch path `{}`", tune.path));
    }
    for (name, t) in [
        ("tall", &tune.tall),
        ("square", &tune.square),
        ("spmm", &tune.spmm),
    ] {
        if !t.is_valid() {
            return corrupt(format!("{name} tile config {t:?} names no compiled kernel"));
        }
    }
    Ok(tune)
}

/// Loads a tune file through [`durable::load`]: a file that reads but does
/// not [`decode`] is quarantined to `<path>.corrupt`.
pub fn load(path: &str) -> Result<KernelTune, DurableError> {
    durable::load(Path::new(path), decode)
}

/// Outcome of [`ensure`]: the active tune plus whether it was produced by
/// a fresh autotune run (vs. loaded from disk).
pub struct TuneOutcome {
    pub tune: KernelTune,
    pub tuned_now: bool,
    pub events: Vec<String>,
}

/// Loads a valid tune from `path`, or runs the autotuner and persists the
/// winner. Corrupt files are quarantined first; feature-mismatched files
/// are left in place and superseded by the fresh result.
pub fn ensure(path: &str) -> TuneOutcome {
    let mut events = Vec::new();
    if Path::new(path).is_file() {
        match load(path) {
            Ok(tune) if tune.check_host().is_ok() => {
                return TuneOutcome {
                    tune,
                    tuned_now: false,
                    events,
                };
            }
            Ok(_) => events.push(format!("{path}: feature set mismatch, retuning")),
            Err(e) => events.push(format!("{path}: {e}")),
        }
    }
    let tune = autotune();
    let persisted = serde_json::to_string(&tune)
        .map_err(|e| format!("{e:?}"))
        .and_then(|json| {
            durable::atomic_write(Path::new(path), json.as_bytes()).map_err(|e| e.to_string())
        });
    match persisted {
        Ok(()) => events.push(format!("autotuned and persisted {path}")),
        Err(e) => events.push(format!("autotune ok but persist to {path} failed: {e}")),
    }
    TuneOutcome {
        tune,
        tuned_now: true,
        events,
    }
}

/// Deterministic bench operand: values in [-1, 1), no RNG state needed.
fn bench_matrix(rows: usize, cols: usize) -> Matrix {
    let data: Vec<f32> = (0..rows * cols)
        .map(|i| ((i * 2_654_435_761_usize) & 0xffff) as f32 / 32768.0 - 1.0)
        .collect();
    Matrix::from_vec(rows, cols, data)
}

/// Times `f` (after one warm-up call) and returns the best of `reps` runs.
fn best_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

/// Sweeps dot geometries × grains on a representative `matmul_transpose`
/// shape, returning the fastest `(dot_mr, dot_nr, grain)`.
fn tune_dot_class(base: Selection, m: usize, n: usize, k: usize) -> (u8, u8, u8) {
    let a = bench_matrix(m, k);
    let b = bench_matrix(n, k);
    let mut out = Matrix::zeros(m, n);
    let mut best = (
        f64::INFINITY,
        TileConfig::AVX2.dot_mr,
        TileConfig::AVX2.dot_nr,
        1u8,
    );
    for &(mr, nr) in &TileConfig::DOT_GEOMETRIES {
        for &grain in &TileConfig::GRAINS {
            let mut sel = base;
            for t in [&mut sel.tall, &mut sel.square] {
                t.dot_mr = mr;
                t.dot_nr = nr;
                t.grain = grain;
            }
            let secs = crate::dispatch::with_selection(sel, || {
                best_secs(2, || a.matmul_transpose_into(&b, &mut out))
            });
            if secs < best.0 {
                best = (secs, mr, nr, grain);
            }
        }
    }
    (best.1, best.2, best.3)
}

/// Sweeps axpy-panel geometries on a representative `matmul` shape with a
/// fixed grain, returning the fastest `(mm_mr, mm_nv)`.
fn tune_mm_class(base: Selection, grain: u8, m: usize, k: usize, n: usize) -> (u8, u8) {
    let a = bench_matrix(m, k);
    let b = bench_matrix(k, n);
    let mut out = Matrix::zeros(m, n);
    let mut best = (
        f64::INFINITY,
        TileConfig::AVX2.mm_mr,
        TileConfig::AVX2.mm_nv,
    );
    for &(mr, nv) in &TileConfig::MM_GEOMETRIES {
        let mut sel = base;
        for t in [&mut sel.tall, &mut sel.square] {
            t.mm_mr = mr;
            t.mm_nv = nv;
            t.grain = grain;
        }
        let secs =
            crate::dispatch::with_selection(sel, || best_secs(2, || a.matmul_into(&b, &mut out)));
        if secs < best.0 {
            best = (secs, mr, nv);
        }
    }
    (best.1, best.2)
}

/// Benchmarks the tile/grain grid per shape class on the detected dispatch
/// path and returns the winning configuration (takes ~1–2 s). On the
/// scalar path only `grain` is swept: the scalar tiles are compile-time
/// constants, and grain 1 (today's chunking) always wins by construction
/// of the PR 4 kernels, so the scalar result is the [`Selection::SCALAR`]
/// defaults.
pub fn autotune() -> KernelTune {
    let base = Selection::detected_default();
    // Debug builds (tests) shrink the workloads: the sweep still exercises
    // every configuration, it just stops being a meaningful benchmark.
    let s = if cfg!(debug_assertions) { 8 } else { 1 };
    let (tall, square, spmm) = if base.path == DispatchPath::Avx2 {
        // Tall-skinny: embedding-style n×d against a d-row operand.
        let (t_mr, t_nr, t_grain) = tune_dot_class(base, 4096 / s, 192 / s, 64);
        let (t_mm_mr, t_mm_nv) = tune_mm_class(base, t_grain, 4096 / s, 64, 64);
        // Square-ish: similarity-block shapes.
        let (s_mr, s_nr, s_grain) = tune_dot_class(base, 768 / s, 768 / s, 128);
        let (s_mm_mr, s_mm_nv) = tune_mm_class(base, s_grain, 512 / s, 256 / s, 256 / s);
        let tall = TileConfig {
            mm_mr: t_mm_mr,
            mm_nv: t_mm_nv,
            dot_mr: t_mr,
            dot_nr: t_nr,
            grain: t_grain,
        };
        let square = TileConfig {
            mm_mr: s_mm_mr,
            mm_nv: s_mm_nv,
            dot_mr: s_mr,
            dot_nr: s_nr,
            grain: s_grain,
        };
        // SpMM panels share the axpy family; reuse the tall-class winner
        // for geometry and its grain for row batching.
        let spmm = tall;
        (tall, square, spmm)
    } else {
        (TileConfig::SCALAR, TileConfig::SCALAR, TileConfig::SCALAR)
    };
    KernelTune {
        version: TUNE_VERSION,
        path: base.path.as_str().to_string(),
        features: detected_features()
            .into_iter()
            .map(str::to_string)
            .collect(),
        tall,
        square,
        spmm,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> KernelTune {
        KernelTune {
            version: TUNE_VERSION,
            path: "scalar".to_string(),
            features: vec![],
            tall: TileConfig::SCALAR,
            square: TileConfig::SCALAR,
            spmm: TileConfig::SCALAR,
        }
    }

    #[test]
    fn tune_round_trips_through_json() {
        let t = sample();
        let json = serde_json::to_string(&t).unwrap();
        let back: KernelTune = serde_json::from_str(&json).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn load_rejects_bad_version_and_path() {
        let dir = std::env::temp_dir();
        let p = dir.join("e2gcl_tune_bad_version.json");
        let q = dir.join("e2gcl_tune_bad_version.json.corrupt");
        let mut t = sample();
        t.version = 999;
        durable::atomic_write(&p, serde_json::to_string(&t).unwrap().as_bytes()).unwrap();
        let err = load(p.to_str().unwrap()).unwrap_err().to_string();
        assert!(err.contains("version"), "{err}");

        let mut t = sample();
        t.path = "neon".to_string();
        durable::atomic_write(&p, serde_json::to_string(&t).unwrap().as_bytes()).unwrap();
        let err = load(p.to_str().unwrap()).unwrap_err().to_string();
        assert!(err.contains("path"), "{err}");
        assert!(
            q.is_file() && !p.exists(),
            "rejected tune file is quarantined"
        );
        let _ = std::fs::remove_file(&q);
    }

    #[test]
    fn ensure_quarantines_corrupt_file_and_retunes() {
        let dir = std::env::temp_dir();
        let p = dir.join("e2gcl_tune_corrupt.json");
        let q = dir.join("e2gcl_tune_corrupt.json.corrupt");
        let _ = std::fs::remove_file(&q);
        std::fs::write(&p, b"{not json").unwrap();
        let out = ensure(p.to_str().unwrap());
        assert!(out.tuned_now);
        assert!(q.is_file(), "corrupt file should be quarantined");
        assert!(load(p.to_str().unwrap()).is_ok(), "fresh tune persisted");
        let _ = std::fs::remove_file(&p);
        let _ = std::fs::remove_file(&q);
    }

    #[test]
    fn scalar_tune_selects_scalar_defaults() {
        let t = sample();
        assert_eq!(t.selection(), Selection::SCALAR);
        assert!(t.check_host().is_ok());
    }
}
