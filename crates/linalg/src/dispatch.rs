//! Runtime kernel dispatch: CPU feature detection, the per-shape-class tile
//! configuration, and resolution of the `E2GCL_KERNEL_CONFIG` override.
//!
//! # Resolution order (fixed, documented in DESIGN.md §16)
//!
//! 1. `E2GCL_KERNEL_CONFIG=scalar` — force the PR 4 scalar blocked path.
//! 2. `E2GCL_KERNEL_CONFIG=avx2` — force the AVX2+FMA path with default
//!    tiles; a typed [`KernelConfigError::FeatureUnavailable`] is recorded
//!    (and the library falls back to scalar) if the host lacks AVX2+FMA.
//! 3. `E2GCL_KERNEL_CONFIG=<path>` — load a persisted [`tune`] file. A
//!    missing or corrupt explicitly-named file is a typed error (corrupt
//!    files are quarantined to `<path>.corrupt` first by
//!    [`crate::durable::load`], like every durable file); the library
//!    falls back to detected defaults and the CLI turns the recorded error
//!    into a usage message + exit.
//! 4. Unset — load `./kernel_tune.json` if present and valid for the
//!    detected feature set. A corrupt implicit file is quarantined and a
//!    feature-mismatched one ignored (both recorded as [`events`]); either
//!    way resolution continues with detected defaults. The library never
//!    *writes* the tune file — only `kernel_bench` (first-run autotune) and
//!    `e2gcl kernels --tune` do, via [`crate::tune::ensure`].
//!
//! Resolution runs once per process ([`std::sync::OnceLock`]) so every
//! kernel in the process agrees on the path. Tests pin a configuration
//! without env vars via [`with_selection`], which installs a thread-local
//! override — kernel entry points capture [`current`] **once on the calling
//! thread** and pass the `Copy` [`Selection`] into rayon workers (the
//! vendored rayon spawns fresh OS threads that do not inherit thread-locals).
//!
//! [`tune`]: crate::tune

use crate::durable::DurableError;
use serde::{Deserialize, Serialize};
use std::cell::Cell;
use std::fmt;
use std::sync::OnceLock;

/// Environment variable overriding kernel dispatch (`scalar`, `avx2`, or a
/// path to a persisted `kernel_tune.json`).
pub const CONFIG_ENV: &str = "E2GCL_KERNEL_CONFIG";

/// Default tune-file name probed in the working directory when
/// [`CONFIG_ENV`] is unset.
pub const TUNE_FILE_DEFAULT: &str = "kernel_tune.json";

/// One-line usage blurb for [`CONFIG_ENV`], shared by the CLI and bench
/// error paths.
pub const CONFIG_USAGE: &str =
    "E2GCL_KERNEL_CONFIG accepts `scalar`, `avx2`, or a path to a kernel_tune.json \
     produced by `kernel_bench` or `e2gcl kernels --tune`";

/// Which micro-kernel family executes the dense hot path. Within a path,
/// every tile configuration is bit-identical (tile geometry never changes
/// per-element reduction order); across paths bits differ (the AVX2 path
/// uses the 8-lane fused contract of [`crate::simd::model`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DispatchPath {
    /// PR 4 scalar blocked kernels (the `ops::lane_dot` 4-lane contract).
    Scalar,
    /// AVX2+FMA micro-kernels (the `simd::model::lane_dot8` contract).
    Avx2,
}

impl DispatchPath {
    pub fn as_str(self) -> &'static str {
        match self {
            DispatchPath::Scalar => "scalar",
            DispatchPath::Avx2 => "avx2",
        }
    }

    pub fn parse(s: &str) -> Option<DispatchPath> {
        match s {
            "scalar" => Some(DispatchPath::Scalar),
            "avx2" => Some(DispatchPath::Avx2),
            _ => None,
        }
    }

    /// Path-routed `lane_dot`: the element-level similarity kernel used by
    /// `matmul_transpose` / `syrk` / the fused InfoNCE losses / serve
    /// re-ranking. Callers inside rayon workers must use a path captured
    /// before the parallel region, not [`current_path`].
    #[inline]
    pub fn lane_dot(self, a: &[f32], b: &[f32]) -> f32 {
        match self {
            DispatchPath::Scalar => crate::ops::lane_dot(a, b),
            DispatchPath::Avx2 => {
                #[cfg(target_arch = "x86_64")]
                {
                    crate::simd::call::lane_dot8(a, b)
                }
                #[cfg(not(target_arch = "x86_64"))]
                crate::ops::lane_dot(a, b)
            }
        }
    }

    /// Path-routed `lane_dot4`: one query row against four stored rows,
    /// each result bit-identical to [`DispatchPath::lane_dot`] of that row.
    #[inline]
    pub fn lane_dot4(self, a: &[f32], b0: &[f32], b1: &[f32], b2: &[f32], b3: &[f32]) -> [f32; 4] {
        match self {
            DispatchPath::Scalar => crate::ops::lane_dot4(a, b0, b1, b2, b3),
            DispatchPath::Avx2 => {
                #[cfg(target_arch = "x86_64")]
                {
                    crate::simd::call::lane_dot4(a, b0, b1, b2, b3)
                }
                #[cfg(not(target_arch = "x86_64"))]
                crate::ops::lane_dot4(a, b0, b1, b2, b3)
            }
        }
    }
}

impl fmt::Display for DispatchPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Tile/grain configuration for one matrix-shape class. Geometry fields
/// select among compiled micro-kernel instantiations; `grain` scales how
/// many tile-rows one rayon work item covers. None of these affect bits —
/// they are pure performance knobs (see module docs of [`crate::simd`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TileConfig {
    /// Axpy-panel rows (`matmul` / `transpose_matmul` register tile).
    pub mm_mr: u8,
    /// Axpy-panel width in ymm vectors (8 columns each).
    pub mm_nv: u8,
    /// Dot-tile rows (`matmul_transpose` / `syrk`).
    pub dot_mr: u8,
    /// Dot-tile columns.
    pub dot_nr: u8,
    /// Tile-row groups per rayon work item.
    pub grain: u8,
}

impl TileConfig {
    /// Dot-tile geometries the AVX2 kernels are compiled for.
    pub const DOT_GEOMETRIES: [(u8, u8); 3] = [(1, 4), (2, 4), (4, 2)];
    /// Axpy-panel geometries the AVX2 kernels are compiled for.
    pub const MM_GEOMETRIES: [(u8, u8); 3] = [(2, 4), (4, 2), (4, 1)];
    /// Parallel-grain candidates the autotuner sweeps.
    pub const GRAINS: [u8; 3] = [1, 4, 16];

    /// Scalar-path default: grain 1 reproduces the PR 4 chunking exactly
    /// (geometry fields are unused — the scalar tiles are compile-time
    /// constants in `matrix.rs`).
    pub const SCALAR: TileConfig = TileConfig {
        mm_mr: 4,
        mm_nv: 2,
        dot_mr: 2,
        dot_nr: 4,
        grain: 1,
    };

    /// AVX2-path default before any autotune has run.
    pub const AVX2: TileConfig = TileConfig {
        mm_mr: 4,
        mm_nv: 2,
        dot_mr: 2,
        dot_nr: 4,
        grain: 4,
    };

    /// Whether the geometry fields name compiled kernel instantiations.
    pub fn is_valid(&self) -> bool {
        Self::DOT_GEOMETRIES.contains(&(self.dot_mr, self.dot_nr))
            && Self::MM_GEOMETRIES.contains(&(self.mm_mr, self.mm_nv))
            && self.grain >= 1
    }
}

/// Matrix-shape classes the autotuner distinguishes. Classification keys on
/// the *output* aspect ratio: embedding-style products (n×d against d×d,
/// n ≫ d) behave differently from square-ish similarity blocks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShapeClass {
    /// Output at least 8× taller than wide (or wider than tall).
    TallSkinny,
    /// Everything else dense.
    Square,
    /// Sparse-times-dense panels.
    Spmm,
}

impl ShapeClass {
    /// Classifies a dense output of `rows x cols`.
    #[inline]
    pub fn of_output(rows: usize, cols: usize) -> ShapeClass {
        if rows >= 8 * cols.max(1) || cols >= 8 * rows.max(1) {
            ShapeClass::TallSkinny
        } else {
            ShapeClass::Square
        }
    }

    pub fn as_str(self) -> &'static str {
        match self {
            ShapeClass::TallSkinny => "tall",
            ShapeClass::Square => "square",
            ShapeClass::Spmm => "spmm",
        }
    }
}

/// The full resolved kernel configuration: one dispatch path plus a tile
/// config per shape class. Small and `Copy` so kernel entry points can
/// capture it once and move it into rayon closures by value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Selection {
    pub path: DispatchPath,
    pub tall: TileConfig,
    pub square: TileConfig,
    pub spmm: TileConfig,
}

impl Selection {
    pub const SCALAR: Selection = Selection {
        path: DispatchPath::Scalar,
        tall: TileConfig::SCALAR,
        square: TileConfig::SCALAR,
        spmm: TileConfig::SCALAR,
    };

    pub const AVX2: Selection = Selection {
        path: DispatchPath::Avx2,
        tall: TileConfig::AVX2,
        square: TileConfig::AVX2,
        spmm: TileConfig::AVX2,
    };

    /// The default selection for the detected feature set.
    pub fn detected_default() -> Selection {
        if avx2_available() {
            Selection::AVX2
        } else {
            Selection::SCALAR
        }
    }

    /// Tile config for a dense output of `rows x cols`.
    #[inline]
    pub fn tiles_for(&self, rows: usize, cols: usize) -> TileConfig {
        match ShapeClass::of_output(rows, cols) {
            ShapeClass::TallSkinny => self.tall,
            _ => self.square,
        }
    }
}

/// True when the host supports both AVX2 and FMA (the feature pair every
/// kernel in [`crate::simd::avx2`] is compiled for).
pub fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The CPU feature names relevant to dispatch that this host advertises, in
/// a fixed order (recorded in bench artifacts and the tune file).
pub fn detected_features() -> Vec<&'static str> {
    let mut out = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("sse4.2") {
            out.push("sse4.2");
        }
        if std::arch::is_x86_feature_detected!("avx") {
            out.push("avx");
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            out.push("avx2");
        }
        if std::arch::is_x86_feature_detected!("fma") {
            out.push("fma");
        }
        if std::arch::is_x86_feature_detected!("avx512f") {
            out.push("avx512f");
        }
    }
    out
}

/// Typed failures resolving the kernel configuration. The library never
/// panics on these: it records the error, falls back to a safe selection,
/// and lets the CLI/bench front-ends surface it (see [`startup_error`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KernelConfigError {
    /// `E2GCL_KERNEL_CONFIG` named a path that does not exist and is not a
    /// recognised keyword.
    MissingFile { path: String },
    /// An explicitly-named tune file failed to parse or validate; it has
    /// been quarantined to `<path>.corrupt` when possible.
    Corrupt {
        path: String,
        cause: String,
        quarantined_to: Option<String>,
    },
    /// An explicitly-named tune file was produced under a feature set this
    /// host does not satisfy (e.g. an `avx2` tune on a scalar-only host).
    FeatureMismatch {
        path: String,
        file_features: String,
        host_features: String,
    },
    /// `E2GCL_KERNEL_CONFIG=avx2` on a host without AVX2+FMA.
    FeatureUnavailable { requested: String },
}

impl fmt::Display for KernelConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KernelConfigError::MissingFile { path } => {
                write!(f, "kernel config `{path}` is not a file (and not a keyword)")
            }
            KernelConfigError::Corrupt {
                path,
                cause,
                quarantined_to,
            } => match quarantined_to {
                Some(q) => write!(f, "kernel tune file {path} is corrupt ({cause}); quarantined to {q}"),
                None => write!(f, "kernel tune file {path} is corrupt ({cause})"),
            },
            KernelConfigError::FeatureMismatch {
                path,
                file_features,
                host_features,
            } => write!(
                f,
                "kernel tune file {path} was tuned for [{file_features}] but this host has [{host_features}]"
            ),
            KernelConfigError::FeatureUnavailable { requested } => {
                write!(f, "kernel path `{requested}` requires AVX2+FMA, which this host lacks")
            }
        }
    }
}

impl std::error::Error for KernelConfigError {}

/// Where the active selection came from (recorded in bench artifacts).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SelectionSource {
    /// Detected defaults, no tune file involved.
    Default,
    /// Forced by `E2GCL_KERNEL_CONFIG=scalar|avx2`.
    Env(&'static str),
    /// Loaded from a persisted tune file.
    File(String),
}

impl fmt::Display for SelectionSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SelectionSource::Default => f.write_str("detected-default"),
            SelectionSource::Env(v) => write!(f, "env:{v}"),
            SelectionSource::File(p) => write!(f, "file:{p}"),
        }
    }
}

#[derive(Debug)]
struct Resolved {
    selection: Selection,
    source: SelectionSource,
    error: Option<KernelConfigError>,
    events: Vec<String>,
}

static RESOLVED: OnceLock<Resolved> = OnceLock::new();

fn resolve() -> Resolved {
    match std::env::var(CONFIG_ENV) {
        Ok(v) if v == "scalar" => Resolved {
            selection: Selection::SCALAR,
            source: SelectionSource::Env("scalar"),
            error: None,
            events: Vec::new(),
        },
        Ok(v) if v == "avx2" => {
            if avx2_available() {
                Resolved {
                    selection: Selection::AVX2,
                    source: SelectionSource::Env("avx2"),
                    error: None,
                    events: Vec::new(),
                }
            } else {
                Resolved {
                    selection: Selection::SCALAR,
                    source: SelectionSource::Default,
                    error: Some(KernelConfigError::FeatureUnavailable {
                        requested: "avx2".to_string(),
                    }),
                    events: vec!["forced avx2 unavailable; fell back to scalar".to_string()],
                }
            }
        }
        Ok(path) => resolve_explicit_file(&path),
        Err(_) => resolve_implicit(),
    }
}

/// `E2GCL_KERNEL_CONFIG=<path>`: failures are typed errors (fatal at the
/// CLI), but the library still gets a working fallback selection.
fn resolve_explicit_file(path: &str) -> Resolved {
    if !std::path::Path::new(path).is_file() {
        return Resolved {
            selection: Selection::detected_default(),
            source: SelectionSource::Default,
            error: Some(KernelConfigError::MissingFile {
                path: path.to_string(),
            }),
            events: Vec::new(),
        };
    }
    match crate::tune::load(path) {
        Ok(tune) => match tune.check_host() {
            Ok(()) => Resolved {
                selection: tune.selection(),
                source: SelectionSource::File(path.to_string()),
                error: None,
                events: Vec::new(),
            },
            Err(err) => Resolved {
                selection: Selection::detected_default(),
                source: SelectionSource::Default,
                error: Some(err),
                events: Vec::new(),
            },
        },
        Err(err) => {
            let (cause, quarantined_to) = match err {
                DurableError::Quarantined {
                    quarantined_to,
                    cause,
                } => (cause.to_string(), Some(quarantined_to)),
                other => (other.to_string(), None),
            };
            Resolved {
                selection: Selection::detected_default(),
                source: SelectionSource::Default,
                error: Some(KernelConfigError::Corrupt {
                    path: path.to_string(),
                    cause,
                    quarantined_to,
                }),
                events: Vec::new(),
            }
        }
    }
}

/// No env override: probe `./kernel_tune.json`, degrading gracefully —
/// corrupt files are quarantined, mismatched ones ignored, and either way
/// the process continues on detected defaults (retuning happens on the next
/// `kernel_bench` / `e2gcl kernels --tune` run, never here).
fn resolve_implicit() -> Resolved {
    let path = TUNE_FILE_DEFAULT;
    if !std::path::Path::new(path).is_file() {
        return Resolved {
            selection: Selection::detected_default(),
            source: SelectionSource::Default,
            error: None,
            events: Vec::new(),
        };
    }
    match crate::tune::load(path) {
        Ok(tune) => match tune.check_host() {
            Ok(()) => Resolved {
                selection: tune.selection(),
                source: SelectionSource::File(path.to_string()),
                error: None,
                events: Vec::new(),
            },
            Err(err) => Resolved {
                selection: Selection::detected_default(),
                source: SelectionSource::Default,
                error: None,
                events: vec![format!("ignored {path}: {err}")],
            },
        },
        Err(err) => Resolved {
            selection: Selection::detected_default(),
            source: SelectionSource::Default,
            error: None,
            events: vec![format!("{path}: {err}; will retune")],
        },
    }
}

fn resolved() -> &'static Resolved {
    RESOLVED.get_or_init(resolve)
}

/// The process-wide selection (resolution order in the module docs).
pub fn active_selection() -> Selection {
    resolved().selection
}

/// Where [`active_selection`] came from, for artifact attribution.
pub fn active_source() -> String {
    resolved().source.to_string()
}

/// The typed configuration error recorded during resolution, if any. The
/// CLI checks this at startup and turns it into a usage message + exit
/// instead of silently running on the fallback selection.
pub fn startup_error() -> Option<&'static KernelConfigError> {
    resolved().error.as_ref()
}

/// Non-fatal resolution events (quarantines, ignored mismatched files).
pub fn startup_events() -> &'static [String] {
    &resolved().events
}

thread_local! {
    static OVERRIDE: Cell<Option<Selection>> = const { Cell::new(None) };
}

struct OverrideGuard(Option<Selection>);

impl Drop for OverrideGuard {
    fn drop(&mut self) {
        OVERRIDE.with(|c| c.set(self.0));
    }
}

/// Runs `f` with `sel` as the current selection on this thread (restored on
/// exit, including unwind). Used by tests and the autotuner to pin a
/// configuration without touching the environment. The override is
/// thread-local by design: kernel entry points capture [`current`] on the
/// calling thread before fanning out to rayon workers.
pub fn with_selection<R>(sel: Selection, f: impl FnOnce() -> R) -> R {
    let _guard = OverrideGuard(OVERRIDE.with(|c| c.replace(Some(sel))));
    f()
}

/// The selection kernel entry points should capture: the thread-local
/// override if one is installed, else the process-wide resolution.
#[inline]
pub fn current() -> Selection {
    OVERRIDE.with(|c| c.get()).unwrap_or_else(active_selection)
}

/// Shorthand for `current().path`.
#[inline]
pub fn current_path() -> DispatchPath {
    current().path
}

/// Dispatched `lane_dot` for call sites *outside* parallel regions. Inside
/// rayon closures, capture [`current_path`] first and call the method on it.
#[inline]
pub fn lane_dot(a: &[f32], b: &[f32]) -> f32 {
    current_path().lane_dot(a, b)
}

/// Dispatched `lane_dot4`; same thread-capture caveat as [`lane_dot`].
#[inline]
pub fn lane_dot4(a: &[f32], b0: &[f32], b1: &[f32], b2: &[f32], b3: &[f32]) -> [f32; 4] {
    current_path().lane_dot4(a, b0, b1, b2, b3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_classes() {
        assert_eq!(ShapeClass::of_output(4096, 64), ShapeClass::TallSkinny);
        assert_eq!(ShapeClass::of_output(64, 4096), ShapeClass::TallSkinny);
        assert_eq!(ShapeClass::of_output(512, 512), ShapeClass::Square);
        assert_eq!(ShapeClass::of_output(512, 256), ShapeClass::Square);
        assert_eq!(ShapeClass::of_output(0, 0), ShapeClass::Square);
    }

    #[test]
    fn defaults_are_valid() {
        assert!(TileConfig::SCALAR.is_valid());
        assert!(TileConfig::AVX2.is_valid());
    }

    #[test]
    fn with_selection_overrides_and_restores() {
        let base = current();
        with_selection(Selection::SCALAR, || {
            assert_eq!(current().path, DispatchPath::Scalar);
            with_selection(Selection::AVX2, || {
                assert_eq!(current().path, DispatchPath::Avx2);
            });
            assert_eq!(current().path, DispatchPath::Scalar);
        });
        assert_eq!(current(), base);
    }

    #[test]
    fn scalar_lane_dot_matches_ops() {
        let a: Vec<f32> = (0..23).map(|i| (i as f32).sin()).collect();
        let b: Vec<f32> = (0..23).map(|i| (i as f32).cos()).collect();
        assert_eq!(
            DispatchPath::Scalar.lane_dot(&a, &b).to_bits(),
            crate::ops::lane_dot(&a, &b).to_bits()
        );
    }
}
