//! Runtime kernel dispatch: CPU feature detection, the fixed tile shapes of
//! each dispatch path, and resolution of the `E2GCL_KERNEL_CONFIG`
//! override.
//!
//! # Resolution (documented in DESIGN.md §16)
//!
//! * `E2GCL_KERNEL_CONFIG=scalar` — force the scalar blocked path.
//! * `E2GCL_KERNEL_CONFIG=avx2` — force the AVX2+FMA path; a typed
//!   [`KernelConfigError::FeatureUnavailable`] is recorded (and the library
//!   falls back to scalar) if the host lacks AVX2+FMA.
//! * Unset — AVX2+FMA where the host has it, else scalar.
//! * Any other value — a typed [`KernelConfigError::UnknownValue`]; the
//!   library falls back to the detected path and the CLI turns the
//!   recorded error into a usage message + exit.
//!
//! Resolution runs once per process ([`std::sync::OnceLock`]) so every
//! kernel in the process agrees on the path. Tests pin a path without env
//! vars via [`with_path`], which installs a thread-local override — kernel
//! entry points capture [`current_path`] **once on the calling thread** and
//! pass the `Copy` [`DispatchPath`] into rayon workers (the vendored rayon
//! spawns fresh OS threads that do not inherit thread-locals).

use std::cell::Cell;
use std::fmt;
use std::sync::OnceLock;

/// Environment variable overriding kernel dispatch (`scalar` or `avx2`).
pub const CONFIG_ENV: &str = "E2GCL_KERNEL_CONFIG";

/// One-line usage blurb for [`CONFIG_ENV`], shared by the CLI and bench
/// error paths.
pub const CONFIG_USAGE: &str = "E2GCL_KERNEL_CONFIG accepts `scalar` or `avx2`; unset picks \
     avx2 where the host has AVX2+FMA, else scalar";

/// Which micro-kernel family executes the dense hot path. Within a path,
/// every tile shape is bit-identical (tile geometry never changes
/// per-element reduction order); across paths bits differ (the AVX2 path
/// uses the 8-lane fused contract of [`crate::simd::model`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DispatchPath {
    /// Scalar blocked kernels (the `ops::lane_dot` 4-lane contract).
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

    /// The tiles this path uses for dense outputs of `class`.
    pub const fn tiles(self, class: ShapeClass) -> TileConfig {
        match (self, class) {
            (DispatchPath::Scalar, _) => TileConfig::SCALAR,
            (DispatchPath::Avx2, ShapeClass::TallSkinny) => TileConfig::AVX2_TALL,
            (DispatchPath::Avx2, ShapeClass::Square) => TileConfig::AVX2_SQUARE,
        }
    }

    /// SpMM output rows per rayon work item on this path.
    pub const fn spmm_grain(self) -> usize {
        match self {
            DispatchPath::Scalar => 1,
            DispatchPath::Avx2 => 16,
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

/// Register-tile geometry and parallel grain of the dense kernels for one
/// dispatch path and shape class ([`DispatchPath::tiles`]). Compile-time
/// constants: the AVX2 kernels are instantiated for exactly these
/// geometries. None of the fields changes a bit — they only decide which
/// disjoint output tiles a rayon work item owns (see [`crate::simd`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TileConfig {
    /// Axpy-panel rows (`matmul` / `transpose_matmul` register tile).
    pub mm_mr: usize,
    /// Axpy-panel width in 8-column vectors.
    pub mm_nv: usize,
    /// Dot-tile rows (`matmul_transpose` / `syrk`).
    pub dot_mr: usize,
    /// Dot-tile columns.
    pub dot_nr: usize,
    /// Tile rows per rayon work item.
    pub grain: usize,
}

impl TileConfig {
    /// The scalar blocked kernels of `matrix.rs`: 4×8 axpy and 2×4 dot
    /// tiles, one tile row per work item.
    pub const SCALAR: TileConfig = TileConfig {
        mm_mr: 4,
        mm_nv: 1,
        dot_mr: 2,
        dot_nr: 4,
        grain: 1,
    };

    /// AVX2 tiles for tall-skinny outputs (n×d embedding products). These
    /// and [`TileConfig::AVX2_SQUARE`] are the shapes a per-host autotuner
    /// picked on the reference AVX2 host, as `BENCH_kernels.json`'s
    /// `hardware` section records. Tile shapes never move a bit, so they
    /// are fixed here instead of tuned per host.
    pub const AVX2_TALL: TileConfig = TileConfig {
        mm_mr: 2,
        mm_nv: 4,
        dot_mr: 4,
        dot_nr: 2,
        grain: 16,
    };

    /// AVX2 tiles for square-ish outputs (similarity blocks).
    pub const AVX2_SQUARE: TileConfig = TileConfig {
        mm_mr: 4,
        mm_nv: 2,
        dot_mr: 2,
        dot_nr: 4,
        grain: 16,
    };
}

/// Dense output shape classes with their own tiles. Classification keys on
/// the *output* aspect ratio: embedding-style products (n×d against d×d,
/// n ≫ d) behave differently from square-ish similarity blocks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShapeClass {
    /// Output at least 8× taller than wide (or wider than tall).
    TallSkinny,
    /// Everything else dense.
    Square,
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
}

/// True when the host supports both AVX2 and FMA (the feature pair every
/// kernel in `simd::avx2` is compiled for).
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
/// a fixed order (recorded in bench artifacts).
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
/// panics on these: it records the error, falls back to the detected path,
/// and lets the CLI/bench front-ends surface it (see [`startup_error`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KernelConfigError {
    /// `E2GCL_KERNEL_CONFIG` is neither `scalar` nor `avx2`.
    UnknownValue { value: String },
    /// `E2GCL_KERNEL_CONFIG=avx2` on a host without AVX2+FMA.
    FeatureUnavailable { requested: String },
}

impl fmt::Display for KernelConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KernelConfigError::UnknownValue { value } => {
                write!(f, "kernel config `{value}` is not `scalar` or `avx2`")
            }
            KernelConfigError::FeatureUnavailable { requested } => {
                write!(
                    f,
                    "kernel path `{requested}` requires AVX2+FMA, which this host lacks"
                )
            }
        }
    }
}

impl std::error::Error for KernelConfigError {}

#[derive(Debug, PartialEq, Eq)]
struct Resolved {
    path: DispatchPath,
    /// Whether [`CONFIG_ENV`] chose `path` (else it is the detected one).
    forced: bool,
    error: Option<KernelConfigError>,
}

/// Resolves [`CONFIG_ENV`]'s value (`None` when unset) on a host that does
/// (`avx2`) or does not have AVX2+FMA.
fn resolve(value: Option<&str>, avx2: bool) -> Resolved {
    let detected = |error| Resolved {
        path: if avx2 {
            DispatchPath::Avx2
        } else {
            DispatchPath::Scalar
        },
        forced: false,
        error,
    };
    match value.map(|v| (v, DispatchPath::parse(v))) {
        None => detected(None),
        Some((v, Some(DispatchPath::Avx2))) if !avx2 => {
            detected(Some(KernelConfigError::FeatureUnavailable {
                requested: v.to_string(),
            }))
        }
        Some((_, Some(path))) => Resolved {
            path,
            forced: true,
            error: None,
        },
        Some((v, None)) => detected(Some(KernelConfigError::UnknownValue {
            value: v.to_string(),
        })),
    }
}

static RESOLVED: OnceLock<Resolved> = OnceLock::new();

fn resolved() -> &'static Resolved {
    RESOLVED.get_or_init(|| resolve(std::env::var(CONFIG_ENV).ok().as_deref(), avx2_available()))
}

/// Where the process-wide path came from, for artifact attribution:
/// `env:scalar`, `env:avx2` or `detected-default`.
pub fn active_source() -> String {
    let r = resolved();
    if r.forced {
        format!("env:{}", r.path)
    } else {
        "detected-default".to_string()
    }
}

/// The typed configuration error recorded during resolution, if any. The
/// CLI checks this at startup and turns it into a usage message + exit
/// instead of silently running on the fallback path.
pub fn startup_error() -> Option<&'static KernelConfigError> {
    resolved().error.as_ref()
}

thread_local! {
    static OVERRIDE: Cell<Option<DispatchPath>> = const { Cell::new(None) };
}

struct OverrideGuard(Option<DispatchPath>);

impl Drop for OverrideGuard {
    fn drop(&mut self) {
        OVERRIDE.with(|c| c.set(self.0));
    }
}

/// Runs `f` with `path` as the current dispatch path on this thread
/// (restored on exit, including unwind). Used by tests and benches to pin
/// a path without touching the environment. The override is thread-local
/// by design: kernel entry points capture [`current_path`] on the calling
/// thread before fanning out to rayon workers.
pub fn with_path<R>(path: DispatchPath, f: impl FnOnce() -> R) -> R {
    let _guard = OverrideGuard(OVERRIDE.with(|c| c.replace(Some(path))));
    f()
}

/// The path kernel entry points should capture: the thread-local override
/// if one is installed, else the process-wide resolution.
#[inline]
pub fn current_path() -> DispatchPath {
    OVERRIDE
        .with(|c| c.get())
        .unwrap_or_else(|| resolved().path)
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
    fn resolution_depends_only_on_the_env_value_and_host() {
        use DispatchPath::{Avx2, Scalar};
        for avx2 in [false, true] {
            let detected = if avx2 { Avx2 } else { Scalar };
            let fallback = |error| Resolved {
                path: detected,
                forced: false,
                error: Some(error),
            };
            assert_eq!(
                resolve(None, avx2),
                Resolved {
                    path: detected,
                    forced: false,
                    error: None
                }
            );
            assert_eq!(
                resolve(Some("scalar"), avx2),
                Resolved {
                    path: Scalar,
                    forced: true,
                    error: None
                }
            );
            // A file path is not a value, nor is any other spelling of a
            // path name.
            for bad in ["tiles.json", "", "AVX2", "scalar "] {
                assert_eq!(
                    resolve(Some(bad), avx2),
                    fallback(KernelConfigError::UnknownValue {
                        value: bad.to_string()
                    })
                );
            }
        }
        assert_eq!(
            resolve(Some("avx2"), true),
            Resolved {
                path: Avx2,
                forced: true,
                error: None
            }
        );
        assert_eq!(
            resolve(Some("avx2"), false),
            Resolved {
                path: Scalar,
                forced: false,
                error: Some(KernelConfigError::FeatureUnavailable {
                    requested: "avx2".to_string()
                })
            }
        );
    }

    #[test]
    fn with_path_overrides_and_restores() {
        let base = current_path();
        with_path(DispatchPath::Scalar, || {
            assert_eq!(current_path(), DispatchPath::Scalar);
            with_path(DispatchPath::Avx2, || {
                assert_eq!(current_path(), DispatchPath::Avx2);
            });
            assert_eq!(current_path(), DispatchPath::Scalar);
        });
        assert_eq!(current_path(), base);
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
