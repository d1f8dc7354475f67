//! Dense linear-algebra substrate for the E²GCL reproduction.
//!
//! The paper's models (GCN encoders, projection heads, linear probes) only
//! need a small, predictable set of dense operations over `f32` row-major
//! matrices. This crate provides exactly that set, with a deterministic,
//! seedable RNG story so every experiment in the workspace is reproducible.
//!
//! Design notes:
//! * Row-major `Vec<f32>` storage: node-representation matrices are tall and
//!   thin (`|V| x d`), and every consumer walks them row-by-row.
//! * Hot kernels ([`Matrix::matmul`]) parallelise over output rows with
//!   rayon and route through [`dispatch`]: runtime-detected AVX2+FMA
//!   micro-kernels ([`simd`]) with the scalar blocked path as fallback,
//!   tile/grain shapes picked by a persisted autotuner ([`tune`]).
//!   Everything else is simple scalar code that LLVM vectorises.
//! * `unsafe` is confined to [`simd`]: `std::arch` intrinsics behind
//!   runtime feature detection, pinned bitwise to safe scalar contract
//!   models by proptests.

pub mod activations;
pub mod alloc_stats;
pub mod dispatch;
pub mod durable;
pub mod error;
pub mod hash;
pub mod init;
pub mod matrix;
pub mod ops;
pub mod pca;
pub mod rng;
pub mod simd;
pub mod stats;
pub mod tune;

pub use dispatch::{DispatchPath, Selection};
pub use error::TrainError;
pub use matrix::Matrix;
pub use rng::{RngState, SeedRng};
