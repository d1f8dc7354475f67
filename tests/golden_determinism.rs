//! Golden determinism fingerprints for every `pretrain` path.
//!
//! Each case trains a model on a fixed tiny dataset with a fixed seed and
//! hashes every bit-relevant output (loss curve, final embeddings, and
//! checkpoint embeddings) into a single u64. The constants below were
//! recorded from the hand-rolled per-model training loops; the engine-routed
//! loops must reproduce them **bit-identically** (guards enabled, no faults
//! injected, clipping off — the `Proceed` path mutates nothing).
//!
//! Fingerprints are **per dispatch path** (DESIGN.md §16): the scalar
//! blocked kernels and the AVX2+FMA kernels each have a fixed element-level
//! reduction contract, bit-identical run-to-run and across pool sizes, but
//! the two contracts differ (8 fused lanes vs. 4 unfused). The test
//! validates against the table matching the *active* dispatch path — it
//! never regenerates silently, and an unlisted path is a hard failure —
//! once under a rayon pool of 1 (the serial path) and once under a pool of
//! 2 (`ThreadPool::install`), so both reproduce the same table.
//!
//! To (re)record after an intentional numeric change, run (per path):
//!
//! ```text
//! GOLDEN_PRINT=1 E2GCL_KERNEL_CONFIG=scalar cargo test -q --test golden_determinism -- --nocapture
//! GOLDEN_PRINT=1 E2GCL_KERNEL_CONFIG=avx2   cargo test -q --test golden_determinism -- --nocapture
//! ```
//!
//! and paste the printed table over the matching `GOLDEN_*` constant. Any
//! unintentional change to a fingerprint is a refactor bug, not an update.

use e2gcl::models::adgcl::AdgclModel;
use e2gcl::models::bgrl::{AfgrlModel, BgrlModel};
use e2gcl::models::dgi::DgiModel;
use e2gcl::models::gae::{GaeModel, VgaeModel};
use e2gcl::models::grace::GraceModel;
use e2gcl::models::mvgrl::{MvgrlConfig, MvgrlModel};
use e2gcl::models::walks::WalkModel;
use e2gcl::prelude::*;

mod common;
use common::fingerprint;

fn tiny_cfg() -> TrainConfig {
    TrainConfig {
        epochs: 4,
        batch_size: 64,
        hidden_dim: 32,
        embed_dim: 16,
        checkpoint_every: Some(2),
        ..TrainConfig::default()
    }
}

fn e2gcl_variant(loss: LossKind, encoder: EncoderKind, view_mode: ViewMode) -> E2gclModel {
    E2gclModel::new(E2gclConfig {
        loss,
        encoder,
        view_mode,
        ..E2gclConfig::default()
    })
}

/// `(case name, model, checkpoints enabled)`. The per-node ego path is
/// fingerprinted without checkpoints: the pre-engine loop never recorded
/// any, and pinning that here would freeze the gap rather than the numerics.
fn cases() -> Vec<(&'static str, Box<dyn ContrastiveModel>, bool)> {
    vec![
        ("grace", Box::new(GraceModel::grace()), true),
        ("gca", Box::new(GraceModel::gca()), true),
        ("bgrl", Box::new(BgrlModel::default()), true),
        ("afgrl", Box::new(AfgrlModel::default()), true),
        ("dgi", Box::new(DgiModel), true),
        ("gae", Box::new(GaeModel), true),
        ("vgae", Box::new(VgaeModel::default()), true),
        ("mvgrl", Box::new(MvgrlModel::default()), true),
        (
            "mvgrl-fp",
            Box::new(MvgrlModel::new(MvgrlConfig {
                extra_feature_perturb: Some(0.1),
                ..MvgrlConfig::default()
            })),
            true,
        ),
        ("adgcl", Box::new(AdgclModel::default()), true),
        ("deepwalk", Box::new(WalkModel::deepwalk()), true),
        ("node2vec", Box::new(WalkModel::node2vec()), true),
        ("e2gcl-margin-gcn", Box::new(E2gclModel::default()), true),
        (
            "e2gcl-infonce-sage",
            Box::new(e2gcl_variant(
                LossKind::InfoNce,
                EncoderKind::Sage,
                ViewMode::GlobalBatched,
            )),
            true,
        ),
        (
            "e2gcl-margin-sgc",
            Box::new(e2gcl_variant(
                LossKind::Margin,
                EncoderKind::Sgc,
                ViewMode::GlobalBatched,
            )),
            true,
        ),
        (
            "e2gcl-per-node-ego",
            Box::new(e2gcl_variant(
                LossKind::Margin,
                EncoderKind::Gcn,
                ViewMode::PerNodeEgo,
            )),
            false,
        ),
    ]
}

/// Seed-state fingerprints recorded from the pre-engine training loops.
// Regenerated ONCE for the blocked-GEMM PR (DESIGN.md §11), for three
// legitimate numeric-order reasons (semantics unchanged):
// `matmul_transpose`/`syrk` moved to a fixed 4-lane reduction
// (`ops::lane_dot`), the InfoNCE backward was reformulated as GEMMs, and
// `matmul`/`transpose_matmul` dropped their `a == 0.0` skip (exact zeros —
// e.g. from ReLU — now contribute `±0.0` terms to the chains they used to
// skip). The `deepwalk`/`node2vec`/`e2gcl-margin-sgc` fingerprints came out
// unchanged, as expected: those paths avoid all three effects.
const GOLDEN_SCALAR: &[(&str, u64)] = &[
    ("grace", 0xcb8a917ae87670a2),
    ("gca", 0x9ff2446c8d276df2),
    ("bgrl", 0x65ab5b100e6e4e36),
    ("afgrl", 0xb25acc4fccee9853),
    ("dgi", 0x67a1c37e39f7c833),
    ("gae", 0x089a37fb8b16db6e),
    ("vgae", 0xb9271bb4e50f72fe),
    ("mvgrl", 0xc6359ffb362f310c),
    // Pinned before DGI and MVGRL shared one step, so that step keeps
    // MVGRL+FP's draw order: perturb view 1, perturb view 2, shuffle.
    ("mvgrl-fp", 0x4b64d11faa0da080),
    ("adgcl", 0x40c5eb5fa7f79278),
    ("deepwalk", 0x7481d94f09b4f097),
    ("node2vec", 0xa19f41d34123344e),
    ("e2gcl-margin-gcn", 0x2b6c6a6de5717f8d),
    ("e2gcl-infonce-sage", 0x59fa7c7894852bb4),
    ("e2gcl-margin-sgc", 0xde4bdcd50c87962e),
    ("e2gcl-per-node-ego", 0x6cf508447739a263),
];

/// Recorded under `E2GCL_KERNEL_CONFIG=avx2` on the AVX2+FMA reference
/// host for the kernel-dispatch PR. Differences from the scalar table come
/// only from the per-path reduction contract (8 fused lanes vs. 4 unfused,
/// fused axpy/SpMM chains); tile geometry and parallel grain are bit-inert
/// within the path (pinned by `crates/linalg/tests/simd_contract.rs`).
const GOLDEN_AVX2: &[(&str, u64)] = &[
    ("grace", 0x036ff8bbd46cc3b4),
    ("gca", 0x004b390800817736),
    ("bgrl", 0xa1e37eabab62ed3d),
    ("afgrl", 0xb7247b1c6c7fdf34),
    ("dgi", 0x3b3be8155c825298),
    ("gae", 0x4e245d4ecb2687d1),
    ("vgae", 0x8c361d701a8e09c9),
    ("mvgrl", 0x1617bc219e32de75),
    ("mvgrl-fp", 0xfd8737dfb0b2e0dd),
    ("adgcl", 0x838c93fb3bf3d013),
    // deepwalk/node2vec avoid the dense GEMM/lane-dot hot path entirely,
    // so their fingerprints are identical across dispatch paths.
    ("deepwalk", 0x7481d94f09b4f097),
    ("node2vec", 0xa19f41d34123344e),
    ("e2gcl-margin-gcn", 0x723b35a0d48ef009),
    ("e2gcl-infonce-sage", 0xfee08b9ea58a10ff),
    ("e2gcl-margin-sgc", 0x373791dc41d93f39),
    ("e2gcl-per-node-ego", 0x835d0dcdac2540ad),
];

/// The golden table for the active dispatch path.
fn golden_for_active_path() -> (&'static str, &'static [(&'static str, u64)]) {
    match e2gcl_linalg::dispatch::current_path() {
        e2gcl_linalg::DispatchPath::Scalar => ("scalar", GOLDEN_SCALAR),
        e2gcl_linalg::DispatchPath::Avx2 => ("avx2", GOLDEN_AVX2),
    }
}

/// Every case's fingerprint, trained on `data`.
fn all_fingerprints(data: &NodeDataset) -> Vec<(&'static str, u64)> {
    cases()
        .into_iter()
        .map(|(name, model, with_checkpoints)| {
            let cfg = TrainConfig {
                checkpoint_every: if with_checkpoints { Some(2) } else { None },
                ..tiny_cfg()
            };
            let out = model
                .pretrain(&data.graph, &data.features, &cfg, &mut SeedRng::new(7))
                .unwrap_or_else(|e| panic!("{name}: pretrain failed: {e}"));
            (name, fingerprint(&out))
        })
        .collect()
}

#[test]
fn pretrain_fingerprints_are_bit_stable() {
    let data = NodeDataset::generate(&spec("cora-sim").expect("spec"), 0.05, 0);
    let print_mode = std::env::var("GOLDEN_PRINT").is_ok();
    let (path_name, golden) = golden_for_active_path();
    let mut failures = Vec::new();
    for threads in [1, 2] {
        let fps = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("thread pool")
            .install(|| all_fingerprints(&data));
        if print_mode {
            for (name, fp) in &fps {
                println!("    (\"{name}\", {fp:#018x}),");
            }
            return;
        }
        for (name, fp) in fps {
            let expected = golden
                .iter()
                .find(|(n, _)| *n == name)
                .unwrap_or_else(|| panic!("{name}: missing golden entry for path {path_name}"))
                .1;
            if fp != expected {
                failures.push(format!(
                    "{name} [{path_name}, pool of {threads}]: got {fp:#018x}, golden {expected:#018x}"
                ));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "fingerprint drift (training is no longer bit-identical):\n{}",
        failures.join("\n")
    );
}
