//! Golden fingerprints + thread-count invariance for the sub-quadratic
//! contrastive loss strategies (DESIGN.md §15).
//!
//! The default `LossStrategy::Full` path is pinned by
//! `golden_determinism.rs`; this file pins the `smallneg`/`localized`
//! training paths the same way AND proves each run is bit-identical across
//! `RAYON_NUM_THREADS` by re-exec'ing itself under different pool sizes
//! (the rayon stand-in fixes its pool per process).
//!
//! Fingerprints are **per dispatch path** (DESIGN.md §16), like
//! `golden_determinism.rs`: the table matching the active kernel path is
//! validated, never silently regenerated. The re-exec children inherit
//! `E2GCL_KERNEL_CONFIG`, so thread-invariance is proven for the same
//! dispatched kernels the parent ran.
//!
//! To (re)record after an intentional numeric change, run (per path):
//!
//! ```text
//! GOLDEN_PRINT=1 E2GCL_KERNEL_CONFIG=scalar cargo test -q --test loss_strategy_determinism -- --nocapture
//! GOLDEN_PRINT=1 E2GCL_KERNEL_CONFIG=avx2   cargo test -q --test loss_strategy_determinism -- --nocapture
//! ```

use e2gcl::durable::Fnv1a64;
use e2gcl::models::grace::GraceModel;
use e2gcl::prelude::*;
use std::process::Command;

mod common;
use common::hash_matrix;

const CHILD_ENV: &str = "E2GCL_LOSS_STRATEGY_DETERMINISM_CHILD";

/// Like `common::fingerprint` but without the checkpoint count: the goldens
/// below were recorded without it.
fn fingerprint(r: &PretrainResult) -> u64 {
    let mut h = Fnv1a64::new();
    h.write_u64(r.loss_curve.len() as u64);
    for &l in &r.loss_curve {
        h.write_f32(l);
    }
    hash_matrix(&mut h, &r.embeddings);
    h.finish()
}

fn cfg_with(loss: LossStrategy, minibatch: Option<MinibatchConfig>) -> TrainConfig {
    TrainConfig {
        epochs: 4,
        batch_size: 64,
        hidden_dim: 32,
        embed_dim: 16,
        loss,
        minibatch,
        ..TrainConfig::default()
    }
}

/// E²GCL with the given encoder family and every other setting default.
fn e2gcl_with(encoder: EncoderKind) -> E2gclModel {
    E2gclModel::new(E2gclConfig {
        encoder,
        ..E2gclConfig::default()
    })
}

/// `(case name, model, config)`: every sub-quadratic strategy through both
/// supporting models, full-batch and mini-batch, plus the full-loss
/// mini-batch paths `golden_determinism.rs` does not cover, the sampled
/// E²GCL path once per encoder family.
fn cases() -> Vec<(&'static str, Box<dyn ContrastiveModel>, TrainConfig)> {
    let full = LossStrategy::Full;
    let smallneg = LossStrategy::SmallNeg { negatives: 48 };
    let localized = LossStrategy::Localized { hops: 2 };
    let mb = Some(MinibatchConfig {
        batch_nodes: 48,
        fanout: Some(5),
    });
    vec![
        (
            "grace-smallneg",
            Box::new(GraceModel::grace()),
            cfg_with(smallneg.clone(), None),
        ),
        (
            "grace-localized",
            Box::new(GraceModel::grace()),
            cfg_with(localized.clone(), None),
        ),
        (
            "grace-smallneg-minibatch",
            Box::new(GraceModel::grace()),
            cfg_with(smallneg.clone(), mb.clone()),
        ),
        (
            "grace-full-minibatch",
            Box::new(GraceModel::grace()),
            cfg_with(full.clone(), mb.clone()),
        ),
        (
            "grace-localized-minibatch",
            Box::new(GraceModel::grace()),
            cfg_with(localized.clone(), mb.clone()),
        ),
        (
            "e2gcl-smallneg",
            Box::new(E2gclModel::default()),
            cfg_with(smallneg.clone(), None),
        ),
        (
            "e2gcl-full-minibatch",
            Box::new(E2gclModel::default()),
            cfg_with(full.clone(), mb.clone()),
        ),
        (
            "e2gcl-full-minibatch-sage",
            Box::new(e2gcl_with(EncoderKind::Sage)),
            cfg_with(full.clone(), mb.clone()),
        ),
        (
            "e2gcl-full-minibatch-sgc",
            Box::new(e2gcl_with(EncoderKind::Sgc)),
            cfg_with(full, mb.clone()),
        ),
        (
            "e2gcl-smallneg-minibatch",
            Box::new(E2gclModel::default()),
            cfg_with(smallneg, mb.clone()),
        ),
        (
            "e2gcl-localized",
            Box::new(E2gclModel::default()),
            cfg_with(localized.clone(), None),
        ),
        (
            "e2gcl-localized-minibatch",
            Box::new(E2gclModel::default()),
            cfg_with(localized, mb),
        ),
    ]
}

/// Fingerprints recorded when the sub-quadratic kernels were introduced;
/// the `grace-full-minibatch`, `grace-localized-minibatch`,
/// `e2gcl-full-minibatch` and `e2gcl-smallneg-minibatch` entries were
/// recorded from the per-path mini-batch steps before the shared InfoNCE
/// step replaced them. `grace-localized-minibatch` was re-recorded once
/// afterwards: the shared step hands the localized kernel its anchors in
/// ascending order (DESIGN.md §15), as both E²GCL localized paths already
/// did; the old GRACE step passed them in seed order. The
/// `e2gcl-full-minibatch-{sage,sgc}` entries were recorded while those
/// families still trained through allocating caches, before their passes
/// moved to workspaces. Any unintentional
/// change is a determinism regression in the kernels, the sampled step or
/// the per-epoch negative re-selection, not an update.
const GOLDEN_SCALAR: &[(&str, u64)] = &[
    ("grace-smallneg", 0x9dbd6fd2f7d24e57),
    ("grace-localized", 0x3d99ce4487401304),
    ("grace-smallneg-minibatch", 0xdcea1a90ef2a94d3),
    ("grace-full-minibatch", 0xdb487a602ced8a50),
    ("grace-localized-minibatch", 0xfb357f13ddcbb9d7),
    ("e2gcl-smallneg", 0xacf5adcd97d35859),
    ("e2gcl-full-minibatch", 0x4241e7673630504e),
    ("e2gcl-full-minibatch-sage", 0x8c544f8d276789fc),
    ("e2gcl-full-minibatch-sgc", 0x2e05cc4a49c51408),
    ("e2gcl-smallneg-minibatch", 0xd5dab0bc2f406d87),
    ("e2gcl-localized", 0x131fe52ed8ce4ac1),
    ("e2gcl-localized-minibatch", 0xe83a5206e54724aa),
];

/// Recorded under `E2GCL_KERNEL_CONFIG=avx2` on the AVX2+FMA reference
/// host for the kernel-dispatch PR (same per-path policy as
/// `golden_determinism.rs`).
const GOLDEN_AVX2: &[(&str, u64)] = &[
    ("grace-smallneg", 0x84b61dc9cd033152),
    ("grace-localized", 0x54a31d04c1953dbf),
    ("grace-smallneg-minibatch", 0x45a103478d5756e3),
    ("grace-full-minibatch", 0xb5aa40d93a367287),
    ("grace-localized-minibatch", 0xaeb1a2482d2fa650),
    ("e2gcl-smallneg", 0x6d1dc5edda3e905a),
    ("e2gcl-full-minibatch", 0x678cffefed60e67b),
    ("e2gcl-full-minibatch-sage", 0xe9a6a334f59f9326),
    ("e2gcl-full-minibatch-sgc", 0x44bffe2390681d0c),
    ("e2gcl-smallneg-minibatch", 0x91c202d0c18abe99),
    ("e2gcl-localized", 0xacd48a79a7098d72),
    ("e2gcl-localized-minibatch", 0x7512bd514d38f672),
];

/// The golden table for the active dispatch path.
fn golden_for_active_path() -> (&'static str, &'static [(&'static str, u64)]) {
    match e2gcl_linalg::dispatch::current_path() {
        e2gcl_linalg::DispatchPath::Scalar => ("scalar", GOLDEN_SCALAR),
        e2gcl_linalg::DispatchPath::Avx2 => ("avx2", GOLDEN_AVX2),
    }
}

fn all_fingerprints() -> Vec<(&'static str, u64)> {
    let data = NodeDataset::generate(&spec("cora-sim").expect("spec"), 0.05, 0);
    cases()
        .into_iter()
        .map(|(name, model, cfg)| {
            let out = model
                .pretrain(&data.graph, &data.features, &cfg, &mut SeedRng::new(7))
                .unwrap_or_else(|e| panic!("{name}: pretrain failed: {e}"));
            (name, fingerprint(&out))
        })
        .collect()
}

#[test]
fn strategy_fingerprints_are_bit_stable_across_thread_counts() {
    let fps = all_fingerprints();
    if std::env::var(CHILD_ENV).is_ok() {
        for (name, fp) in &fps {
            println!("FP:{name}={fp:016x}");
        }
        return;
    }
    if std::env::var("GOLDEN_PRINT").is_ok() {
        for (name, fp) in &fps {
            println!("    (\"{name}\", {fp:#018x}),");
        }
        return;
    }
    // Golden pin (this process), against the active dispatch path's table.
    let (path_name, golden) = golden_for_active_path();
    let mut failures = Vec::new();
    for (name, fp) in &fps {
        let expected = golden
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("{name}: missing golden entry for path {path_name}"))
            .1;
        if *fp != expected {
            failures.push(format!(
                "{name} [{path_name}]: got {fp:#018x}, golden {expected:#018x}"
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "strategy fingerprint drift:\n{}",
        failures.join("\n")
    );
    // Thread invariance (child processes with forced pool sizes).
    let exe = std::env::current_exe().expect("test binary path");
    for threads in ["1", "4"] {
        let out = Command::new(&exe)
            .arg("strategy_fingerprints_are_bit_stable_across_thread_counts")
            .arg("--exact")
            .arg("--nocapture")
            .env(CHILD_ENV, "1")
            .env("RAYON_NUM_THREADS", threads)
            .output()
            .expect("spawn child test process");
        assert!(
            out.status.success(),
            "child with {threads} threads failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        for (name, fp) in &fps {
            let marker = format!("FP:{name}={fp:016x}");
            assert!(
                stdout.contains(&marker),
                "{name} differs under RAYON_NUM_THREADS={threads}; \
                 expected {marker} in:\n{stdout}"
            );
        }
    }
}
