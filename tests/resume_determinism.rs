//! Crash/resume determinism: a run interrupted mid-training and resumed from
//! its durable checkpoint must be **bitwise identical** to the same run left
//! uninterrupted.
//!
//! The interruption is simulated deterministically: a [`FaultPlan`] NaNs the
//! loss at a fixed epoch under a `FailFast` guard, so the run aborts *after*
//! the durable checkpoint for the preceding epochs has been written — exactly
//! the on-disk state a crash would leave behind. The resumed run drops the
//! fault (the config fingerprint deliberately ignores the fault plan and the
//! durable block) and must land on the same fingerprint as a clean
//! start-to-finish run.

use e2gcl::models::dgi::DgiModel;
use e2gcl::prelude::*;
use std::path::PathBuf;

mod common;
use common::fingerprint;

/// A scratch checkpoint path under the system temp dir, removed on drop.
struct TempCkpt(PathBuf);

impl TempCkpt {
    fn new(name: &str) -> Self {
        let path =
            std::env::temp_dir().join(format!("e2gcl-resume-{}-{name}.ckpt", std::process::id()));
        let _ = std::fs::remove_file(&path);
        Self(path)
    }

    fn as_str(&self) -> String {
        self.0.to_string_lossy().into_owned()
    }
}

impl Drop for TempCkpt {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn tiny_cfg() -> TrainConfig {
    TrainConfig {
        epochs: 6,
        batch_size: 64,
        hidden_dim: 32,
        embed_dim: 16,
        checkpoint_every: Some(2),
        guard: GuardConfig {
            policy: GuardPolicy::FailFast,
            ..GuardConfig::default()
        },
        ..TrainConfig::default()
    }
}

fn pretrain(
    model: &dyn ContrastiveModel,
    cfg: &TrainConfig,
    data: &e2gcl::datasets::NodeDataset,
) -> Result<PretrainResult, TrainError> {
    let mut rng = SeedRng::new(7);
    model.pretrain(&data.graph, &data.features, cfg, &mut rng)
}

/// Interrupt `model` at epoch 4 of 6 (durable checkpoints every 2 epochs, so
/// the crash leaves a `next_epoch = 4` checkpoint on disk), resume, and
/// assert the resumed result is bit-identical to an uninterrupted run.
fn assert_resume_is_bitwise_identical(name: &str, model: &dyn ContrastiveModel) {
    assert_resume_is_bitwise_identical_with(name, model, tiny_cfg());
}

fn assert_resume_is_bitwise_identical_with(
    name: &str,
    model: &dyn ContrastiveModel,
    base_cfg: TrainConfig,
) {
    let data = NodeDataset::generate(&spec("cora-sim").expect("spec"), 0.05, 0);
    let ckpt = TempCkpt::new(name);

    // Reference: the same 6 epochs, never interrupted, no disk involved.
    let clean = pretrain(model, &base_cfg, &data).expect("clean run");

    // Interrupted: NaN loss at epoch 4 under FailFast aborts the run after
    // the epoch-3 durable checkpoint was written.
    let mut cfg = base_cfg;
    cfg.durable = Some(DurableConfig {
        path: ckpt.as_str(),
        every_epochs: 2,
        resume: false,
    });
    cfg.fault = Some(FaultPlan::nan_loss(&[4]));
    let err = pretrain(model, &cfg, &data).expect_err("fault must abort the run");
    assert!(matches!(err, TrainError::NonFiniteLoss { .. }), "{err}");
    assert!(ckpt.0.exists(), "crash left no durable checkpoint behind");

    // Resumed: same config minus the fault, restored from the checkpoint.
    cfg.fault = None;
    cfg.durable.as_mut().expect("durable set").resume = true;
    let resumed = pretrain(model, &cfg, &data).expect("resumed run");

    assert_eq!(
        clean
            .loss_curve
            .iter()
            .map(|l| l.to_bits())
            .collect::<Vec<_>>(),
        resumed
            .loss_curve
            .iter()
            .map(|l| l.to_bits())
            .collect::<Vec<_>>(),
        "{name}: resumed loss curve diverged"
    );
    assert_eq!(
        fingerprint(&clean),
        fingerprint(&resumed),
        "{name}: resumed run is not bit-identical to the uninterrupted run"
    );
}

#[test]
fn e2gcl_resume_is_bitwise_identical() {
    assert_resume_is_bitwise_identical("e2gcl", &E2gclModel::default());
}

#[test]
fn e2gcl_per_node_resume_is_bitwise_identical() {
    let model = E2gclModel::new(E2gclConfig {
        view_mode: ViewMode::PerNodeEgo,
        ..E2gclConfig::default()
    });
    assert_resume_is_bitwise_identical("e2gcl-per-node", &model);
}

#[test]
fn grace_resume_is_bitwise_identical() {
    use e2gcl::models::grace::GraceModel;
    assert_resume_is_bitwise_identical("grace", &GraceModel::grace());
}

/// Mini-batch settings small enough that cora-sim at 0.05 (135 nodes) splits
/// into several genuinely sampled batches per epoch.
fn minibatch_cfg() -> TrainConfig {
    TrainConfig {
        minibatch: Some(MinibatchConfig {
            batch_nodes: 32,
            fanout: Some(4),
        }),
        ..tiny_cfg()
    }
}

/// The durable checkpoint also covers the sampled path: the trainer RNG state
/// it records replays the anchor shuffle and neighbour draws of the remaining
/// epochs exactly.
#[test]
fn e2gcl_minibatch_resume_is_bitwise_identical() {
    assert_resume_is_bitwise_identical_with(
        "e2gcl-minibatch",
        &E2gclModel::default(),
        minibatch_cfg(),
    );
}

#[test]
fn grace_minibatch_resume_is_bitwise_identical() {
    use e2gcl::models::grace::GraceModel;
    assert_resume_is_bitwise_identical_with(
        "grace-minibatch",
        &GraceModel::grace(),
        minibatch_cfg(),
    );
}

#[test]
fn resume_rejects_checkpoint_from_different_config() {
    let data = NodeDataset::generate(&spec("cora-sim").expect("spec"), 0.05, 0);
    let ckpt = TempCkpt::new("cfg-drift");
    let mut cfg = tiny_cfg();
    cfg.durable = Some(DurableConfig {
        path: ckpt.as_str(),
        every_epochs: 2,
        resume: false,
    });
    pretrain(&E2gclModel::default(), &cfg, &data).expect("producing run");

    cfg.lr *= 2.0; // any trajectory-relevant drift must be rejected
    cfg.durable.as_mut().expect("durable set").resume = true;
    let err = pretrain(&E2gclModel::default(), &cfg, &data).expect_err("drifted config");
    match err {
        TrainError::Checkpoint(msg) => {
            assert!(msg.contains("different training config"), "{msg}")
        }
        other => panic!("expected Checkpoint error, got {other}"),
    }
}

#[test]
fn models_without_snapshot_support_fail_with_typed_error() {
    let data = NodeDataset::generate(&spec("cora-sim").expect("spec"), 0.05, 0);
    let ckpt = TempCkpt::new("unsupported");
    let mut cfg = tiny_cfg();
    cfg.durable = Some(DurableConfig {
        path: ckpt.as_str(),
        every_epochs: 2,
        resume: false,
    });
    let err = pretrain(&DgiModel, &cfg, &data).expect_err("DGI has no snapshot support");
    match err {
        TrainError::Checkpoint(msg) => {
            assert!(
                msg.contains("does not support resumable checkpoints"),
                "{msg}"
            )
        }
        other => panic!("expected Checkpoint error, got {other}"),
    }
}
