//! The unified epoch-driver training engine.
//!
//! Every model in [`crate::models`] used to own a copy of the same ~40-line
//! epoch loop: compute an update, apply the fault plan, scan for NaN/Inf,
//! ask the [`NumericGuard`] for a verdict, then step / skip / retry and
//! record losses and checkpoints. This module hoists that loop into one
//! place — [`EpochDriver`] — and reduces each model to an [`EpochStep`]:
//! the model-specific "one epoch of work" (views, forwards, loss,
//! backward) plus small hooks for applying the verified update.
//!
//! The driver is the **only** production call site of [`NumericGuard::new`]
//! and [`NumericGuard::inspect`] (`ci.sh` enforces this), so guard policy
//! changes land in every model at once, and a model physically cannot
//! forget to route its update through the guard.
//!
//! The split is engineered to be bit-identical to the loops it replaced:
//! the driver performs the exact sequence the models did —
//! `corrupt_loss → corrupt_gradients → grads scan → inspect → clip →
//! apply → record` — and steps draw randomness only inside
//! [`EpochStep::epoch`], so the RNG streams are unchanged.

use crate::checkpoint::{config_fingerprint, StepState, TrainCheckpoint};
use crate::config::TrainConfig;
use crate::guard::{FaultPlan, GuardAction, NumericGuard};
use e2gcl_linalg::{Matrix, TrainError};
use e2gcl_nn::optim;
use std::path::Path;
use std::time::Instant;

/// Everything an [`EpochStep`] may use while computing one epoch.
pub struct EpochCtx<'a> {
    /// Epoch counter. Stable across backoff retries of the same epoch, so
    /// epoch-keyed fault injection re-hits a retried epoch.
    pub epoch: usize,
    /// Effective learning rate for this attempt:
    /// [`EpochStep::base_lr`]` * `[`NumericGuard::lr_scale`].
    pub lr: f32,
    /// The run's fault plan. The driver applies `corrupt_loss` /
    /// `corrupt_gradients` itself; steps apply [`FaultPlan::corrupt_features`]
    /// to their view features so an injected NaN travels the exact path a
    /// real one would.
    pub fault: &'a FaultPlan,
    /// The driver-owned guard, exposed read-only for
    /// [`NumericGuard::embeddings_bad`] scans.
    pub guard: &'a NumericGuard,
}

/// What one call to [`EpochStep::epoch`] produced.
#[derive(Debug)]
pub enum EpochOutcome {
    /// A normal epoch: the update is staged in [`EpochStep::grads_mut`],
    /// awaiting the guard's verdict.
    Step {
        /// The epoch's (pre-fault-plan) loss.
        loss: f32,
        /// Result of the step's [`NumericGuard::embeddings_bad`] scan over
        /// whatever embedding matrices it considers health-relevant.
        embeddings_bad: bool,
    },
    /// Nothing to update this epoch (e.g. every batch degenerated); advance
    /// without consulting the guard or recording a loss.
    SkipSilently,
    /// Training cannot proceed at all (e.g. an empty anchor set); end the
    /// run early with whatever has been recorded so far.
    Stop,
}

/// One model's epoch of work, driven by [`EpochDriver::run`].
///
/// The contract mirrors the loops this trait replaced:
///
/// 1. [`epoch`](Self::epoch) does everything up to (not including) the
///    optimiser step and leaves the primary gradients in
///    [`grads_mut`](Self::grads_mut);
/// 2. the driver corrupts/scans/clips those gradients and consults the
///    guard;
/// 3. on `Proceed` the driver calls [`apply`](Self::apply) with the
///    effective learning rate, then [`embed`](Self::embed) on checkpoint
///    epochs.
///
/// Updates that happen *inside* `epoch` (e.g. GRACE's projection-head SGD)
/// are before the guard by construction, exactly as in the original loops.
pub trait EpochStep {
    /// Runs one epoch: sample views, forward, loss, backward. Must stage
    /// the primary gradient matrices for [`Self::grads_mut`].
    fn epoch(&mut self, cx: &mut EpochCtx<'_>) -> EpochOutcome;

    /// The epoch's primary gradient matrices — the fault-injection,
    /// NaN-scan and (by default) clipping target.
    fn grads_mut(&mut self) -> &mut [Matrix];

    /// NaN/Inf scan over any auxiliary gradients that live outside
    /// [`Self::grads_mut`] (e.g. DGI's discriminator gradient).
    fn aux_grads_bad(&self) -> bool {
        false
    }

    /// Clips gradients to the configured global norm. The default treats
    /// [`Self::grads_mut`] as one group; steps with several independently
    /// clipped parameter groups (MVGRL's two encoders) override.
    fn clip(&mut self, max_norm: f32) {
        optim::clip_grad_norm(self.grads_mut(), max_norm);
    }

    /// Applies the guard-approved update: optimiser steps, EMA target
    /// refresh, auxiliary ascent. `loss` is the epoch's recorded loss
    /// (after the fault plan — ADGCL's REINFORCE baseline tracks it).
    fn apply(&mut self, epoch: usize, lr: f32, loss: f32);

    /// Current inference-time embeddings, used for checkpoints and the
    /// final result.
    fn embed(&mut self) -> Matrix;

    /// Base learning rate before guard backoff scaling. Defaults to the
    /// shared `cfg.lr`; the walk models train with their own.
    fn base_lr(&self, cfg: &TrainConfig) -> f32 {
        cfg.lr
    }

    /// False when the step's updates are applied in place during
    /// [`Self::epoch`] and cannot be discarded (the SGNS walk models). A
    /// `RetryEpoch` verdict then records the loss and advances instead of
    /// re-running, so bad updates are not replayed on top of themselves.
    fn discard_supported(&self) -> bool {
        true
    }

    /// Captures the step's mutable cross-epoch state (weights, optimiser
    /// moments, RNG positions) for a durable checkpoint. `None` — the
    /// default — means the model does not support resumable checkpoints;
    /// the driver then fails a durable run with a typed
    /// [`TrainError::Checkpoint`] instead of silently writing a checkpoint
    /// that cannot actually resume.
    fn snapshot(&mut self) -> Option<StepState> {
        None
    }

    /// Restores state captured by [`Self::snapshot`] into a freshly
    /// constructed step (the immutable setup — selection, views, initial
    /// weights — must already have been rebuilt under the original seed).
    fn restore(&mut self, state: &StepState) -> Result<(), TrainError> {
        let _ = state;
        Err(TrainError::Checkpoint(
            "model does not support resumable checkpoints".into(),
        ))
    }
}

/// The training half of a [`crate::models::PretrainResult`], produced by
/// [`EpochDriver::run`]. The caller adds its own timing bookkeeping.
#[derive(Debug)]
pub struct EngineRun {
    /// Final embeddings ([`EpochStep::embed`] after the last epoch).
    pub embeddings: Matrix,
    /// One recorded loss per non-silent epoch.
    pub loss_curve: Vec<f32>,
    /// `(seconds since `start`, embeddings)` checkpoints.
    pub checkpoints: Vec<(f64, Matrix)>,
}

/// Owns the epoch loop shared by every model: guard, fault plan, loss
/// curve and checkpoint schedule.
pub struct EpochDriver<'a> {
    cfg: &'a TrainConfig,
    guard: NumericGuard,
    fault: FaultPlan,
}

impl<'a> EpochDriver<'a> {
    /// A fresh driver for one training run. This is the single production
    /// call site of [`NumericGuard::new`].
    pub fn new(cfg: &'a TrainConfig) -> Self {
        Self {
            cfg,
            guard: NumericGuard::new(&cfg.guard),
            fault: cfg.fault.clone().unwrap_or_default(),
        }
    }

    /// Drives `step` for `cfg.epochs` epochs. `start` is the caller's
    /// run-start instant (checkpoint timestamps are measured from it, so
    /// they include the caller's setup work, as before).
    ///
    /// This is the single production call site of [`NumericGuard::inspect`].
    pub fn run<S: EpochStep + ?Sized>(
        mut self,
        step: &mut S,
        start: Instant,
    ) -> Result<EngineRun, TrainError> {
        let cfg = self.cfg;
        let mut loss_curve = Vec::with_capacity(cfg.epochs);
        let mut checkpoints = Vec::new();
        let mut epoch = 0;
        // Durable resume: restore the step/guard state and pick the loop up
        // at the recorded epoch. Setup before this point (selection, views,
        // weight init) already replayed deterministically under the run's
        // original seed, so restoring the mutable state is sufficient for a
        // bitwise-identical continuation.
        let cfg_hash = cfg.durable.as_ref().map(|_| config_fingerprint(cfg));
        if let Some(d) = cfg.durable.as_ref().filter(|d| d.resume) {
            let ckpt = TrainCheckpoint::load_durable(Path::new(&d.path))?;
            if Some(ckpt.cfg_hash) != cfg_hash {
                return Err(TrainError::Checkpoint(format!(
                    "{}: checkpoint was produced under a different training config",
                    d.path
                )));
            }
            step.restore(&ckpt.step)?;
            self.guard.restore_state(&ckpt.guard);
            epoch = ckpt.next_epoch;
            loss_curve = ckpt.loss_curve;
            checkpoints = ckpt.snapshots;
        }
        while epoch < cfg.epochs {
            let lr = step.base_lr(cfg) * self.guard.lr_scale;
            let outcome = step.epoch(&mut EpochCtx {
                epoch,
                lr,
                fault: &self.fault,
                guard: &self.guard,
            });
            let (loss, emb_bad) = match outcome {
                EpochOutcome::Step {
                    loss,
                    embeddings_bad,
                } => (loss, embeddings_bad),
                EpochOutcome::SkipSilently => {
                    epoch += 1;
                    continue;
                }
                EpochOutcome::Stop => break,
            };
            let loss = self.fault.corrupt_loss(epoch, loss);
            self.fault.corrupt_gradients(epoch, step.grads_mut());
            let grads_bad = optim::grads_non_finite(step.grads_mut()) || step.aux_grads_bad();
            match self.guard.inspect(epoch, loss, grads_bad, emb_bad)? {
                GuardAction::Proceed => {
                    if let Some(max) = cfg.guard.max_grad_norm {
                        step.clip(max);
                    }
                    step.apply(epoch, lr, loss);
                    loss_curve.push(loss);
                    if let Some(every) = cfg.checkpoint_every {
                        if (epoch + 1) % every == 0 || epoch + 1 == cfg.epochs {
                            checkpoints.push((start.elapsed().as_secs_f64(), step.embed()));
                        }
                    }
                    if let Some(d) = cfg.durable.as_ref() {
                        if (epoch + 1) % d.every_epochs == 0 || epoch + 1 == cfg.epochs {
                            let state = step.snapshot().ok_or_else(|| {
                                TrainError::Checkpoint(
                                    "model does not support resumable checkpoints".into(),
                                )
                            })?;
                            let ckpt = TrainCheckpoint {
                                next_epoch: epoch + 1,
                                cfg_hash: cfg_hash.unwrap_or_default(),
                                guard: self.guard.state(),
                                loss_curve: loss_curve.clone(),
                                snapshots: checkpoints.clone(),
                                step: state,
                            };
                            ckpt.save_durable(Path::new(&d.path))?;
                        }
                    }
                    epoch += 1;
                }
                GuardAction::SkipEpoch => {
                    loss_curve.push(loss);
                    epoch += 1;
                }
                GuardAction::RetryEpoch { .. } => {
                    if !step.discard_supported() {
                        loss_curve.push(loss);
                        epoch += 1;
                    }
                }
            }
        }
        Ok(EngineRun {
            embeddings: step.embed(),
            loss_curve,
            checkpoints,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::guard::GuardPolicy;

    /// A minimal step: scalar "parameter" descending a quadratic, gradient
    /// staged in one 1×1 matrix.
    struct ToyStep {
        p: f32,
        grads: Vec<Matrix>,
        applied: Vec<usize>,
        lrs: Vec<f32>,
    }

    impl ToyStep {
        fn new() -> Self {
            Self {
                p: 4.0,
                grads: vec![Matrix::zeros(1, 1)],
                applied: Vec::new(),
                lrs: Vec::new(),
            }
        }
    }

    impl EpochStep for ToyStep {
        fn epoch(&mut self, _cx: &mut EpochCtx<'_>) -> EpochOutcome {
            *self.grads[0].as_mut_slice().first_mut().unwrap() = self.p;
            EpochOutcome::Step {
                loss: 0.5 * self.p * self.p,
                embeddings_bad: false,
            }
        }

        fn grads_mut(&mut self) -> &mut [Matrix] {
            &mut self.grads
        }

        fn apply(&mut self, epoch: usize, lr: f32, _loss: f32) {
            self.p -= lr * self.grads[0].get(0, 0);
            self.applied.push(epoch);
            self.lrs.push(lr);
        }

        fn embed(&mut self) -> Matrix {
            Matrix::filled(1, 1, self.p)
        }
    }

    fn cfg(epochs: usize) -> TrainConfig {
        TrainConfig {
            epochs,
            checkpoint_every: Some(2),
            ..TrainConfig::default()
        }
    }

    #[test]
    fn healthy_run_applies_every_epoch_and_checkpoints() {
        let cfg = cfg(5);
        let mut step = ToyStep::new();
        let run = EpochDriver::new(&cfg)
            .run(&mut step, Instant::now())
            .unwrap();
        assert_eq!(step.applied, vec![0, 1, 2, 3, 4]);
        assert_eq!(run.loss_curve.len(), 5);
        // Epochs 2, 4 and the final epoch 5.
        assert_eq!(run.checkpoints.len(), 3);
        assert!(step.p < 4.0);
        assert_eq!(run.embeddings.get(0, 0), step.p);
    }

    #[test]
    fn fault_plan_triggers_backoff_and_halved_lr() {
        let mut cfg = cfg(3);
        cfg.fault = Some(FaultPlan::nan_loss(&[1]));
        cfg.guard.policy = GuardPolicy::Backoff { max_retries: 2 };
        let mut step = ToyStep::new();
        let err = EpochDriver::new(&cfg).run(&mut step, Instant::now());
        // The fault is epoch-keyed, so both retries re-hit it and the
        // budget exhausts.
        assert!(err.is_err());
        assert_eq!(step.applied, vec![0]);
    }

    #[test]
    fn skip_policy_records_loss_without_applying() {
        let mut cfg = cfg(3);
        cfg.fault = Some(FaultPlan::nan_loss(&[1]));
        cfg.guard.policy = GuardPolicy::SkipEpoch;
        let mut step = ToyStep::new();
        let run = EpochDriver::new(&cfg)
            .run(&mut step, Instant::now())
            .unwrap();
        assert_eq!(step.applied, vec![0, 2]);
        assert_eq!(run.loss_curve.len(), 3);
        assert!(run.loss_curve[1].is_nan());
    }

    #[test]
    fn gradient_faults_are_injected_into_primary_grads() {
        let mut cfg = cfg(2);
        cfg.fault = Some(FaultPlan::nan_gradients(&[0]));
        cfg.guard.policy = GuardPolicy::SkipEpoch;
        let mut step = ToyStep::new();
        let run = EpochDriver::new(&cfg)
            .run(&mut step, Instant::now())
            .unwrap();
        assert_eq!(step.applied, vec![1]);
        assert_eq!(run.loss_curve.len(), 2);
    }

    #[test]
    fn retry_without_discard_support_advances() {
        struct NoDiscard(ToyStep);
        impl EpochStep for NoDiscard {
            fn epoch(&mut self, cx: &mut EpochCtx<'_>) -> EpochOutcome {
                self.0.epoch(cx)
            }
            fn grads_mut(&mut self) -> &mut [Matrix] {
                self.0.grads_mut()
            }
            fn apply(&mut self, epoch: usize, lr: f32, loss: f32) {
                self.0.apply(epoch, lr, loss);
            }
            fn embed(&mut self) -> Matrix {
                self.0.embed()
            }
            fn discard_supported(&self) -> bool {
                false
            }
        }
        let mut cfg = cfg(3);
        cfg.fault = Some(FaultPlan::nan_loss(&[1]));
        cfg.guard.policy = GuardPolicy::Backoff { max_retries: 5 };
        let mut step = NoDiscard(ToyStep::new());
        let run = EpochDriver::new(&cfg)
            .run(&mut step, Instant::now())
            .unwrap();
        // The faulted epoch is recorded once and training moves on, with
        // the halved lr persisting for later epochs.
        assert_eq!(step.0.applied, vec![0, 2]);
        assert_eq!(run.loss_curve.len(), 3);
        assert_eq!(step.0.lrs[1], 0.5 * step.0.lrs[0]);
    }

    #[test]
    fn stop_ends_the_run_early() {
        struct Stopper;
        impl EpochStep for Stopper {
            fn epoch(&mut self, _cx: &mut EpochCtx<'_>) -> EpochOutcome {
                EpochOutcome::Stop
            }
            fn grads_mut(&mut self) -> &mut [Matrix] {
                &mut []
            }
            fn apply(&mut self, _epoch: usize, _lr: f32, _loss: f32) {}
            fn embed(&mut self) -> Matrix {
                Matrix::zeros(1, 1)
            }
        }
        let cfg = cfg(10);
        let run = EpochDriver::new(&cfg)
            .run(&mut Stopper, Instant::now())
            .unwrap();
        assert!(run.loss_curve.is_empty());
        assert!(run.checkpoints.is_empty());
    }

    #[test]
    fn clipping_is_applied_before_the_update() {
        let mut cfg = cfg(1);
        cfg.guard.max_grad_norm = Some(1.0);
        let mut step = ToyStep::new();
        EpochDriver::new(&cfg)
            .run(&mut step, Instant::now())
            .unwrap();
        // Gradient was p = 4.0, clipped to norm 1.0 before apply.
        assert_eq!(step.p, 4.0 - step.lrs[0] * 1.0);
    }
}
