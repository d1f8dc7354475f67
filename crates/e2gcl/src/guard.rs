//! Numeric guard and deterministic fault injection for the training loops.
//!
//! Graph contrastive objectives are numerically fragile: one bad batch can
//! NaN the InfoNCE denominator and silently poison every later epoch. The
//! [`NumericGuard`] sits at the end of each training epoch — after the
//! loss and gradients are computed, before the optimiser step — and decides
//! whether to apply the update, discard the epoch, retry it at a reduced
//! learning rate, or abort the run with a [`TrainError`].
//!
//! The guard is zero-cost on healthy runs by construction: it draws no
//! randomness, mutates nothing on the `Proceed` path, and gradient-norm
//! clipping defaults to off, so a healthy run's floating-point trajectory
//! is bit-identical with or without the guard in place.
//!
//! [`FaultPlan`] is the matching test hook: a deterministic, epoch-keyed
//! description of NaN/Inf corruption that the training loops apply to their
//! own losses/gradients/features, so every guard policy can be exercised
//! end-to-end without relying on a model actually diverging.

use e2gcl_linalg::{Matrix, TrainError};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;

/// What the guard does when an epoch fails its health check.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum GuardPolicy {
    /// Abort the run with the detected [`TrainError`].
    FailFast,
    /// Discard the epoch's update and move on to the next epoch.
    SkipEpoch,
    /// Discard the update, halve the learning rate and re-run the epoch;
    /// abort after `max_retries` consecutive failed attempts.
    Backoff { max_retries: usize },
}

/// Per-run numeric-guard configuration, carried on `TrainConfig`.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct GuardConfig {
    /// Reaction to an unhealthy epoch.
    pub policy: GuardPolicy,
    /// A finite loss whose magnitude exceeds `divergence_factor *
    /// (|baseline| + 1)` — baseline being the first healthy epoch's loss —
    /// counts as diverged.
    pub divergence_factor: f32,
    /// If set, clip gradients to this global L2 norm before the optimiser
    /// step. `None` (the default) leaves updates bit-identical to the
    /// unguarded loops.
    pub max_grad_norm: Option<f32>,
    /// Also scan the epoch's embeddings for NaN/Inf (catches parameters
    /// poisoned by an earlier step).
    pub check_embeddings: bool,
}

impl Default for GuardConfig {
    fn default() -> Self {
        Self {
            policy: GuardPolicy::Backoff { max_retries: 2 },
            divergence_factor: 1e4,
            max_grad_norm: None,
            check_embeddings: true,
        }
    }
}

/// Verdict for one epoch, returned by [`NumericGuard::inspect`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum GuardAction {
    /// The epoch is healthy: apply the optimiser step and advance.
    Proceed,
    /// Discard this epoch's update and advance.
    SkipEpoch,
    /// Discard the update and re-run the same epoch with the learning rate
    /// scaled by `lr_scale` (cumulative halving across retries).
    RetryEpoch { lr_scale: f32 },
}

/// The mutable half of a [`NumericGuard`], captured into durable training
/// checkpoints so a resumed run continues with the same divergence baseline,
/// backoff budget and learning-rate scale the interrupted run had.
#[derive(Clone, Debug, PartialEq)]
pub struct GuardState {
    /// First healthy epoch's loss (divergence baseline), if seen.
    pub baseline: Option<f32>,
    /// Consecutive failed attempts of the current epoch.
    pub consecutive_failures: usize,
    /// Cumulative learning-rate scale.
    pub lr_scale: f32,
    /// Epochs skipped under [`GuardPolicy::SkipEpoch`].
    pub skipped_epochs: Vec<usize>,
}

/// Per-run numeric health tracker. Create one per `pretrain` call.
#[derive(Clone, Debug)]
pub struct NumericGuard {
    cfg: GuardConfig,
    baseline: Option<f32>,
    consecutive_failures: usize,
    /// Cumulative learning-rate scale; stays at 1.0 on healthy runs and is
    /// halved on every backoff retry (the reduction is permanent for the
    /// remainder of the run).
    pub lr_scale: f32,
    /// Epochs whose updates were discarded under [`GuardPolicy::SkipEpoch`].
    pub skipped_epochs: Vec<usize>,
}

impl NumericGuard {
    /// A fresh guard for one training run.
    pub fn new(cfg: &GuardConfig) -> Self {
        Self {
            cfg: *cfg,
            baseline: None,
            consecutive_failures: 0,
            lr_scale: 1.0,
            skipped_epochs: Vec::new(),
        }
    }

    /// Classifies one epoch. `grads_bad` / `embeddings_bad` are the caller's
    /// NaN/Inf scan results (pass `false` where a model has no gradient
    /// matrices, e.g. the random-walk models).
    ///
    /// Returns `Ok(action)` per the configured policy, or `Err` when the
    /// policy is fail-fast or a backoff budget is exhausted.
    pub fn inspect(
        &mut self,
        epoch: usize,
        loss: f32,
        grads_bad: bool,
        embeddings_bad: bool,
    ) -> Result<GuardAction, TrainError> {
        let problem = self.diagnose(epoch, loss, grads_bad, embeddings_bad);
        let Some(err) = problem else {
            self.consecutive_failures = 0;
            if self.baseline.is_none() {
                self.baseline = Some(loss);
            }
            return Ok(GuardAction::Proceed);
        };
        match self.cfg.policy {
            GuardPolicy::FailFast => Err(err),
            GuardPolicy::SkipEpoch => {
                self.skipped_epochs.push(epoch);
                Ok(GuardAction::SkipEpoch)
            }
            GuardPolicy::Backoff { max_retries } => {
                if self.consecutive_failures < max_retries {
                    self.consecutive_failures += 1;
                    self.lr_scale *= 0.5;
                    Ok(GuardAction::RetryEpoch {
                        lr_scale: self.lr_scale,
                    })
                } else {
                    Err(err)
                }
            }
        }
    }

    fn diagnose(
        &self,
        epoch: usize,
        loss: f32,
        grads_bad: bool,
        embeddings_bad: bool,
    ) -> Option<TrainError> {
        if !loss.is_finite() {
            return Some(TrainError::NonFiniteLoss { epoch });
        }
        if grads_bad {
            return Some(TrainError::NonFiniteGradient { epoch });
        }
        if self.cfg.check_embeddings && embeddings_bad {
            return Some(TrainError::NonFiniteEmbedding { epoch });
        }
        if let Some(baseline) = self.baseline {
            if loss.abs() > self.cfg.divergence_factor * (baseline.abs() + 1.0) {
                return Some(TrainError::DivergedLoss {
                    epoch,
                    loss,
                    baseline,
                });
            }
        }
        None
    }

    /// Scan helper mirroring `Matrix::has_non_finite` over optional pairs of
    /// view embeddings, honouring `check_embeddings`.
    pub fn embeddings_bad(&self, embeddings: &[&Matrix]) -> bool {
        self.cfg.check_embeddings && embeddings.iter().any(|m| m.has_non_finite())
    }

    /// Captures the guard's mutable state for a durable checkpoint.
    pub fn state(&self) -> GuardState {
        GuardState {
            baseline: self.baseline,
            consecutive_failures: self.consecutive_failures,
            lr_scale: self.lr_scale,
            skipped_epochs: self.skipped_epochs.clone(),
        }
    }

    /// Restores state captured by [`NumericGuard::state`]. The policy
    /// configuration is not part of the state — it comes from the (hash-
    /// verified) `TrainConfig` of the resumed run.
    pub fn restore_state(&mut self, state: &GuardState) {
        self.baseline = state.baseline;
        self.consecutive_failures = state.consecutive_failures;
        self.lr_scale = state.lr_scale;
        self.skipped_epochs = state.skipped_epochs.clone();
    }
}

/// Deterministic, epoch-keyed fault injection.
///
/// Each list names the epochs at which a corruption is applied. The plan is
/// carried on `TrainConfig::fault` (default `None` — the hooks compile to
/// nothing on healthy configurations) and applied by the training loops
/// themselves, so an injected NaN travels the exact path a real one would.
/// Injection is keyed purely on the epoch counter, so a backoff retry of an
/// injected epoch hits the same fault again — which is exactly what lets
/// tests prove the bounded-retry budget is enforced.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Epochs whose loss is replaced with NaN.
    #[serde(default)]
    pub nan_loss_at: Vec<usize>,
    /// Epochs whose gradient matrices get a NaN entry.
    #[serde(default)]
    pub nan_gradients_at: Vec<usize>,
    /// Epochs whose gradient matrices get an infinite entry.
    #[serde(default)]
    pub inf_gradients_at: Vec<usize>,
    /// Epochs whose (view) feature matrix gets a NaN entry.
    #[serde(default)]
    pub nan_features_at: Vec<usize>,
    /// Restricts the plan to the run whose *original* seed matches. `None`
    /// applies the plan to every run. Scoping is on the original seed on
    /// purpose: the retry of a scoped run (which trains under a derived
    /// seed) still sees the fault, so a scoped persistent fault exhausts the
    /// retry and lands in `failed_runs`.
    #[serde(default)]
    pub only_seed: Option<u64>,
}

impl FaultPlan {
    /// Plan that NaNs the loss at the given epochs.
    pub fn nan_loss(epochs: &[usize]) -> Self {
        Self {
            nan_loss_at: epochs.to_vec(),
            ..Self::default()
        }
    }

    /// Plan that NaNs the gradients at the given epochs.
    pub fn nan_gradients(epochs: &[usize]) -> Self {
        Self {
            nan_gradients_at: epochs.to_vec(),
            ..Self::default()
        }
    }

    /// Scopes the plan to the run with the given original seed.
    pub fn only_for_seed(mut self, seed: u64) -> Self {
        self.only_seed = Some(seed);
        self
    }

    /// True if the plan is scoped to a seed other than `seed` — i.e. this
    /// run should train fault-free. Checked by the pipeline run loops.
    pub fn skips_seed(&self, seed: u64) -> bool {
        self.only_seed.is_some_and(|s| s != seed)
    }

    /// True if no corruption is scheduled at any epoch.
    pub fn is_empty(&self) -> bool {
        self.nan_loss_at.is_empty()
            && self.nan_gradients_at.is_empty()
            && self.inf_gradients_at.is_empty()
            && self.nan_features_at.is_empty()
    }

    /// Loss as seen through the plan at `epoch`.
    pub fn corrupt_loss(&self, epoch: usize, loss: f32) -> f32 {
        if self.nan_loss_at.contains(&epoch) {
            f32::NAN
        } else {
            loss
        }
    }

    /// Applies any scheduled gradient corruption for `epoch` in place.
    pub fn corrupt_gradients(&self, epoch: usize, grads: &mut [Matrix]) {
        let value = if self.nan_gradients_at.contains(&epoch) {
            f32::NAN
        } else if self.inf_gradients_at.contains(&epoch) {
            f32::INFINITY
        } else {
            return;
        };
        if let Some(g) = grads.first_mut() {
            if let Some(v) = g.as_mut_slice().first_mut() {
                *v = value;
            }
        }
    }

    /// Applies any scheduled feature corruption for `epoch` in place.
    pub fn corrupt_features(&self, epoch: usize, x: &mut Matrix) {
        if self.nan_features_at.contains(&epoch) {
            if let Some(v) = x.as_mut_slice().first_mut() {
                *v = f32::NAN;
            }
        }
    }

    /// [`Self::corrupt_features`] on borrowed-or-owned view features: a
    /// borrowed matrix is copied only on a scheduled epoch.
    pub(crate) fn corrupt_view_features(&self, epoch: usize, x: &mut Cow<'_, Matrix>) {
        if self.nan_features_at.contains(&epoch) {
            self.corrupt_features(epoch, x.to_mut());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(policy: GuardPolicy) -> GuardConfig {
        GuardConfig {
            policy,
            ..GuardConfig::default()
        }
    }

    #[test]
    fn healthy_epochs_always_proceed() {
        let mut g = NumericGuard::new(&GuardConfig::default());
        for epoch in 0..5 {
            let a = g
                .inspect(epoch, 1.0 - epoch as f32 * 0.1, false, false)
                .unwrap();
            assert_eq!(a, GuardAction::Proceed);
        }
        assert_eq!(g.lr_scale, 1.0);
        assert!(g.skipped_epochs.is_empty());
    }

    #[test]
    fn fail_fast_surfaces_the_error() {
        let mut g = NumericGuard::new(&cfg(GuardPolicy::FailFast));
        let err = g.inspect(3, f32::NAN, false, false).unwrap_err();
        assert_eq!(err, TrainError::NonFiniteLoss { epoch: 3 });
    }

    #[test]
    fn skip_epoch_records_and_advances() {
        let mut g = NumericGuard::new(&cfg(GuardPolicy::SkipEpoch));
        assert_eq!(
            g.inspect(0, 1.0, false, false).unwrap(),
            GuardAction::Proceed
        );
        assert_eq!(
            g.inspect(1, 2.0, true, false).unwrap(),
            GuardAction::SkipEpoch
        );
        assert_eq!(
            g.inspect(2, 0.9, false, false).unwrap(),
            GuardAction::Proceed
        );
        assert_eq!(g.skipped_epochs, vec![1]);
    }

    #[test]
    fn backoff_halves_lr_then_gives_up() {
        let mut g = NumericGuard::new(&cfg(GuardPolicy::Backoff { max_retries: 2 }));
        assert_eq!(
            g.inspect(0, f32::INFINITY, false, false).unwrap(),
            GuardAction::RetryEpoch { lr_scale: 0.5 }
        );
        assert_eq!(
            g.inspect(0, f32::INFINITY, false, false).unwrap(),
            GuardAction::RetryEpoch { lr_scale: 0.25 }
        );
        let err = g.inspect(0, f32::INFINITY, false, false).unwrap_err();
        assert_eq!(err, TrainError::NonFiniteLoss { epoch: 0 });
    }

    #[test]
    fn backoff_recovers_and_resets_the_budget() {
        let mut g = NumericGuard::new(&cfg(GuardPolicy::Backoff { max_retries: 1 }));
        assert!(matches!(
            g.inspect(0, f32::NAN, false, false).unwrap(),
            GuardAction::RetryEpoch { .. }
        ));
        // Retry succeeds: budget resets, lr reduction persists.
        assert_eq!(
            g.inspect(0, 1.0, false, false).unwrap(),
            GuardAction::Proceed
        );
        assert_eq!(g.lr_scale, 0.5);
        assert!(matches!(
            g.inspect(5, f32::NAN, false, false).unwrap(),
            GuardAction::RetryEpoch { .. }
        ));
    }

    #[test]
    fn divergence_is_measured_against_first_healthy_loss() {
        let mut g = NumericGuard::new(&cfg(GuardPolicy::FailFast));
        g.inspect(0, 2.0, false, false).unwrap();
        // Large but under the threshold: fine.
        g.inspect(1, 100.0, false, false).unwrap();
        let err = g.inspect(2, 1e9, false, false).unwrap_err();
        assert!(matches!(err, TrainError::DivergedLoss { epoch: 2, .. }));
    }

    #[test]
    fn gradient_and_embedding_problems_are_distinguished() {
        let mut g = NumericGuard::new(&cfg(GuardPolicy::FailFast));
        let err = g.inspect(1, 1.0, true, false).unwrap_err();
        assert_eq!(err, TrainError::NonFiniteGradient { epoch: 1 });
        let mut g = NumericGuard::new(&cfg(GuardPolicy::FailFast));
        let err = g.inspect(2, 1.0, false, true).unwrap_err();
        assert_eq!(err, TrainError::NonFiniteEmbedding { epoch: 2 });
    }

    #[test]
    fn embedding_check_can_be_disabled() {
        let mut c = cfg(GuardPolicy::FailFast);
        c.check_embeddings = false;
        let mut g = NumericGuard::new(&c);
        assert_eq!(
            g.inspect(0, 1.0, false, true).unwrap(),
            GuardAction::Proceed
        );
        let bad = Matrix::filled(1, 1, f32::NAN);
        assert!(!g.embeddings_bad(&[&bad]));
    }

    #[test]
    fn fault_plan_corrupts_only_scheduled_epochs() {
        let plan = FaultPlan::nan_gradients(&[2]);
        let mut grads = vec![Matrix::filled(2, 2, 1.0)];
        plan.corrupt_gradients(1, &mut grads);
        assert!(!grads[0].has_non_finite());
        plan.corrupt_gradients(2, &mut grads);
        assert!(grads[0].has_non_finite());

        let plan = FaultPlan::nan_loss(&[0]);
        assert!(plan.corrupt_loss(0, 1.0).is_nan());
        assert_eq!(plan.corrupt_loss(1, 1.0), 1.0);

        let plan = FaultPlan {
            inf_gradients_at: vec![1],
            ..FaultPlan::default()
        };
        let mut grads = vec![Matrix::filled(1, 1, 0.0)];
        plan.corrupt_gradients(1, &mut grads);
        assert_eq!(grads[0].get(0, 0), f32::INFINITY);

        let plan = FaultPlan {
            nan_features_at: vec![3],
            ..FaultPlan::default()
        };
        let mut x = Matrix::filled(2, 2, 0.5);
        plan.corrupt_features(2, &mut x);
        assert!(!x.has_non_finite());
        plan.corrupt_features(3, &mut x);
        assert!(x.has_non_finite());
    }

    #[test]
    fn fault_plan_default_is_empty_and_serde_roundtrips() {
        assert!(FaultPlan::default().is_empty());
        let plan = FaultPlan::nan_gradients(&[1, 4]);
        assert!(!plan.is_empty());
        let json = serde_json::to_string(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(back, plan);
    }
}
