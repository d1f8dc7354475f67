//! Workspace error taxonomy for the fault-tolerant training runtime.
//!
//! Every layer of the reproduction — dataset registries, training loops,
//! the evaluation pipeline, the bench harness and the CLI — reports
//! failures through [`TrainError`]. The enum lives in this crate because
//! `e2gcl-linalg` is the one crate every other workspace member depends
//! on; `e2gcl` re-exports it through its prelude.
//!
//! The taxonomy is deliberately small and hand-rolled (no `thiserror`):
//! numeric failures carry the epoch where the guard fired so a divergent
//! run can be localised, and lookup failures carry the valid-name list so
//! the CLI can print actionable messages.

use std::fmt;

/// A training-runtime failure.
#[derive(Clone, Debug, PartialEq)]
pub enum TrainError {
    /// The epoch loss was NaN or infinite.
    NonFiniteLoss { epoch: usize },
    /// The loss stayed finite but blew past the divergence threshold
    /// relative to the first healthy epoch's baseline.
    DivergedLoss {
        epoch: usize,
        loss: f32,
        baseline: f32,
    },
    /// A gradient matrix contained NaN or infinite entries.
    NonFiniteGradient { epoch: usize },
    /// A forward pass produced NaN or infinite embeddings (the parameters
    /// are already poisoned at this point).
    NonFiniteEmbedding { epoch: usize },
    /// An input feature is NaN or infinite; `row`/`col` locate the first
    /// one in row-major order.
    NonFiniteFeatures { row: usize, col: usize },
    /// A configuration value fails validation (see `TrainConfig::validate`).
    InvalidConfig(String),
    /// A dataset name not present in the registry.
    UnknownDataset { name: String, valid: Vec<String> },
    /// A model name not present in the bench/CLI registry.
    UnknownModel { name: String, valid: Vec<String> },
    /// A durable-checkpoint operation (save, load, or resume) failed: I/O
    /// error, corrupt file, config mismatch, or a model that does not
    /// support state snapshots.
    Checkpoint(String),
}

impl fmt::Display for TrainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrainError::NonFiniteLoss { epoch } => {
                write!(f, "non-finite loss at epoch {epoch}")
            }
            TrainError::DivergedLoss {
                epoch,
                loss,
                baseline,
            } => write!(
                f,
                "diverged loss at epoch {epoch}: |{loss:.4e}| vs baseline {baseline:.4e}"
            ),
            TrainError::NonFiniteGradient { epoch } => {
                write!(f, "non-finite gradient at epoch {epoch}")
            }
            TrainError::NonFiniteEmbedding { epoch } => {
                write!(f, "non-finite embeddings at epoch {epoch}")
            }
            TrainError::NonFiniteFeatures { row, col } => {
                write!(f, "non-finite input feature at row {row}, column {col}")
            }
            TrainError::InvalidConfig(msg) => write!(f, "invalid config: {msg}"),
            TrainError::UnknownDataset { name, valid } => write!(
                f,
                "unknown dataset '{name}'; valid names: {}",
                valid.join(", ")
            ),
            TrainError::UnknownModel { name, valid } => write!(
                f,
                "unknown model '{name}'; valid names: {}",
                valid.join(", ")
            ),
            TrainError::Checkpoint(msg) => write!(f, "checkpoint error: {msg}"),
        }
    }
}

impl std::error::Error for TrainError {}

impl TrainError {
    /// True for the numeric (per-epoch) failure variants — the ones a
    /// guard policy can retry or skip, as opposed to configuration or
    /// lookup mistakes that no amount of retrying will fix.
    pub fn is_numeric(&self) -> bool {
        matches!(
            self,
            TrainError::NonFiniteLoss { .. }
                | TrainError::DivergedLoss { .. }
                | TrainError::NonFiniteGradient { .. }
                | TrainError::NonFiniteEmbedding { .. }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_epoch_for_numeric_variants() {
        let e = TrainError::NonFiniteLoss { epoch: 7 };
        assert!(e.to_string().contains("epoch 7"));
        let e = TrainError::NonFiniteGradient { epoch: 3 };
        assert!(e.to_string().contains("epoch 3"));
        let e = TrainError::NonFiniteEmbedding { epoch: 1 };
        assert!(e.to_string().contains("epoch 1"));
        let e = TrainError::DivergedLoss {
            epoch: 2,
            loss: 1e9,
            baseline: 1.0,
        };
        assert!(e.to_string().contains("epoch 2"));
    }

    #[test]
    fn display_lists_valid_names_for_lookup_variants() {
        let e = TrainError::UnknownDataset {
            name: "corra".into(),
            valid: vec!["cora-sim".into(), "citeseer-sim".into()],
        };
        let s = e.to_string();
        assert!(s.contains("corra") && s.contains("cora-sim") && s.contains("citeseer-sim"));
        let e = TrainError::UnknownModel {
            name: "GRACY".into(),
            valid: vec!["GRACE".into()],
        };
        assert!(e.to_string().contains("GRACY"));
    }

    #[test]
    fn numeric_classification() {
        assert!(TrainError::NonFiniteLoss { epoch: 0 }.is_numeric());
        assert!(TrainError::DivergedLoss {
            epoch: 0,
            loss: 0.0,
            baseline: 0.0
        }
        .is_numeric());
        assert!(!TrainError::InvalidConfig("x".into()).is_numeric());
        assert!(!TrainError::NonFiniteFeatures { row: 0, col: 0 }.is_numeric());
        assert!(!TrainError::Checkpoint("x".into()).is_numeric());
        assert!(!TrainError::UnknownDataset {
            name: "x".into(),
            valid: vec![]
        }
        .is_numeric());
    }

    #[test]
    fn implements_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&TrainError::NonFiniteLoss { epoch: 0 });
    }
}
