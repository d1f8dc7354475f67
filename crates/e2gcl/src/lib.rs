//! # E²GCL — Efficient and Expressive Contrastive Learning on GNNs
//!
//! A from-scratch Rust reproduction of *"E²GCL: Efficient and Expressive
//! Contrastive Learning on Graph Neural Networks"* (ICDE 2024): the
//! representative-node selector (§III), the locality-preserving view
//! generator (§IV), the contrastive training loop (Alg. 1), every baseline
//! of the paper's evaluation, and the evaluation protocol itself.
//!
//! ## Quick start
//!
//! ```
//! use e2gcl::prelude::*;
//!
//! // A small synthetic citation-style graph (Cora analog at 10% scale).
//! let data = NodeDataset::generate(&spec("cora-sim").unwrap(), 0.1, 7);
//!
//! // Pre-train with E²GCL: coreset selection + importance-aware views.
//! let model = E2gclModel::default();
//! let cfg = TrainConfig { epochs: 5, ..TrainConfig::default() };
//! let mut rng = SeedRng::new(0);
//! let out = model.pretrain(&data.graph, &data.features, &cfg, &mut rng).unwrap();
//!
//! // Evaluate with the paper's linear-probe protocol.
//! let acc = e2gcl::eval::node_classification_accuracy(
//!     &out.embeddings, &data.labels, data.num_classes, 0,
//! );
//! assert!(acc > 0.0);
//! ```
//!
//! ## Crate map
//!
//! * [`config`] — shared training hyperparameters;
//! * [`engine`] — the [`engine::EpochDriver`] every model trains through:
//!   it owns the run clock and the epoch loop (numeric guard, fault
//!   injection, backoff, checkpoints) and returns the finished
//!   [`PretrainResult`]; models implement [`engine::EpochStep`];
//! * [`models`] — [`models::ContrastiveModel`] implementations: E²GCL and
//!   the GRACE / GCA / MVGRL / BGRL / AFGRL / DGI / GAE / VGAE / ADGCL /
//!   DeepWalk / Node2Vec baselines;
//! * [`eval`] — the §V-A2 protocol: frozen-encoder linear probe for node
//!   classification, link prediction, graph classification, plus the
//!   supervised GCN / MLP references;
//! * [`pipeline`] — Alg. 1 end-to-end runs with timing (drives Tables IV–IX
//!   and every figure);
//! * re-exported substrate crates: [`e2gcl_graph`], [`e2gcl_linalg`],
//!   [`e2gcl_nn`], [`e2gcl_selector`], [`e2gcl_views`], [`e2gcl_datasets`].

pub mod checkpoint;
pub mod config;
pub use e2gcl_linalg::durable;
pub mod engine;
pub mod eval;
pub mod guard;
pub mod models;
pub mod pipeline;

pub use checkpoint::{StepState, TrainCheckpoint};
pub use config::{DurableConfig, MinibatchConfig, TrainConfig};
pub use e2gcl_linalg::TrainError;
pub use engine::{EpochCtx, EpochDriver, EpochOutcome, EpochStep};
pub use guard::{FaultPlan, GuardAction, GuardConfig, GuardPolicy, GuardState, NumericGuard};
pub use models::{ContrastiveModel, PretrainResult};

// Re-export the substrate crates under one roof.
pub use e2gcl_datasets as datasets;
pub use e2gcl_graph as graph;
pub use e2gcl_linalg as linalg;
pub use e2gcl_nn as nn;
pub use e2gcl_selector as selector;
pub use e2gcl_views as views;

/// Convenient glob-import surface for examples and downstream users.
pub mod prelude {
    pub use crate::config::{DurableConfig, LossStrategy, MinibatchConfig, TrainConfig};
    pub use crate::eval;
    pub use crate::guard::{FaultPlan, GuardConfig, GuardPolicy, NumericGuard};
    pub use crate::models::{
        e2gcl_model::{
            E2gclConfig, E2gclModel, EncoderKind, LossKind, SelectorKind, ViewMode, ViewStrategy,
        },
        ContrastiveModel, PretrainResult,
    };
    pub use e2gcl_datasets::{spec, GraphDataset, NodeDataset};
    pub use e2gcl_graph::CsrGraph;
    pub use e2gcl_linalg::{Matrix, SeedRng, TrainError};
}
