//! Neural-network substrate: the paper's encoders, losses and decoders with
//! hand-derived gradients.
//!
//! The reproduction environment has no autodiff framework, so each building
//! block implements an explicit `forward` that caches what its `backward`
//! needs. The architectures are exactly the ones the paper trains:
//!
//! * [`gcn::GcnEncoder`] — the Eq. (1) GCN `H^{l+1} = σ(A_n H^l W^l)`;
//! * [`mlp::Linear`] / [`mlp::Mlp`] — projection heads and decoders;
//! * [`loss`] — Eq. (5) margin contrastive loss, InfoNCE (GRACE/GCA), BCE,
//!   softmax cross-entropy, cosine bootstrap (BGRL);
//! * [`contrast`] — pluggable [`ContrastiveLoss`] strategies: the full
//!   O(n²) InfoNCE, the Eq. (5) margin loss, and sub-quadratic
//!   small-negative-set and neighbourhood-localized kernels (DESIGN.md
//!   §15);
//! * [`optim`] — SGD and Adam;
//! * [`probe`] — the `l2`-regularised linear probe used by the evaluation
//!   protocol (§V-A2), plus the link-prediction decoder;
//! * [`ema`] — exponential-moving-average target parameters (BGRL/AFGRL);
//! * [`frozen`] — inference-only [`frozen::FrozenEncoder`], the unit of
//!   persistence and serving (`e2gcl-serve` artifacts);
//! * the `*Workspace` types ([`gcn::GcnWorkspace`],
//!   [`sage::SageWorkspace`], [`mlp::MlpWorkspace`]) and the `*_with` loss
//!   variants let steady-state training epochs run without allocating new
//!   matrices.
//!
//! Every gradient is validated against central finite differences in the
//! test suites (`grad check` tests in each module).

pub mod contrast;
pub mod ema;
pub mod frozen;
pub mod gcn;
pub mod loss;
pub mod mlp;
pub mod optim;
pub mod probe;
pub mod sage;
pub mod sgc;

pub use contrast::{
    ContrastiveLoss, FullInfoNce, LocalizedInfoNce, MarginContrastive, Neighborhoods,
    SmallNegInfoNce,
};
pub use frozen::{EncoderWorkspace, FrozenEncoder};
pub use gcn::{GcnEncoder, GcnWorkspace};
pub use mlp::{Linear, Mlp, MlpWorkspace};
pub use optim::{Adam, Optimizer, Sgd};
pub use sage::{SageEncoder, SageWorkspace};
pub use sgc::SgcEncoder;
