//! Neural-network substrate: the paper's encoders, losses and decoders with
//! hand-derived gradients.
//!
//! The reproduction environment has no autodiff framework, so each building
//! block implements an explicit backward pass. The architectures are
//! exactly the ones the paper trains:
//!
//! * [`gcn::GcnEncoder`], [`sgc::SgcEncoder`], [`sage::SageEncoder`] — the
//!   Eq. (1) GCN `H^{l+1} = σ(A_n H^l W^l)` and the other two members of
//!   the §IV-C encoder-agnosticism set;
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
//! * [`frozen`] — [`frozen::FrozenEncoder`], the one type over the three
//!   encoder families: trained by the contrastive step, then the unit of
//!   persistence and serving (`e2gcl-serve` artifacts).
//!
//! Each encoder and the MLP head has one training pass: `forward_with`
//! writes the output and the activations its `backward_with` needs into a
//! `*Workspace` ([`gcn::GcnWorkspace`], [`sgc::SgcWorkspace`],
//! [`sage::SageWorkspace`], [`mlp::MlpWorkspace`];
//! [`frozen::EncoderWorkspace`] over the families). Together with the
//! `*_with` loss variants a steady-state epoch through warm workspaces
//! allocates no new matrices. `embed` is the allocating inference pass.
//! [`mlp::Linear`] keeps a caching `forward`/`backward` pair, and the GCN
//! keeps one, [`gcn::GcnCache`], only for `e2e_bench`'s training replays.
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
pub use sgc::{SgcEncoder, SgcWorkspace};
