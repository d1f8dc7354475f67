//! Contrastive pre-training models.
//!
//! Every model implements [`ContrastiveModel`]: given an unlabelled graph it
//! produces node embeddings (plus timing and optional training-curve
//! checkpoints). Labels never enter pre-training; they are only used later
//! by the [`crate::eval`] decoders, exactly as in Alg. 1.

pub mod adgcl;
pub mod bgrl;
pub mod dgi;
pub mod e2gcl_model;
pub mod gae;
pub mod grace;
mod infonce;
pub mod mvgrl;
pub mod walks;

use crate::config::{MinibatchConfig, TrainConfig};
use e2gcl_graph::CsrGraph;
use e2gcl_linalg::{Matrix, SeedRng, TrainError};
use e2gcl_nn::FrozenEncoder;
use e2gcl_selector::greedy::GreedySelector;
use std::time::Duration;

/// Output of a pre-training run.
#[derive(Clone, Debug)]
pub struct PretrainResult {
    /// Final embeddings of every node, computed on the *original* graph.
    pub embeddings: Matrix,
    /// The trained encoder, frozen for inference — the unit `e2gcl-serve`
    /// persists and queries. `None` for models whose embedding is not a
    /// parametric forward pass over the graph (e.g. random-walk tables) or
    /// that have not been taught to export one yet.
    pub encoder: Option<FrozenEncoder>,
    /// Time spent selecting representative nodes (`ST` of Table V; zero for
    /// models that train on all nodes).
    pub selection_time: Duration,
    /// Total pre-training wall time (`TT` of Table V), selection included.
    pub total_time: Duration,
    /// `(elapsed seconds, embeddings)` checkpoints, recorded when
    /// `TrainConfig::checkpoint_every` is set (drives Fig. 3).
    pub checkpoints: Vec<(f64, Matrix)>,
    /// Mean contrastive loss per epoch (for convergence diagnostics).
    pub loss_curve: Vec<f32>,
}

/// A self-supervised graph representation learner.
pub trait ContrastiveModel {
    /// Model name as it appears in the paper's tables.
    fn name(&self) -> String;

    /// Pre-trains on `(g, x)` without labels and returns node embeddings.
    ///
    /// Numeric health is checked every epoch by a [`crate::NumericGuard`]
    /// configured through `cfg.guard`; an unrecoverable failure (per the
    /// configured policy) aborts the run with a [`TrainError`].
    fn pretrain(
        &self,
        g: &CsrGraph,
        x: &Matrix,
        cfg: &TrainConfig,
        rng: &mut SeedRng,
    ) -> Result<PretrainResult, TrainError>;
}

/// Typed rejection for the two config blocks only E²GCL and GRACE/GCA
/// honour, called at the top of every other model's `pretrain` so neither
/// is silently ignored: a `cfg.minibatch` block (the model's training loop
/// has no mini-batch form) and a non-`Full` [`crate::config::LossStrategy`]
/// (the sub-quadratic kernels replace the InfoNCE denominator, and the
/// model's objective is not InfoNCE-shaped).
pub(crate) fn ensure_whole_graph_full_loss(
    cfg: &TrainConfig,
    model: &str,
) -> Result<(), TrainError> {
    if cfg.minibatch.is_some() {
        return Err(TrainError::InvalidConfig(format!(
            "{model} does not support mini-batch training; unset cfg.minibatch \
             or use E2GCL / GRACE"
        )));
    }
    if !cfg.loss.is_full() {
        return Err(TrainError::InvalidConfig(format!(
            "{model} supports only the full contrastive loss; unset cfg.loss \
             (sub-quadratic strategies apply to E2GCL and GRACE/GCA)"
        )));
    }
    Ok(())
}

/// The mini-batch block when it samples; `None` trains on the whole graph
/// (no block, or the degenerate whole-graph one).
pub(crate) fn sampled_minibatch(cfg: &TrainConfig, n: usize) -> Option<&MinibatchConfig> {
    cfg.minibatch.as_ref().filter(|mb| !mb.is_full_batch(n))
}

/// Typed rejection for NaN or infinite input features, which would poison
/// every distance the selector and the encoder compute.
pub(crate) fn ensure_finite_features(x: &Matrix) -> Result<(), TrainError> {
    match x.as_slice().iter().position(|v| !v.is_finite()) {
        Some(at) => Err(TrainError::NonFiniteFeatures {
            row: at / x.cols(),
            col: at % x.cols(),
        }),
        None => Ok(()),
    }
}

/// Upper bound on the candidate pool [`select_negatives`] hands to the
/// greedy selector, as a multiple of the negative budget `k` (floored at
/// [`NEGATIVE_POOL_MIN`]). Selection runs every epoch, so it must stay
/// o(n) on million-node graphs; a pool of `8k` rows keeps the Alg. 2
/// clustering+greedy work flat while still giving the selector real
/// diversity to pick from.
const NEGATIVE_POOL_FACTOR: usize = 8;
const NEGATIVE_POOL_MIN: usize = 2048;

/// Deterministically selects `k` representative negative rows of `repr`
/// for the small-negative-set loss via the Alg. 2 greedy selector
/// ([`GreedySelector::select_from_aggregate`] on the current embeddings).
///
/// Returns global row indices, sorted ascending. When `repr` has more than
/// `max(8k, 2048)` rows, the selector runs on a candidate pool of that
/// size drawn without replacement from `rng` — O(pool) per epoch instead
/// of O(n) — and the picks are mapped back to global ids. All randomness
/// comes from `rng`, so the choice is a pure function of the RNG stream
/// and the embeddings (bit-identical across `RAYON_NUM_THREADS`; the
/// selector's gain argmax tie-breaks on lowest id).
pub(crate) fn select_negatives(repr: &Matrix, k: usize, rng: &mut SeedRng) -> Vec<usize> {
    let n = repr.rows();
    if k >= n {
        return (0..n).collect();
    }
    let pool_cap = (NEGATIVE_POOL_FACTOR * k).max(NEGATIVE_POOL_MIN);
    let selector = GreedySelector::default();
    let mut nodes = if n <= pool_cap {
        selector.select_from_aggregate(repr, k, rng).nodes
    } else {
        let mut pool = rng.sample_without_replacement(n, pool_cap);
        // Sorting makes the pooled sub-matrix (and therefore the greedy
        // run) a function of the sampled *set*, not of the draw order.
        pool.sort_unstable();
        let pooled = repr.select_rows(&pool);
        selector
            .select_from_aggregate(&pooled, k, rng)
            .nodes
            .into_iter()
            .map(|local| pool[local])
            .collect()
    };
    nodes.sort_unstable();
    nodes
}

/// Samples `count` negative indices in `[0, n)` distinct from `anchor`.
pub(crate) fn sample_negative_indices(
    n: usize,
    anchor: usize,
    count: usize,
    rng: &mut SeedRng,
) -> Vec<usize> {
    let mut out = Vec::with_capacity(count);
    if n <= 1 {
        return out;
    }
    for _ in 0..count {
        let mut u = rng.below(n - 1);
        if u >= anchor {
            u += 1;
        }
        out.push(u);
    }
    out
}

/// Shuffles `items` and splits them into batches of at most `batch_size`.
pub(crate) fn shuffled_batches(
    mut items: Vec<usize>,
    batch_size: usize,
    rng: &mut SeedRng,
) -> Vec<Vec<usize>> {
    rng.shuffle(&mut items);
    items
        .chunks(batch_size.max(2))
        .map(|c| c.to_vec())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn negatives_exclude_anchor() {
        let mut rng = SeedRng::new(0);
        for anchor in 0..5 {
            let negs = sample_negative_indices(5, anchor, 50, &mut rng);
            assert_eq!(negs.len(), 50);
            assert!(negs.iter().all(|&u| u != anchor && u < 5));
        }
    }

    #[test]
    fn negatives_degenerate_single_node() {
        let mut rng = SeedRng::new(1);
        assert!(sample_negative_indices(1, 0, 3, &mut rng).is_empty());
    }

    #[test]
    fn full_loss_guard_rejects_sub_quadratic_strategies() {
        let mut cfg = TrainConfig::default();
        assert!(ensure_whole_graph_full_loss(&cfg, "DGI").is_ok());
        cfg.loss = crate::config::LossStrategy::SmallNeg { negatives: 64 };
        let err = ensure_whole_graph_full_loss(&cfg, "DGI").unwrap_err();
        assert!(matches!(err, TrainError::InvalidConfig(_)), "{err}");
    }

    #[test]
    fn select_negatives_is_sorted_deterministic_and_bounded() {
        let mut rng = SeedRng::new(7);
        let mut repr = Matrix::zeros(300, 8);
        for v in repr.as_mut_slice() {
            *v = rng.normal();
        }
        let a = select_negatives(&repr, 24, &mut SeedRng::new(1));
        let b = select_negatives(&repr, 24, &mut SeedRng::new(1));
        assert_eq!(a, b);
        assert_eq!(a.len(), 24);
        assert!(a.windows(2).all(|w| w[0] < w[1]), "sorted unique: {a:?}");
        assert!(a.iter().all(|&v| v < 300));
        // k >= n short-circuits to the identity set without consuming RNG.
        let mut untouched = SeedRng::new(2);
        let all = select_negatives(&repr, 300, &mut untouched);
        assert_eq!(all, (0..300).collect::<Vec<_>>());
        assert_eq!(untouched.below(1 << 30), SeedRng::new(2).below(1 << 30));
    }

    #[test]
    fn batches_cover_everything_once() {
        let mut rng = SeedRng::new(2);
        let batches = shuffled_batches((0..103).collect(), 25, &mut rng);
        let mut all: Vec<usize> = batches.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..103).collect::<Vec<_>>());
    }
}
