//! In-memory embedding store with batched similarity and classification
//! queries.
//!
//! The store holds the artifact's full-graph embedding matrix plus
//! precomputed row norms; queries are cosine top-k (nearest neighbours) and
//! linear-probe classification. Batches fan out over the rayon worker pool.

use crate::ServeError;
use e2gcl_linalg::Matrix;
use e2gcl_linalg::SeedRng;
use e2gcl_nn::probe::{standard_stats, LinearProbe, ProbeConfig};
use rayon::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One similarity hit: `(node, cosine score)`.
pub type Hit = (usize, f32);

/// A scored node ordered by `(score, node)` with NaN-safe total ordering.
#[derive(PartialEq)]
struct Scored {
    score: f32,
    node: usize,
}

impl Eq for Scored {}

impl PartialOrd for Scored {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Scored {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.score
            .total_cmp(&other.score)
            .then_with(|| other.node.cmp(&self.node))
    }
}

/// Streaming top-`k` collector with the store's ranking contract: best
/// cosine first, exact ties broken by **ascending node id**. Both the
/// brute-force scan and the IVF re-rank feed candidates through this one
/// type, so the two paths can never disagree on ordering.
pub(crate) struct TopKCollector {
    k: usize,
    heap: BinaryHeap<Reverse<Scored>>,
}

impl TopKCollector {
    pub(crate) fn new(k: usize) -> Self {
        Self {
            k,
            heap: BinaryHeap::with_capacity(k + 1),
        }
    }

    pub(crate) fn offer(&mut self, node: usize, score: f32) {
        if self.heap.len() < self.k {
            self.heap.push(Reverse(Scored { score, node }));
            return;
        }
        // Most candidates lose; reject on one comparison against the
        // current k-th instead of paying a push + pop. Equivalent to the
        // naive push-then-pop: `Scored`'s ordering is strict for distinct
        // nodes, so the survivor set is identical either way (a candidate
        // ranked at or below the k-th is dropped by both).
        match self.heap.peek() {
            Some(Reverse(kth)) if *kth < (Scored { score, node }) => {
                self.heap.pop();
                self.heap.push(Reverse(Scored { score, node }));
            }
            _ => {}
        }
    }

    pub(crate) fn into_hits(self) -> Vec<Hit> {
        let mut hits: Vec<Hit> = self
            .heap
            .into_iter()
            .map(|Reverse(s)| (s.node, s.score))
            .collect();
        hits.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        hits
    }
}

/// The one cosine-normalisation expression in the serving stack, applied
/// to a dot product with the dispatched lane-kernel bit-semantics
/// ([`e2gcl_linalg::dispatch`]: `ops::lane_dot` on the scalar path, the
/// 8-lane fused analogue on AVX2). Brute force scores rows in the store's
/// matrix one at a time ([`cosine_from_parts`]); the IVF packed-list scan
/// scores contiguous copies of the same rows four at a time via the
/// dispatched `lane_dot4` — identical bits in, identical score bits out
/// within a dispatch config, because each path's `lane_dot4` is
/// element-wise bit-identical to its `lane_dot` and this normalisation is
/// shared.
///
/// Zero-denominator pairs score `0.0`; a computed `-0.0` is canonicalised
/// to `+0.0` so numerically equal scores are equal under `total_cmp` too
/// (otherwise the sign bit, not the node id, would break the tie).
#[inline]
pub(crate) fn cosine_from_dot(dot: f32, norm: f32, qnorm: f32) -> f32 {
    let denom = qnorm * norm;
    let score = if denom > 0.0 { dot / denom } else { 0.0 };
    // -0.0 + 0.0 == +0.0 in IEEE-754; every other value (NaN included)
    // passes through unchanged.
    score + 0.0
}

/// Cosine of one row against the query: [`cosine_from_dot`] over the
/// dispatched lane kernel for `kpath` (independent partial sums, fixed
/// deterministic order — see the path's contract docs). The path is an
/// explicit argument so parallel callers score with the path captured on
/// the *calling* thread (rayon workers don't inherit a thread-local
/// dispatch override).
#[inline]
pub(crate) fn cosine_from_parts(
    kpath: e2gcl_linalg::DispatchPath,
    row: &[f32],
    norm: f32,
    query: &[f32],
    qnorm: f32,
) -> f32 {
    cosine_from_dot(kpath.lane_dot(row, query), norm, qnorm)
}

/// Frozen embeddings, indexed for serving.
pub struct EmbeddingStore {
    embeddings: Matrix,
    norms: Vec<f32>,
    probe: Option<ProbeState>,
}

/// A fitted probe plus the store-matrix standardisation statistics — one-row
/// serving queries must be standardised with the *store's* stats, not their
/// own (see [`LinearProbe::predict_with_stats`]).
struct ProbeState {
    probe: LinearProbe,
    means: Vec<f32>,
    stds: Vec<f32>,
}

impl EmbeddingStore {
    /// Indexes an embedding matrix for serving.
    pub fn new(embeddings: Matrix) -> Self {
        let norms = (0..embeddings.rows())
            .map(|r| embeddings.row(r).iter().map(|v| v * v).sum::<f32>().sqrt())
            .collect();
        Self {
            embeddings,
            norms,
            probe: None,
        }
    }

    /// Number of stored nodes.
    pub fn len(&self) -> usize {
        self.embeddings.rows()
    }

    /// True when the store holds no embeddings.
    pub fn is_empty(&self) -> bool {
        self.embeddings.rows() == 0
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.embeddings.cols()
    }

    /// The raw embedding matrix (index construction reads it in bulk).
    pub(crate) fn embeddings(&self) -> &Matrix {
        &self.embeddings
    }

    /// Precomputed L2 row norms, one per node.
    pub(crate) fn norms(&self) -> &[f32] {
        &self.norms
    }

    /// The stored embedding of `node`.
    pub fn embedding(&self, node: usize) -> Result<&[f32], ServeError> {
        if node >= self.len() {
            return Err(ServeError::NodeOutOfRange {
                node,
                num_nodes: self.len(),
            });
        }
        Ok(self.embeddings.row(node))
    }

    /// The exact cosine score of `node` against `query` (whose norm the
    /// caller precomputed) — [`cosine_from_parts`] over the stored row, so
    /// a node gets the bitwise-identical score on the brute-force and IVF
    /// paths.
    #[inline]
    pub(crate) fn cosine_score(
        &self,
        kpath: e2gcl_linalg::DispatchPath,
        node: usize,
        query: &[f32],
        qnorm: f32,
    ) -> f32 {
        cosine_from_parts(
            kpath,
            self.embeddings.row(node),
            self.norms[node],
            query,
            qnorm,
        )
    }

    /// The `k` stored nodes most cosine-similar to `query`, best first;
    /// exactly equal scores break ties by ascending node id. Zero-norm rows
    /// (or a zero query) score 0.
    pub fn top_k(&self, query: &[f32], k: usize) -> Result<Vec<Hit>, ServeError> {
        self.top_k_among(0..self.len(), query, k)
    }

    /// [`Self::top_k`] restricted to `candidates` — the exact re-rank
    /// behind the IVF index. Scoring and tie-breaking are shared with the
    /// brute-force path, so on equal candidate sets the two orderings are
    /// identical. Out-of-range candidate ids are a typed error; duplicate
    /// candidates are the caller's bug (the node would be reported twice).
    pub fn top_k_among<I>(
        &self,
        candidates: I,
        query: &[f32],
        k: usize,
    ) -> Result<Vec<Hit>, ServeError>
    where
        I: IntoIterator<Item = usize>,
    {
        if query.len() != self.dim() {
            return Err(ServeError::DimensionMismatch {
                expected: self.dim(),
                actual: query.len(),
            });
        }
        if k == 0 {
            return Ok(Vec::new());
        }
        let qnorm = query.iter().map(|v| v * v).sum::<f32>().sqrt();
        let kpath = e2gcl_linalg::dispatch::current_path();
        let mut top = TopKCollector::new(k);
        for node in candidates {
            if node >= self.len() {
                return Err(ServeError::NodeOutOfRange {
                    node,
                    num_nodes: self.len(),
                });
            }
            top.offer(node, self.cosine_score(kpath, node, query, qnorm));
        }
        Ok(top.into_hits())
    }

    /// FNV-1a 64 over the embedding matrix's shape and IEEE-754 bit
    /// patterns. An [`crate::index::IvfIndex`] records this at build time
    /// and refuses to serve a store it was not built over.
    pub fn checksum(&self) -> u64 {
        let mut h = e2gcl_linalg::hash::Fnv1a64::new();
        h.write_u64(self.embeddings.rows() as u64);
        h.write_u64(self.embeddings.cols() as u64);
        for &v in self.embeddings.as_slice() {
            h.write_f32(v);
        }
        h.finish()
    }

    /// [`Self::top_k`] for a batch of queries, fanned out over the worker
    /// pool. Per-query errors stay per-query.
    pub fn batch_top_k(&self, queries: &[Vec<f32>], k: usize) -> Vec<Result<Vec<Hit>, ServeError>> {
        queries.par_iter().map(|q| self.top_k(q, k)).collect()
    }

    /// Fits a linear probe on `(embeddings[train], labels[train])` and
    /// retains it (plus the store's standardisation stats) for
    /// [`Self::classify`].
    pub fn fit_probe(
        &mut self,
        labels: &[usize],
        train: &[usize],
        num_classes: usize,
        config: &ProbeConfig,
        rng: &mut SeedRng,
    ) {
        let probe = LinearProbe::fit(&self.embeddings, labels, train, num_classes, config, rng);
        let (means, stds) = standard_stats(&self.embeddings);
        self.probe = Some(ProbeState { probe, means, stds });
    }

    /// Classifies a query embedding with the fitted probe.
    pub fn classify(&self, query: &[f32]) -> Result<usize, ServeError> {
        if query.len() != self.dim() {
            return Err(ServeError::DimensionMismatch {
                expected: self.dim(),
                actual: query.len(),
            });
        }
        let state = self.probe.as_ref().ok_or(ServeError::NoProbe)?;
        let m = Matrix::from_vec(1, query.len(), query.to_vec());
        let preds = state
            .probe
            .predict_with_stats(&m, &state.means, &state.stds);
        Ok(preds[0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> EmbeddingStore {
        // Four unit-ish vectors: 0 and 1 aligned, 2 orthogonal, 3 opposite.
        EmbeddingStore::new(Matrix::from_rows(&[
            &[1.0, 0.0],
            &[2.0, 0.0],
            &[0.0, 1.0],
            &[-1.0, 0.0],
        ]))
    }

    #[test]
    fn top_k_orders_by_cosine() {
        let s = store();
        let hits = s.top_k(&[1.0, 0.0], 3).unwrap();
        assert_eq!(hits.len(), 3);
        // Nodes 0 and 1 both score 1.0; tie broken by node id.
        assert_eq!((hits[0].0, hits[1].0, hits[2].0), (0, 1, 2));
        assert!((hits[0].1 - 1.0).abs() < 1e-6);
        assert!((hits[2].1 - 0.0).abs() < 1e-6);
    }

    #[test]
    fn k_larger_than_store_returns_all() {
        let s = store();
        assert_eq!(s.top_k(&[1.0, 0.0], 100).unwrap().len(), 4);
    }

    #[test]
    fn k_zero_returns_empty() {
        let s = store();
        assert!(s.top_k(&[1.0, 0.0], 0).unwrap().is_empty());
        // The dimension check still runs before the early return.
        assert!(s.top_k(&[1.0], 0).is_err());
    }

    #[test]
    fn dimension_mismatch_is_typed() {
        let s = store();
        assert!(matches!(
            s.top_k(&[1.0], 2),
            Err(ServeError::DimensionMismatch {
                expected: 2,
                actual: 1
            })
        ));
        assert!(matches!(
            s.embedding(99),
            Err(ServeError::NodeOutOfRange { .. })
        ));
    }

    #[test]
    fn zero_query_scores_zero_everywhere() {
        let s = store();
        let hits = s.top_k(&[0.0, 0.0], 4).unwrap();
        assert!(hits.iter().all(|&(_, score)| score == 0.0));
    }

    /// Regression: deliberately duplicated rows must rank by ascending node
    /// id — everywhere in the result, including across the k-th-place
    /// boundary — and identically through the restricted-candidate path.
    #[test]
    fn duplicated_rows_tie_break_by_ascending_node_id() {
        // Rows 0/2/5 are byte-identical, rows 1/4 are byte-identical
        // doubles of them (same cosine), row 3 is orthogonal.
        let s = EmbeddingStore::new(Matrix::from_rows(&[
            &[3.0, 4.0],
            &[6.0, 8.0],
            &[3.0, 4.0],
            &[-4.0, 3.0],
            &[6.0, 8.0],
            &[3.0, 4.0],
        ]));
        let q = [3.0, 4.0];
        let hits = s.top_k(&q, 6).unwrap();
        let order: Vec<usize> = hits.iter().map(|h| h.0).collect();
        assert_eq!(order, vec![0, 1, 2, 4, 5, 3]);
        // The five tied nodes all carry the exact same score bits.
        let s0 = hits[0].1;
        assert!(hits[..5].iter().all(|h| h.1.to_bits() == s0.to_bits()));
        // Truncating at k inside the tie keeps the lowest node ids.
        let top3: Vec<usize> = s.top_k(&q, 3).unwrap().iter().map(|h| h.0).collect();
        assert_eq!(top3, vec![0, 1, 2]);
        // The candidate-restricted path agrees with brute force.
        let among = s.top_k_among(0..6, &q, 3).unwrap();
        assert_eq!(among, s.top_k(&q, 3).unwrap());
        // A reversed candidate order must not change the ranking.
        let rev = s.top_k_among((0..6).rev(), &q, 3).unwrap();
        assert_eq!(rev, s.top_k(&q, 3).unwrap());
    }

    /// Regression: a score that lands on `-0.0` must tie with `+0.0` (they
    /// are numerically equal) instead of sorting below it by sign bit.
    /// Node 0's row norm overflows `f32` to `+inf`, so its (negative)
    /// finite dot divides to `-0.0`; node 1 is a zero row scoring `+0.0`.
    #[test]
    fn signed_zero_scores_tie_break_by_node_id() {
        let s = EmbeddingStore::new(Matrix::from_rows(&[
            &[3.0e19, 0.0], // norm inf → dot -3e19 / inf = -0.0
            &[0.0, 0.0],    // zero denom → +0.0
            &[1.0, 0.0],    // dot -1.0 → score -1.0
        ]));
        let q = [-1.0, 0.0];
        let hits = s.top_k(&q, 3).unwrap();
        assert!(hits[0].1 == 0.0 && hits[1].1 == 0.0, "{hits:?}");
        assert_eq!(hits[0].1.to_bits(), 0, "score must canonicalise to +0.0");
        let order: Vec<usize> = hits.iter().map(|h| h.0).collect();
        assert_eq!(order, vec![0, 1, 2], "signed zero broke the node-id tie");
    }

    #[test]
    fn top_k_among_rejects_out_of_range_candidates() {
        let s = store();
        assert!(matches!(
            s.top_k_among([0usize, 9], &[1.0, 0.0], 2),
            Err(ServeError::NodeOutOfRange { node: 9, .. })
        ));
    }

    #[test]
    fn checksum_tracks_content() {
        let a = EmbeddingStore::new(Matrix::from_rows(&[&[1.0, 2.0]]));
        let b = EmbeddingStore::new(Matrix::from_rows(&[&[1.0, 2.0]]));
        let c = EmbeddingStore::new(Matrix::from_rows(&[&[1.0, 2.5]]));
        assert_eq!(a.checksum(), b.checksum());
        assert_ne!(a.checksum(), c.checksum());
    }

    #[test]
    fn batch_matches_singles() {
        let s = store();
        let queries = vec![vec![1.0, 0.0], vec![0.0, 1.0], vec![0.5, 0.5]];
        let batch = s.batch_top_k(&queries, 2);
        for (q, b) in queries.iter().zip(batch) {
            assert_eq!(b.unwrap(), s.top_k(q, 2).unwrap());
        }
    }

    #[test]
    fn classify_requires_probe_then_matches_full_predict() {
        let mut rng = SeedRng::new(5);
        let n = 40;
        let mut m = Matrix::zeros(n, 3);
        let mut labels = vec![0usize; n];
        for (v, label) in labels.iter_mut().enumerate() {
            let c = v % 2;
            *label = c;
            for (i, x) in m.row_mut(v).iter_mut().enumerate() {
                *x = if i == c { 2.0 } else { -2.0 };
                *x += 0.1 * rng.normal();
            }
        }
        let mut s = EmbeddingStore::new(m);
        assert!(matches!(s.classify(&[0.0; 3]), Err(ServeError::NoProbe)));
        let train: Vec<usize> = (0..n).collect();
        s.fit_probe(&labels, &train, 2, &ProbeConfig::default(), &mut rng);
        assert!(s.probe.is_some());
        let mut correct = 0;
        for (v, &label) in labels.iter().enumerate() {
            let row = s.embedding(v).unwrap().to_vec();
            if s.classify(&row).unwrap() == label {
                correct += 1;
            }
        }
        assert!(correct as f32 / n as f32 > 0.9);
    }
}
