//! Deterministic, forkable RNG used by every crate in the workspace.
//!
//! All experiments in the paper report mean ± std over seeded repetitions;
//! to make each run bit-reproducible we route every source of randomness
//! through [`SeedRng`], a thin wrapper over ChaCha8 that supports cheap
//! *forking*: deriving an independent stream for a sub-component from a
//! parent seed plus a label, so adding randomness to one component never
//! perturbs another.

use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A seedable, forkable RNG (ChaCha8).
#[derive(Clone, Debug)]
pub struct SeedRng {
    inner: ChaCha8Rng,
}

/// The exact, serialisable stream position of a [`SeedRng`].
///
/// Captured by [`SeedRng::state`] and restored by [`SeedRng::from_state`];
/// the restored generator continues the keystream bit-for-bit, which is what
/// durable training checkpoints rely on for bitwise-identical resumption.
/// Persists through the fixed binary layout of [`RngState::to_bytes`], not
/// serde — checkpoint files are checksummed binary, not JSON.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RngState {
    /// ChaCha key words (derived from the original seed).
    pub key: [u32; 8],
    /// Block counter the next refill will use.
    pub counter: u64,
    /// Next unread word within the current block (16 ⇒ exhausted).
    pub idx: u32,
}

impl RngState {
    /// Serialises the state to a fixed 44-byte little-endian layout
    /// (8×4 key + 8 counter + 4 idx) for inclusion in binary checkpoints.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(44);
        for w in self.key {
            out.extend_from_slice(&w.to_le_bytes());
        }
        out.extend_from_slice(&self.counter.to_le_bytes());
        out.extend_from_slice(&self.idx.to_le_bytes());
        out
    }

    /// Inverse of [`RngState::to_bytes`]; `None` on a length mismatch.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        if bytes.len() != 44 {
            return None;
        }
        let word = |at: usize| {
            u32::from_le_bytes([bytes[at], bytes[at + 1], bytes[at + 2], bytes[at + 3]])
        };
        let mut key = [0u32; 8];
        for (i, k) in key.iter_mut().enumerate() {
            *k = word(i * 4);
        }
        let mut counter = [0u8; 8];
        counter.copy_from_slice(&bytes[32..40]);
        Some(Self {
            key,
            counter: u64::from_le_bytes(counter),
            idx: word(40),
        })
    }
}

impl SeedRng {
    /// Creates an RNG from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        Self {
            inner: ChaCha8Rng::seed_from_u64(seed),
        }
    }

    /// Exports the exact stream position (see [`RngState`]).
    pub fn state(&self) -> RngState {
        let (key, counter, idx) = self.inner.state();
        RngState {
            key,
            counter,
            idx: idx as u32,
        }
    }

    /// Reconstructs an RNG at an exported stream position.
    pub fn from_state(state: &RngState) -> Self {
        Self {
            inner: ChaCha8Rng::from_state(state.key, state.counter, state.idx as usize),
        }
    }

    /// Derives an independent RNG for a named sub-component.
    ///
    /// The child stream depends only on the parent seed *position* and the
    /// label hash, so two forks with different labels never collide.
    pub fn fork(&mut self, label: &str) -> SeedRng {
        let h = crate::hash::fnv1a64(label.as_bytes());
        SeedRng::new(self.inner.gen::<u64>() ^ h)
    }

    /// Uniform `f32` in `[0, 1)`.
    #[inline]
    pub fn uniform(&mut self) -> f32 {
        self.inner.gen::<f32>()
    }

    /// Uniform `f64` in `[0, 1)` — for weighted sampling over populations
    /// large enough that `f32`'s 24-bit mantissa would quantise the draw.
    #[inline]
    pub fn uniform_f64(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// Uniform `f32` in `[lo, hi)`.
    #[inline]
    pub fn uniform_range(&mut self, lo: f32, hi: f32) -> f32 {
        lo + (hi - lo) * self.uniform()
    }

    /// Standard normal sample (Box–Muller).
    pub fn normal(&mut self) -> f32 {
        let u1 = self.uniform().max(1e-12);
        let u2 = self.uniform();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
    }

    /// Bernoulli draw with success probability `p` (clamped to `[0,1]`).
    #[inline]
    pub fn bernoulli(&mut self, p: f32) -> bool {
        self.uniform() < p.clamp(0.0, 1.0)
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    #[inline]
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0)");
        self.inner.gen_range(0..n)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.below(i + 1);
            slice.swap(i, j);
        }
    }

    /// Samples `k` distinct indices from `[0, n)` (k ≤ n), in random order.
    pub fn sample_without_replacement(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "cannot sample {k} from {n} without replacement");
        if k * 3 >= n {
            // Dense regime: partial Fisher-Yates.
            let mut idx: Vec<usize> = (0..n).collect();
            for i in 0..k {
                let j = i + self.below(n - i);
                idx.swap(i, j);
            }
            idx.truncate(k);
            idx
        } else {
            // Sparse regime: rejection sampling with a seen-set.
            let mut seen = std::collections::HashSet::with_capacity(k * 2);
            let mut out = Vec::with_capacity(k);
            while out.len() < k {
                let c = self.below(n);
                if seen.insert(c) {
                    out.push(c);
                }
            }
            out
        }
    }

    /// Samples one index from a non-negative weight vector.
    ///
    /// Falls back to uniform if all weights are zero/non-finite. The
    /// composition of [`SeedRng::weight_total`] and
    /// [`SeedRng::weighted_index_with_total`]: callers whose weights stay
    /// fixed across draws sum them once and call the latter directly, with
    /// the same bits.
    pub fn weighted_index(&mut self, weights: &[f32]) -> usize {
        self.weighted_index_with_total(weights, Self::weight_total(weights))
    }

    /// The total [`SeedRng::weighted_index`] draws against: every weight
    /// floored at zero, summed in `f64` in slice order.
    pub fn weight_total(weights: &[f32]) -> f64 {
        weights.iter().map(|&w| f64::from(w.max(0.0))).sum()
    }

    /// [`SeedRng::weighted_index`] given `total = weight_total(weights)`:
    /// one scan and one draw, no summing pass.
    pub fn weighted_index_with_total(&mut self, weights: &[f32], total: f64) -> usize {
        if total <= 0.0 || !total.is_finite() {
            return self.below(weights.len());
        }
        let mut t = self.inner.gen::<f64>() * total;
        for (i, &w) in weights.iter().enumerate() {
            t -= f64::from(w.max(0.0));
            if t <= 0.0 {
                return i;
            }
        }
        weights.len() - 1
    }

    /// Raw u64 (for hashing / sub-seeding).
    pub fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SeedRng::new(7);
        let mut b = SeedRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn state_round_trip_resumes_bitwise() {
        let mut a = SeedRng::new(41);
        // Burn an odd number of draws so the underlying block is mid-read.
        for _ in 0..13 {
            a.uniform();
        }
        let snap = a.state();
        let mut b = SeedRng::from_state(&snap);
        for _ in 0..200 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        // And the byte round trip is lossless.
        let bytes = snap.to_bytes();
        assert_eq!(bytes.len(), 44);
        assert_eq!(RngState::from_bytes(&bytes), Some(snap));
        assert_eq!(RngState::from_bytes(&bytes[..43]), None);
    }

    #[test]
    fn restored_fork_matches_original_fork() {
        // Forking consumes stream words, so a restored RNG must fork to the
        // same children as the one it was captured from.
        let mut a = SeedRng::new(17);
        a.below(100);
        let mut b = SeedRng::from_state(&a.state());
        let mut fa = a.fork("train");
        let mut fb = b.fork("train");
        for _ in 0..50 {
            assert_eq!(fa.next_u64(), fb.next_u64());
        }
    }

    #[test]
    fn forks_are_label_dependent() {
        let mut a = SeedRng::new(7);
        let mut b = SeedRng::new(7);
        let mut fa = a.fork("x");
        let mut fb = b.fork("y");
        // Different labels must diverge (overwhelmingly likely).
        assert_ne!(fa.next_u64(), fb.next_u64());
    }

    #[test]
    fn uniform_in_unit_interval() {
        let mut r = SeedRng::new(1);
        for _ in 0..1000 {
            let u = r.uniform();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn normal_mean_roughly_zero() {
        let mut r = SeedRng::new(2);
        let n = 20_000;
        let mean: f32 = (0..n).map(|_| r.normal()).sum::<f32>() / n as f32;
        assert!(mean.abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn sample_without_replacement_distinct() {
        let mut r = SeedRng::new(3);
        for &(n, k) in &[(10usize, 10usize), (100, 5), (50, 40)] {
            let s = r.sample_without_replacement(n, k);
            assert_eq!(s.len(), k);
            let set: std::collections::HashSet<_> = s.iter().collect();
            assert_eq!(set.len(), k);
            assert!(s.iter().all(|&i| i < n));
        }
    }

    #[test]
    fn weighted_index_respects_weights() {
        let mut r = SeedRng::new(4);
        let w = [0.0, 0.0, 1.0, 0.0];
        for _ in 0..50 {
            assert_eq!(r.weighted_index(&w), 2);
        }
        // Degenerate all-zero weights: still returns a valid index.
        let z = [0.0, 0.0];
        let i = r.weighted_index(&z);
        assert!(i < 2);
    }

    #[test]
    fn bernoulli_extremes() {
        let mut r = SeedRng::new(5);
        assert!(!r.bernoulli(0.0));
        assert!(r.bernoulli(1.0));
        assert!(r.bernoulli(2.0)); // clamped
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = SeedRng::new(6);
        let mut v: Vec<usize> = (0..20).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..20).collect::<Vec<_>>());
    }
}
