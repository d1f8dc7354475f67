//! Deterministic, forkable RNG used by every crate in the workspace.
//!
//! All experiments in the paper report mean ± std over seeded repetitions;
//! to make each run bit-reproducible we route every source of randomness
//! through [`SeedRng`], a ChaCha8 keystream generator that supports cheap
//! *forking*: deriving an independent stream for a sub-component from a
//! parent seed plus a label, so adding randomness to one component never
//! perturbs another.
//!
//! The keystream is this workspace's own and is fixed word for word:
//! * a 64-bit seed expands into the 256-bit key with SplitMix64, each
//!   output split into two little-endian key words;
//! * each block is the 8-round RFC 8439 quarter-round network over a 64-bit
//!   block counter and a zero nonce, read in the natural state-word order;
//! * `next_u64` is two words, low first; `uniform` takes the top 24 bits of
//!   a word, `uniform_f64` the top 53 of a `next_u64`, and `below` is
//!   Lemire's widening multiply with rejection.
//!
//! It does not bit-match upstream `rand_chacha`. Every golden fingerprint,
//! checkpoint and committed fixture depends on these words, and
//! `tests::keystream_words_are_pinned` holds them.

/// The ChaCha constant `"expand 32-byte k"`.
const SIGMA: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

#[inline(always)]
fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

/// A seedable, forkable RNG (ChaCha8).
#[derive(Clone, Debug)]
pub struct SeedRng {
    key: [u32; 8],
    /// Block counter the next refill will use.
    counter: u64,
    /// The current keystream block.
    buf: [u32; 16],
    /// Next unread word in `buf`; 16 means the block is exhausted.
    idx: usize,
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
        // SplitMix64 expands the seed into the key, one output per key-word
        // pair, low word first.
        let mut key = [0u32; 8];
        let mut state = seed;
        for pair in key.chunks_exact_mut(2) {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            pair[0] = z as u32;
            pair[1] = (z >> 32) as u32;
        }
        Self {
            key,
            counter: 0,
            buf: [0; 16],
            idx: 16,
        }
    }

    /// Exports the exact stream position (see [`RngState`]).
    pub fn state(&self) -> RngState {
        RngState {
            key: self.key,
            counter: self.counter,
            idx: self.idx as u32,
        }
    }

    /// Reconstructs an RNG at an exported stream position.
    ///
    /// The buffered block is not part of the state: when `idx < 16` the
    /// block at `counter − 1` is recomputed from the key, which is what
    /// `refill` produced before it advanced the counter.
    pub fn from_state(state: &RngState) -> Self {
        let mut rng = Self {
            key: state.key,
            counter: state.counter,
            buf: [0; 16],
            idx: 16,
        };
        let idx = (state.idx as usize).min(16);
        if idx < 16 {
            rng.counter = state.counter.wrapping_sub(1);
            rng.refill();
            rng.idx = idx;
        }
        rng
    }

    /// Computes the block at `counter` into `buf` and advances the counter.
    fn refill(&mut self) {
        let mut state = [0u32; 16];
        state[..4].copy_from_slice(&SIGMA);
        state[4..12].copy_from_slice(&self.key);
        state[12] = self.counter as u32;
        state[13] = (self.counter >> 32) as u32;
        // state[14], state[15]: nonce, fixed to zero (single stream).
        let input = state;
        for _ in 0..4 {
            // One double round: column round + diagonal round.
            quarter_round(&mut state, 0, 4, 8, 12);
            quarter_round(&mut state, 1, 5, 9, 13);
            quarter_round(&mut state, 2, 6, 10, 14);
            quarter_round(&mut state, 3, 7, 11, 15);
            quarter_round(&mut state, 0, 5, 10, 15);
            quarter_round(&mut state, 1, 6, 11, 12);
            quarter_round(&mut state, 2, 7, 8, 13);
            quarter_round(&mut state, 3, 4, 9, 14);
        }
        for (out, (&s, &i)) in self.buf.iter_mut().zip(state.iter().zip(&input)) {
            *out = s.wrapping_add(i);
        }
        self.counter = self.counter.wrapping_add(1);
        self.idx = 0;
    }

    /// The next keystream word.
    fn next_u32(&mut self) -> u32 {
        if self.idx >= 16 {
            self.refill();
        }
        let w = self.buf[self.idx];
        self.idx += 1;
        w
    }

    /// Derives an independent RNG for a named sub-component.
    ///
    /// The child stream depends only on the parent seed *position* and the
    /// label hash, so two forks with different labels never collide.
    pub fn fork(&mut self, label: &str) -> SeedRng {
        let h = crate::hash::fnv1a64(label.as_bytes());
        SeedRng::new(self.next_u64() ^ h)
    }

    /// Uniform `f32` in `[0, 1)`.
    #[inline]
    pub fn uniform(&mut self) -> f32 {
        (self.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }

    /// Uniform `f64` in `[0, 1)` — for weighted sampling over populations
    /// large enough that `f32`'s 24-bit mantissa would quantise the draw.
    #[inline]
    pub fn uniform_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
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

    /// Uniform integer in `[0, n)`, unbiased: Lemire's widening multiply,
    /// rejecting the `2^64 mod n` low products that would favour some
    /// residues.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    #[inline]
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0)");
        let span = n as u64;
        let threshold = span.wrapping_neg() % span;
        loop {
            let m = u128::from(self.next_u64()) * u128::from(span);
            if m as u64 >= threshold {
                return (m >> 64) as usize;
            }
        }
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
        let mut t = self.uniform_f64() * total;
        for (i, &w) in weights.iter().enumerate() {
            t -= f64::from(w.max(0.0));
            if t <= 0.0 {
                return i;
            }
        }
        weights.len() - 1
    }

    /// Raw u64 (for hashing / sub-seeding): two keystream words, low first.
    pub fn next_u64(&mut self) -> u64 {
        let lo = u64::from(self.next_u32());
        let hi = u64::from(self.next_u32());
        lo | (hi << 32)
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
        // A clone continues from its original's position, mid-block too.
        for _ in 0..21 {
            a.uniform();
        }
        let mut c = a.clone();
        for _ in 0..50 {
            assert_eq!(a.next_u64(), c.next_u64());
        }
    }

    /// FNV-1a64 of each keystream part, over seeds 0, 1, 42 and `u64::MAX`
    /// in turn: `next_u64` ×100, `uniform` ×37, `uniform_f64` ×21, `below`
    /// ×9 per bound, five words of a `fork("train")`, and the exported state
    /// plus the first word after `from_state`, drawn in that order from one
    /// generator per seed. Every golden, checkpoint and fixture in the
    /// workspace rests on these words, so none of them may move.
    const KEYSTREAM_PINS: [u64; 6] = [
        0x9c8f_85b0_024d_f491,
        0x76c6_fb9b_ac38_661c,
        0x5654_ab2c_1915_cd50,
        0x36aa_b9e1_b9b4_f7d9,
        0x6d17_6819_91d5_e9ed,
        0x5dea_9d03_4b9b_c843,
    ];

    #[test]
    fn keystream_words_are_pinned() {
        let mut parts: [crate::hash::Fnv1a64; 6] = Default::default();
        for seed in [0, 1, 42, u64::MAX] {
            let mut r = SeedRng::new(seed);
            for _ in 0..100 {
                parts[0].write_u64(r.next_u64());
            }
            for _ in 0..37 {
                parts[1].write_f32(r.uniform());
            }
            for _ in 0..21 {
                parts[2].write_u64(r.uniform_f64().to_bits());
            }
            // `usize::MAX / 2 + 2` is 2^63 + 1: about half its draws reject.
            for n in [1, 2, 3, 7, 1000, usize::MAX / 2 + 2, usize::MAX] {
                for _ in 0..9 {
                    parts[3].write_u64(r.below(n) as u64);
                }
            }
            let mut f = r.fork("train");
            for _ in 0..5 {
                parts[4].write_u64(f.next_u64());
            }
            let state = r.state();
            parts[5].write(&state.to_bytes());
            parts[5].write_u64(SeedRng::from_state(&state).next_u64());
        }
        let got = parts.map(|h| h.finish());
        assert_eq!(got, KEYSTREAM_PINS, "got {got:#018x?}");
    }

    #[test]
    fn keystream_bits_are_balanced() {
        // Each of the 64 bit positions is set about half the time.
        let mut r = SeedRng::new(123);
        let n = 32_768u32;
        let mut ones = [0u32; 64];
        for _ in 0..n {
            let w = r.next_u64();
            for (bit, count) in ones.iter_mut().enumerate() {
                *count += ((w >> bit) & 1) as u32;
            }
        }
        for &count in &ones {
            let frac = f64::from(count) / f64::from(n);
            assert!((0.48..0.52).contains(&frac), "bit bias: {frac}");
        }
    }

    #[test]
    fn state_round_trip_resumes_bitwise() {
        // Fresh (never refilled), mid-block, and an exactly exhausted block
        // (`idx == 16`, so the restore must not recompute a block).
        for (burn, idx) in [(0, 16), (13, 13), (16, 16)] {
            let mut a = SeedRng::new(41);
            for _ in 0..burn {
                a.uniform();
            }
            let snap = a.state();
            assert_eq!(snap.idx, idx);
            let mut b = SeedRng::from_state(&snap);
            for _ in 0..200 {
                assert_eq!(a.next_u64(), b.next_u64());
            }
            // And the byte round trip is lossless.
            let bytes = snap.to_bytes();
            assert_eq!(bytes.len(), 44);
            assert_eq!(RngState::from_bytes(&bytes[..43]), None);
            assert_eq!(RngState::from_bytes(&bytes), Some(snap));
        }
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
        // So must different seeds, word for word.
        let mut a = SeedRng::new(1);
        let mut b = SeedRng::new(2);
        assert!((0..64).all(|_| a.next_u64() != b.next_u64()));
    }

    #[test]
    fn uniform_in_unit_interval() {
        let mut r = SeedRng::new(1);
        for _ in 0..1000 {
            let u = r.uniform();
            assert!((0.0..1.0).contains(&u));
            let d = r.uniform_f64();
            assert!((0.0..1.0).contains(&d));
        }
        // `below` stays in range and reaches every residue.
        let mut seen = [false; 7];
        for _ in 0..1000 {
            seen[r.below(7)] = true;
        }
        assert!(seen.iter().all(|&s| s));
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
