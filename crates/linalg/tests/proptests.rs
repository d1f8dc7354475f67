//! Property-based tests for the dense linear-algebra substrate.

use e2gcl_linalg::{activations, dispatch, ops, stats, DispatchPath, Matrix, SeedRng};
use proptest::prelude::*;

/// Strategy: a small matrix with bounded entries.
fn matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-10.0f32..10.0, rows * cols)
        .prop_map(move |data| Matrix::from_vec(rows, cols, data))
}

/// Awkward dimensions for the blocked kernels: 1, primes, exact tile
/// multiples, and just-past-tile sizes (micro-tiles are 4x8 for the
/// axpy-style kernels, 2x4 with 4 reduction lanes for the dot-style ones).
fn awkward_dim() -> impl Strategy<Value = usize> {
    const DIMS: [usize; 14] = [1, 2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 31, 33];
    (0usize..DIMS.len()).prop_map(|i| DIMS[i])
}

/// Deterministic pseudo-random matrix for a (shape, salt) pair.
fn dense(rows: usize, cols: usize, salt: u64) -> Matrix {
    let mut rng = SeedRng::new(0x9e37 ^ salt);
    Matrix::from_vec(rows, cols, (0..rows * cols).map(|_| rng.normal()).collect())
}

/// Naive serial reference: one ascending-k accumulator per element.
fn ref_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for j in 0..b.cols() {
            let mut acc = 0.0f32;
            for k in 0..a.cols() {
                acc += a.get(i, k) * b.get(k, j);
            }
            out.set(i, j, acc);
        }
    }
    out
}

/// Naive serial reference for `a^T * b`: ascending input rows.
fn ref_transpose_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.cols(), b.cols());
    for c in 0..a.cols() {
        for j in 0..b.cols() {
            let mut acc = 0.0f32;
            for r in 0..a.rows() {
                acc += a.get(r, c) * b.get(r, j);
            }
            out.set(c, j, acc);
        }
    }
    out
}

proptest! {
    /// (AB)C == A(BC) up to float tolerance.
    #[test]
    fn matmul_associative(a in matrix(3, 4), b in matrix(4, 2), c in matrix(2, 5)) {
        let left = a.matmul(&b).matmul(&c);
        let right = a.matmul(&b.matmul(&c));
        for (l, r) in left.as_slice().iter().zip(right.as_slice()) {
            prop_assert!((l - r).abs() < 1e-2 * (1.0 + l.abs().max(r.abs())));
        }
    }

    /// Transpose is an involution and (AB)^T = B^T A^T.
    #[test]
    fn transpose_laws(a in matrix(3, 4), b in matrix(4, 2)) {
        prop_assert_eq!(a.transpose().transpose(), a.clone());
        let ab_t = a.matmul(&b).transpose();
        let bt_at = b.transpose().matmul(&a.transpose());
        for (l, r) in ab_t.as_slice().iter().zip(bt_at.as_slice()) {
            prop_assert!((l - r).abs() < 1e-3 * (1.0 + l.abs()));
        }
    }

    /// The fused kernels agree with their explicit counterparts.
    #[test]
    fn fused_matmuls_agree(a in matrix(4, 3), b in matrix(4, 2), c in matrix(5, 3)) {
        let fused = a.transpose_matmul(&b);
        let explicit = a.transpose().matmul(&b);
        for (l, r) in fused.as_slice().iter().zip(explicit.as_slice()) {
            prop_assert!((l - r).abs() < 1e-3 * (1.0 + l.abs()));
        }
        let fused = a.matmul_transpose(&c);
        let explicit = a.matmul(&c.transpose());
        for (l, r) in fused.as_slice().iter().zip(explicit.as_slice()) {
            prop_assert!((l - r).abs() < 1e-3 * (1.0 + l.abs()));
        }
    }

    /// L2-normalised rows have unit norm (or stay zero).
    #[test]
    fn l2_normalise_invariant(m in matrix(4, 6)) {
        let mut n = m.clone();
        n.l2_normalize_rows();
        for r in 0..n.rows() {
            let norm = ops::norm(n.row(r));
            let orig = ops::norm(m.row(r));
            if orig > 1e-6 {
                prop_assert!((norm - 1.0).abs() < 1e-4);
            } else {
                prop_assert!(norm <= orig + 1e-6);
            }
        }
    }

    /// Cauchy–Schwarz: |a·b| <= |a||b|; cosine in [-1, 1].
    #[test]
    fn cauchy_schwarz(a in prop::collection::vec(-5.0f32..5.0, 8),
                      b in prop::collection::vec(-5.0f32..5.0, 8)) {
        let dot = ops::dot(&a, &b).abs();
        let bound = ops::norm(&a) * ops::norm(&b);
        prop_assert!(dot <= bound * (1.0 + 1e-4) + 1e-5);
        let c = ops::cosine(&a, &b);
        prop_assert!((-1.0 - 1e-4..=1.0 + 1e-4).contains(&c));
    }

    /// Triangle inequality for Euclidean distance.
    #[test]
    fn triangle_inequality(a in prop::collection::vec(-5.0f32..5.0, 6),
                           b in prop::collection::vec(-5.0f32..5.0, 6),
                           c in prop::collection::vec(-5.0f32..5.0, 6)) {
        let ab = ops::dist(&a, &b);
        let bc = ops::dist(&b, &c);
        let ac = ops::dist(&a, &c);
        prop_assert!(ac <= ab + bc + 1e-4);
    }

    /// Softmax rows are probability distributions regardless of input.
    #[test]
    fn softmax_is_distribution(m in matrix(3, 5)) {
        let mut s = m.clone();
        activations::softmax_rows_inplace(&mut s);
        for r in 0..s.rows() {
            let sum: f32 = s.row(r).iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
            prop_assert!(s.row(r).iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    /// Sample std is non-negative and zero for constant data.
    #[test]
    fn std_properties(xs in prop::collection::vec(-100.0f32..100.0, 2..20), c in -10.0f32..10.0) {
        prop_assert!(stats::std_dev(&xs) >= 0.0);
        let constant = vec![c; 5];
        prop_assert!(stats::std_dev(&constant).abs() < 1e-4);
    }

    /// Seeded sampling without replacement always yields distinct in-range
    /// indices, for any (n, k <= n).
    #[test]
    fn sampling_distinct(seed in any::<u64>(), n in 1usize..200, frac in 0.0f64..1.0) {
        let k = ((n as f64) * frac) as usize;
        let mut rng = SeedRng::new(seed);
        let s = rng.sample_without_replacement(n, k);
        prop_assert_eq!(s.len(), k);
        let set: std::collections::HashSet<_> = s.iter().collect();
        prop_assert_eq!(set.len(), k);
        prop_assert!(s.iter().all(|&i| i < n));
    }

    /// The blocked scalar `matmul` is bit-identical to the naive serial
    /// reference at awkward shapes: each element keeps a single accumulator
    /// reduced over k in ascending order, in the tile path and both tails.
    /// (Pinned to the scalar dispatch path: the AVX2 path has its own fused
    /// contract, property-tested in `simd_contract.rs`.)
    #[test]
    fn blocked_matmul_bitwise_equals_naive(m in awkward_dim(), k in awkward_dim(),
                                           n in awkward_dim(), salt in any::<u64>()) {
        let a = dense(m, k, salt);
        let b = dense(k, n, salt ^ 1);
        let got = dispatch::with_path(DispatchPath::Scalar, || a.matmul(&b));
        let expect = ref_matmul(&a, &b);
        for (x, y) in got.as_slice().iter().zip(expect.as_slice()) {
            prop_assert_eq!(x.to_bits(), y.to_bits(), "{}x{} * {}x{}", m, k, k, n);
        }
    }

    /// Same bitwise contract for the blocked scalar `transpose_matmul`.
    #[test]
    fn blocked_transpose_matmul_bitwise_equals_naive(r in awkward_dim(), c in awkward_dim(),
                                                     n in awkward_dim(), salt in any::<u64>()) {
        let a = dense(r, c, salt);
        let b = dense(r, n, salt ^ 2);
        let got = dispatch::with_path(DispatchPath::Scalar, || a.transpose_matmul(&b));
        let expect = ref_transpose_matmul(&a, &b);
        for (x, y) in got.as_slice().iter().zip(expect.as_slice()) {
            prop_assert_eq!(x.to_bits(), y.to_bits(), "{}x{} ^T * {}x{}", r, c, r, n);
        }
    }

    /// The blocked scalar `matmul_transpose` uses the multi-lane reduction:
    /// every element must be bit-identical to `ops::lane_dot` of the operand
    /// rows (its documented contract) and close to the plain serial dot.
    #[test]
    fn blocked_matmul_transpose_matches_lane_dot(m in awkward_dim(), n in awkward_dim(),
                                                 k in awkward_dim(), salt in any::<u64>()) {
        let a = dense(m, k, salt);
        let b = dense(n, k, salt ^ 3);
        let got = dispatch::with_path(DispatchPath::Scalar, || a.matmul_transpose(&b));
        for i in 0..m {
            for j in 0..n {
                let lane = ops::lane_dot(a.row(i), b.row(j));
                prop_assert_eq!(got.get(i, j).to_bits(), lane.to_bits(),
                                "({},{}) of {}x{} * ({}x{})^T", i, j, m, k, n, k);
                let serial = ops::dot(a.row(i), b.row(j));
                let diff = (got.get(i, j) - serial).abs();
                prop_assert!(diff <= 1e-4 * (1.0 + serial.abs().max(got.get(i, j).abs())));
            }
        }
    }

    /// weighted_index never selects a zero-weight item when positive weights
    /// exist.
    #[test]
    fn weighted_index_avoids_zeros(seed in any::<u64>(), pos in 1usize..6) {
        let mut w = vec![0.0f32; 8];
        for wi in w.iter_mut().take(pos) {
            *wi = 1.0;
        }
        let mut rng = SeedRng::new(seed);
        for _ in 0..32 {
            let i = rng.weighted_index(&w);
            prop_assert!(i < pos, "picked zero-weight index {i}");
        }
    }
}

/// Sizes around the transpose family's 8-wide tiles, plus the 4 KB row
/// length (1024 floats) where a column walk maps to one L1 set.
const TRANSPOSE_SIZES: [usize; 8] = [0, 1, 7, 8, 9, 1023, 1024, 1025];

/// Square sizes and rectangular shapes the transpose tests cover.
fn transpose_shapes() -> Vec<(usize, usize)> {
    let mut shapes: Vec<(usize, usize)> = TRANSPOSE_SIZES.iter().map(|&n| (n, n)).collect();
    shapes.extend([(1024, 7), (9, 1025), (1, 1023), (17, 8), (0, 5), (5, 0)]);
    shapes
}

#[test]
fn transpose_matches_naive_loop() {
    for (rows, cols) in transpose_shapes() {
        let m = dense(rows, cols, (rows * 7 + cols) as u64);
        let t = m.transpose();
        assert_eq!(t.shape(), (cols, rows));
        let mut reused = Matrix::filled(3, 2, f32::NAN);
        m.transpose_into(&mut reused);
        for r in 0..rows {
            for c in 0..cols {
                assert_eq!(
                    t.get(c, r).to_bits(),
                    m.get(r, c).to_bits(),
                    "{rows}x{cols}"
                );
                assert_eq!(reused.get(c, r).to_bits(), m.get(r, c).to_bits());
            }
        }
    }
}

#[test]
fn add_transpose_assign_matches_naive_loop() {
    for (rows, cols) in transpose_shapes() {
        let base = dense(rows, cols, rows as u64);
        let other = dense(cols, rows, cols as u64 ^ 0x55);
        let mut got = base.clone();
        got.add_transpose_assign(&other);
        for i in 0..rows {
            for j in 0..cols {
                let want = base.get(i, j) + other.get(j, i);
                assert_eq!(got.get(i, j).to_bits(), want.to_bits(), "{rows}x{cols}");
            }
        }
    }
}

#[test]
fn symmetrize_additive_matches_naive_loop() {
    for n in TRANSPOSE_SIZES {
        let base = dense(n, n, n as u64 ^ 0x77);
        let mut got = base.clone();
        got.symmetrize_additive();
        for i in 0..n {
            assert_eq!(got.get(i, i).to_bits(), (base.get(i, i) * 2.0).to_bits());
            for j in (i + 1)..n {
                let want = base.get(i, j) + base.get(j, i);
                assert_eq!(got.get(i, j).to_bits(), want.to_bits(), "n {n} ({i},{j})");
                assert_eq!(got.get(j, i).to_bits(), want.to_bits(), "n {n} ({j},{i})");
            }
        }
    }
}

/// `syrk` computes the upper triangle and mirrors it; the mirror must
/// reproduce the full `matmul_transpose` bitwise on either dispatch path.
#[test]
fn syrk_mirror_matches_matmul_transpose() {
    for path in [DispatchPath::Scalar, dispatch::current_path()] {
        for n in TRANSPOSE_SIZES {
            let a = dense(n, 3, n as u64 ^ 0x99);
            let mut reused = Matrix::filled(n, n, f32::NAN);
            let (gram, full) = dispatch::with_path(path, || {
                a.syrk_into(&mut reused);
                (a.syrk(), a.matmul_transpose(&a))
            });
            assert_eq!(gram.shape(), (n, n));
            for ((x, y), z) in gram
                .as_slice()
                .iter()
                .zip(full.as_slice())
                .zip(reused.as_slice())
            {
                assert_eq!(x.to_bits(), y.to_bits(), "n {n} path {path}");
                assert_eq!(z.to_bits(), y.to_bits(), "n {n} path {path}");
            }
        }
    }
}
