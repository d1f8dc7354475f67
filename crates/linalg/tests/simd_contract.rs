//! Bitwise contract tests for the AVX2 dispatch path.
//!
//! The AVX2 kernels' element-level reduction order is *defined* by the safe
//! scalar models in `e2gcl_linalg::simd::model` (8 fused lanes, the
//! documented combine order, ascending fused tail — see the `simd` module
//! docs). These properties pin the intrinsics to those models bitwise at
//! awkward shapes: odd k, k below the lane width, empty rows, and output
//! shapes on both sides of the tall-skinny threshold, so every tile
//! geometry the dispatcher can select is exercised. They also pin the
//! cross-kernel invariants the blocked scalar path already enjoys:
//! dot-style elements equal the lane kernel, axpy-style elements equal a
//! single fused chain, and neither the tile geometry nor the row chunk a
//! work item covers changes any bit.
//!
//! All tests are skipped (trivially pass) on hosts without AVX2+FMA — the
//! dispatcher can never select the AVX2 path there.
#![cfg(target_arch = "x86_64")]

use e2gcl_linalg::dispatch::{self, DispatchPath, ShapeClass};
use e2gcl_linalg::simd::{call, model};
use e2gcl_linalg::{Matrix, SeedRng};
use proptest::prelude::*;

fn avx2() -> bool {
    dispatch::avx2_available()
}

/// Lengths around the 8-lane width and the scalar tail boundary.
fn awkward_len() -> impl Strategy<Value = usize> {
    const LENS: [usize; 15] = [0, 1, 2, 3, 5, 7, 8, 9, 11, 15, 16, 17, 24, 31, 33];
    (0usize..LENS.len()).prop_map(|i| LENS[i])
}

fn awkward_dim() -> impl Strategy<Value = usize> {
    const DIMS: [usize; 12] = [1, 2, 3, 4, 5, 7, 8, 9, 13, 16, 17, 33];
    (0usize..DIMS.len()).prop_map(|i| DIMS[i])
}

/// Output shapes `(rows, cols)` on both sides of the 8× tall-skinny
/// threshold of [`ShapeClass::of_output`]: a pair of awkward dims (either
/// class), a pair stretched to at least 8× taller than wide, or one at
/// least 8× wider than tall.
fn output_shape() -> impl Strategy<Value = (usize, usize)> {
    (awkward_dim(), awkward_dim(), 0usize..3).prop_map(|(a, b, side)| match side {
        0 => (a, b),
        1 => (8 * b + a, b),
        _ => (a, 8 * a + b),
    })
}

const CLASSES: [ShapeClass; 2] = [ShapeClass::TallSkinny, ShapeClass::Square];

fn dense_vec(n: usize, salt: u64) -> Vec<f32> {
    let mut rng = SeedRng::new(0x51d7 ^ salt);
    (0..n).map(|_| rng.normal()).collect()
}

fn dense(rows: usize, cols: usize, salt: u64) -> Matrix {
    Matrix::from_vec(rows, cols, dense_vec(rows * cols, salt))
}

fn on_avx2<R>(f: impl FnOnce() -> R) -> R {
    dispatch::with_path(DispatchPath::Avx2, f)
}

/// Reference for the axpy-style AVX2 kernels: one fused chain per element.
fn ref_fused_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for j in 0..b.cols() {
            let col: Vec<f32> = (0..b.rows()).map(|kk| b.get(kk, j)).collect();
            out.set(i, j, model::fused_chain_dot(a.row(i), &col));
        }
    }
    out
}

/// Reference for the dot-style AVX2 kernels: `lane_dot8` of operand rows.
fn ref_lane_dot_mt(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.rows(), b.rows());
    for i in 0..a.rows() {
        for j in 0..b.rows() {
            out.set(i, j, model::lane_dot8(a.row(i), b.row(j)));
        }
    }
    out
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// `simd::call::mm_rows` over output row chunks of `chunk` rows.
fn mm_chunked(a: &Matrix, b: &Matrix, chunk: usize, class: ShapeClass) -> Vec<f32> {
    let (k, oc) = (a.cols(), b.cols());
    let mut out = vec![f32::NAN; a.rows() * oc];
    for (o, ac) in out
        .chunks_mut(chunk * oc)
        .zip(a.as_slice().chunks(chunk * k))
    {
        call::mm_rows(ac, b.as_slice(), o, k, oc, class);
    }
    out
}

/// `simd::call::tm_rows` (`a^T * b`) over output row chunks.
fn tm_chunked(a: &Matrix, b: &Matrix, chunk: usize, class: ShapeClass) -> Vec<f32> {
    let (sc, oc) = (a.cols(), b.cols());
    let mut out = vec![f32::NAN; sc * oc];
    for (i, o) in out.chunks_mut(chunk * oc).enumerate() {
        call::tm_rows(
            a.as_slice(),
            b.as_slice(),
            o,
            i * chunk,
            sc,
            oc,
            a.rows(),
            class,
        );
    }
    out
}

/// `simd::call::mt_rows` (`a * b^T`) over output row chunks.
fn mt_chunked(a: &Matrix, b: &Matrix, chunk: usize, class: ShapeClass) -> Vec<f32> {
    let (k, on) = (a.cols(), b.rows());
    let mut out = vec![f32::NAN; a.rows() * on];
    for (o, ac) in out
        .chunks_mut(chunk * on)
        .zip(a.as_slice().chunks(chunk * k))
    {
        call::mt_rows(ac, b.as_slice(), o, k, on, class);
    }
    out
}

/// `simd::call::syrk_rows` over output row chunks; only the upper triangle
/// is written, the rest keeps its zero.
fn syrk_chunked(a: &Matrix, chunk: usize) -> Vec<f32> {
    let (n, k) = (a.rows(), a.cols());
    let mut out = vec![0.0; n * n];
    for (i, o) in out.chunks_mut(chunk * n).enumerate() {
        call::syrk_rows(a.as_slice(), o, i * chunk, k, n);
    }
    out
}

proptest! {
    /// `dispatch::lane_dot` on the AVX2 path is bit-identical to the safe
    /// scalar model at every awkward length (odd, below lane width, empty).
    #[test]
    fn avx2_lane_dot_matches_model(n in awkward_len(), salt in any::<u64>()) {
        if !avx2() { return Ok(()); }
        let a = dense_vec(n, salt);
        let b = dense_vec(n, salt ^ 1);
        let got = DispatchPath::Avx2.lane_dot(&a, &b);
        prop_assert_eq!(got.to_bits(), model::lane_dot8(&a, &b).to_bits(), "len {}", n);
    }

    /// AVX2 `lane_dot4` produces, per stored row, exactly the bits of the
    /// single-row lane kernel (the serve re-rank path relies on this).
    #[test]
    fn avx2_lane_dot4_matches_lane_dot(n in awkward_len(), salt in any::<u64>()) {
        if !avx2() { return Ok(()); }
        let a = dense_vec(n, salt);
        let rows: Vec<Vec<f32>> = (0..4).map(|j| dense_vec(n, salt ^ (j + 2))).collect();
        let got = DispatchPath::Avx2.lane_dot4(&a, &rows[0], &rows[1], &rows[2], &rows[3]);
        for (j, row) in rows.iter().enumerate() {
            prop_assert_eq!(got[j].to_bits(), model::lane_dot8(&a, row).to_bits(),
                            "row {} len {}", j, n);
        }
    }

    /// Every element of the AVX2 `matmul_transpose` is a `lane_dot8` of the
    /// operand rows, at output shapes on both sides of the tall-skinny
    /// threshold — so through both dot-tile geometries.
    #[test]
    fn avx2_matmul_transpose_matches_model(shape in output_shape(), k in awkward_len(),
                                           salt in any::<u64>()) {
        if !avx2() { return Ok(()); }
        let (m, n) = shape;
        let a = dense(m, k, salt);
        let b = dense(n, k, salt ^ 3);
        let got = on_avx2(|| a.matmul_transpose(&b));
        let expect = ref_lane_dot_mt(&a, &b);
        prop_assert_eq!(bits(got.as_slice()), bits(expect.as_slice()),
                        "{}x{} * ({}x{})^T, {:?}", m, k, n, k, ShapeClass::of_output(m, n));
    }

    /// AVX2 `syrk` equals AVX2 `matmul_transpose(self)` bitwise: the mirror
    /// step is exact because `lane_dot8(a, b) == lane_dot8(b, a)` bitwise.
    #[test]
    fn avx2_syrk_matches_matmul_transpose(n in awkward_dim(), k in awkward_len(),
                                          salt in any::<u64>()) {
        if !avx2() { return Ok(()); }
        let a = dense(n, k, salt);
        let (gram, full) = on_avx2(|| (a.syrk(), a.matmul_transpose(&a)));
        prop_assert_eq!(bits(gram.as_slice()), bits(full.as_slice()));
    }

    /// Every element of the AVX2 `matmul` is a single ascending fused chain
    /// over k, through both axpy-panel geometries.
    #[test]
    fn avx2_matmul_matches_fused_model(shape in output_shape(), k in awkward_dim(),
                                       salt in any::<u64>()) {
        if !avx2() { return Ok(()); }
        let (m, n) = shape;
        let a = dense(m, k, salt);
        let b = dense(k, n, salt ^ 5);
        let got = on_avx2(|| a.matmul(&b));
        let expect = ref_fused_matmul(&a, &b);
        prop_assert_eq!(bits(got.as_slice()), bits(expect.as_slice()),
                        "{}x{} * {}x{}, {:?}", m, k, k, n, ShapeClass::of_output(m, n));
    }

    /// Every element of the AVX2 `transpose_matmul` is a single ascending
    /// fused chain over input rows, through both axpy-panel geometries.
    #[test]
    fn avx2_transpose_matmul_matches_fused_model(shape in output_shape(), r in awkward_dim(),
                                                 salt in any::<u64>()) {
        if !avx2() { return Ok(()); }
        let (c, n) = shape;
        let a = dense(r, c, salt);
        let b = dense(r, n, salt ^ 6);
        let got = on_avx2(|| a.transpose_matmul(&b));
        // a^T * b = fused chains over r: reuse the matmul model on a^T.
        let expect = ref_fused_matmul(&a.transpose(), &b);
        prop_assert_eq!(bits(got.as_slice()), bits(expect.as_slice()),
                        "{}x{} ^T * {}x{}, {:?}", r, c, r, n, ShapeClass::of_output(c, n));
    }

    /// The row chunk a rayon work item covers (tile rows × grain) never
    /// changes bits: each row-chunk entry point of `simd::call`, called
    /// once on the whole output and once per chunk of `chunk` rows, writes
    /// the same bits, and those equal the model, for the tile geometry of
    /// every shape class.
    #[test]
    fn avx2_grain_never_changes_bits(m in awkward_dim(), k in awkward_dim(),
                                     n in awkward_dim(), chunk in 1usize..10,
                                     salt in any::<u64>()) {
        if !avx2() { return Ok(()); }
        let a = dense(m, k, salt);
        let b = dense(k, n, salt ^ 7);
        let bt = dense(n, k, salt ^ 8);
        let ar = dense(k, m, salt ^ 9);
        for class in CLASSES {
            let mm = bits(&mm_chunked(&a, &b, m, class));
            prop_assert_eq!(&mm, &bits(ref_fused_matmul(&a, &b).as_slice()), "{:?}", class);
            prop_assert_eq!(&mm, &bits(&mm_chunked(&a, &b, chunk, class)), "{:?}", class);
            let tm = bits(&tm_chunked(&ar, &b, m, class));
            let tm_model = ref_fused_matmul(&ar.transpose(), &b);
            prop_assert_eq!(&tm, &bits(tm_model.as_slice()), "{:?}", class);
            prop_assert_eq!(&tm, &bits(&tm_chunked(&ar, &b, chunk, class)), "{:?}", class);
            let mt = bits(&mt_chunked(&a, &bt, m, class));
            prop_assert_eq!(&mt, &bits(ref_lane_dot_mt(&a, &bt).as_slice()), "{:?}", class);
            prop_assert_eq!(&mt, &bits(&mt_chunked(&a, &bt, chunk, class)), "{:?}", class);
        }
        let sy = bits(&syrk_chunked(&a, m));
        prop_assert_eq!(&sy, &bits(&syrk_chunked(&a, chunk)));
        let full = ref_lane_dot_mt(&a, &a);
        for i in 0..m {
            for j in i..m {
                prop_assert_eq!(sy[i * m + j], full.get(i, j).to_bits(), "({},{})", i, j);
            }
        }
    }
}

/// The AVX2 `transpose_matmul` walks its reduction in blocks of
/// `simd::TM_ROW_BLOCK` input rows, storing each chain to `out` between
/// blocks and reloading it. At reduction lengths around one and two blocks,
/// for the panel geometry of every shape class and with full tiles plus row
/// and column tails, every element must still be one ascending fused chain.
#[test]
fn avx2_transpose_matmul_row_blocks_match_fused_model() {
    if !avx2() {
        return;
    }
    let block = e2gcl_linalg::simd::TM_ROW_BLOCK;
    for (salt, r) in [block - 1, block, block + 1, 2 * block + 3]
        .into_iter()
        .enumerate()
    {
        for class in CLASSES {
            for (c, n) in [(9, 37), (8, 32), (1, 5)] {
                let a = dense(r, c, salt as u64);
                let b = dense(r, n, salt as u64 ^ 6);
                let got = tm_chunked(&a, &b, c, class);
                let expect = ref_fused_matmul(&a.transpose(), &b);
                assert_eq!(
                    bits(&got),
                    bits(expect.as_slice()),
                    "{r}x{c} ^T * {r}x{n} {class:?}"
                );
            }
        }
    }
}

#[test]
fn avx2_empty_rows_and_zero_k() {
    if !avx2() {
        return;
    }
    on_avx2(|| {
        let a = Matrix::zeros(0, 7);
        let b = Matrix::zeros(5, 7);
        assert_eq!(a.matmul_transpose(&b).shape(), (0, 5));
        let a = Matrix::zeros(3, 0);
        let b = Matrix::zeros(4, 0);
        let out = a.matmul_transpose(&b);
        assert!(out.as_slice().iter().all(|&v| v == 0.0));
        let a = Matrix::zeros(0, 0);
        assert_eq!(a.syrk().shape(), (0, 0));
    });
}
