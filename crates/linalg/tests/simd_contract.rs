//! Bitwise contract tests for the AVX2 dispatch path.
//!
//! The AVX2 kernels' element-level reduction order is *defined* by the safe
//! scalar models in `e2gcl_linalg::simd::model` (8 fused lanes, the
//! documented combine order, ascending fused tail — see the `simd` module
//! docs). These properties pin the intrinsics to those models bitwise at
//! awkward shapes: odd k, k below the lane width, empty rows, and every
//! compiled tile geometry. They also pin the cross-kernel invariants the
//! blocked scalar path already enjoys: dot-style elements equal the lane
//! kernel, axpy-style elements equal a single fused chain, and tile
//! geometry / parallel grain never change any bit.
//!
//! All tests are skipped (trivially pass) on hosts without AVX2+FMA — the
//! dispatcher can never select the AVX2 path there.

use e2gcl_linalg::dispatch::{self, DispatchPath, Selection, TileConfig};
use e2gcl_linalg::simd::model;
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

fn dense_vec(n: usize, salt: u64) -> Vec<f32> {
    let mut rng = SeedRng::new(0x51d7 ^ salt);
    (0..n).map(|_| rng.normal()).collect()
}

fn dense(rows: usize, cols: usize, salt: u64) -> Matrix {
    Matrix::from_vec(rows, cols, dense_vec(rows * cols, salt))
}

/// An AVX2 selection with explicit tile geometry for every shape class.
fn avx2_sel(dot: (u8, u8), mm: (u8, u8), grain: u8) -> Selection {
    let t = TileConfig {
        mm_mr: mm.0,
        mm_nv: mm.1,
        dot_mr: dot.0,
        dot_nr: dot.1,
        grain,
    };
    Selection {
        path: DispatchPath::Avx2,
        tall: t,
        square: t,
        spmm: t,
    }
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
    /// operand rows, for every compiled dot-tile geometry — tile shape is a
    /// pure performance knob, never a bits knob.
    #[test]
    fn avx2_matmul_transpose_matches_model(m in awkward_dim(), n in awkward_dim(),
                                           k in awkward_len(), geom in 0usize..3,
                                           salt in any::<u64>()) {
        if !avx2() { return Ok(()); }
        let a = dense(m, k, salt);
        let b = dense(n, k, salt ^ 3);
        let sel = avx2_sel(TileConfig::DOT_GEOMETRIES[geom], (4, 2), 2);
        let got = dispatch::with_selection(sel, || a.matmul_transpose(&b));
        for i in 0..m {
            for j in 0..n {
                prop_assert_eq!(got.get(i, j).to_bits(),
                                model::lane_dot8(a.row(i), b.row(j)).to_bits(),
                                "({},{}) geom {:?} k {}", i, j,
                                TileConfig::DOT_GEOMETRIES[geom], k);
            }
        }
    }

    /// AVX2 `syrk` equals AVX2 `matmul_transpose(self)` bitwise: the mirror
    /// step is exact because `lane_dot8(a, b) == lane_dot8(b, a)` bitwise.
    #[test]
    fn avx2_syrk_matches_matmul_transpose(n in awkward_dim(), k in awkward_len(),
                                          geom in 0usize..3, salt in any::<u64>()) {
        if !avx2() { return Ok(()); }
        let a = dense(n, k, salt);
        let sel = avx2_sel(TileConfig::DOT_GEOMETRIES[geom], (4, 2), 2);
        let (gram, full) = dispatch::with_selection(sel, || (a.syrk(), a.matmul_transpose(&a)));
        for (x, y) in gram.as_slice().iter().zip(full.as_slice()) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    /// Every element of the AVX2 `matmul` is a single ascending fused chain
    /// over k, for every compiled axpy-panel geometry.
    #[test]
    fn avx2_matmul_matches_fused_model(m in awkward_dim(), k in awkward_dim(),
                                       n in awkward_dim(), geom in 0usize..3,
                                       salt in any::<u64>()) {
        if !avx2() { return Ok(()); }
        let a = dense(m, k, salt);
        let b = dense(k, n, salt ^ 5);
        let sel = avx2_sel((2, 4), TileConfig::MM_GEOMETRIES[geom], 2);
        let got = dispatch::with_selection(sel, || a.matmul(&b));
        let expect = ref_fused_matmul(&a, &b);
        for (x, y) in got.as_slice().iter().zip(expect.as_slice()) {
            prop_assert_eq!(x.to_bits(), y.to_bits(), "{}x{} * {}x{} geom {:?}",
                            m, k, k, n, TileConfig::MM_GEOMETRIES[geom]);
        }
    }

    /// Every element of the AVX2 `transpose_matmul` is a single ascending
    /// fused chain over input rows, for every panel geometry.
    #[test]
    fn avx2_transpose_matmul_matches_fused_model(r in awkward_dim(), c in awkward_dim(),
                                                 n in awkward_dim(), geom in 0usize..3,
                                                 salt in any::<u64>()) {
        if !avx2() { return Ok(()); }
        let a = dense(r, c, salt);
        let b = dense(r, n, salt ^ 6);
        let sel = avx2_sel((2, 4), TileConfig::MM_GEOMETRIES[geom], 2);
        let got = dispatch::with_selection(sel, || a.transpose_matmul(&b));
        // a^T * b = fused chains over r: reuse the matmul model on a^T.
        let expect = ref_fused_matmul(&a.transpose(), &b);
        for (x, y) in got.as_slice().iter().zip(expect.as_slice()) {
            prop_assert_eq!(x.to_bits(), y.to_bits(), "{}x{} ^T * {}x{} geom {:?}",
                            r, c, r, n, TileConfig::MM_GEOMETRIES[geom]);
        }
    }

    /// Parallel grain never changes bits: grain 1 and grain 16 agree on
    /// every kernel (the thread-invariance story for tile configs).
    #[test]
    fn avx2_grain_never_changes_bits(m in awkward_dim(), k in awkward_dim(),
                                     n in awkward_dim(), salt in any::<u64>()) {
        if !avx2() { return Ok(()); }
        let a = dense(m, k, salt);
        let b = dense(n, k, salt ^ 7);
        let run = |grain: u8| {
            let sel = avx2_sel((2, 4), (4, 2), grain);
            dispatch::with_selection(sel, || a.matmul_transpose(&b))
        };
        let g1 = run(1);
        let g16 = run(16);
        for (x, y) in g1.as_slice().iter().zip(g16.as_slice()) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
    }
}

/// The AVX2 `transpose_matmul` walks its reduction in blocks of
/// `simd::TM_ROW_BLOCK` input rows, storing each chain to `out` between
/// blocks and reloading it. At reduction lengths around one and two blocks,
/// for every panel geometry and with full tiles plus row and column tails,
/// every element must still be one ascending fused chain.
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
        for geom in TileConfig::MM_GEOMETRIES {
            for (c, n) in [(9, 37), (8, 32), (1, 5)] {
                let a = dense(r, c, salt as u64);
                let b = dense(r, n, salt as u64 ^ 6);
                let sel = avx2_sel((2, 4), geom, 2);
                let got = dispatch::with_selection(sel, || a.transpose_matmul(&b));
                let expect = ref_fused_matmul(&a.transpose(), &b);
                for (x, y) in got.as_slice().iter().zip(expect.as_slice()) {
                    assert_eq!(
                        x.to_bits(),
                        y.to_bits(),
                        "{r}x{c} ^T * {r}x{n} geom {geom:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn avx2_empty_rows_and_zero_k() {
    if !avx2() {
        return;
    }
    let sel = avx2_sel((2, 4), (4, 2), 2);
    dispatch::with_selection(sel, || {
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
