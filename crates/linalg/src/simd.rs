//! Explicit SIMD micro-kernels and their scalar reduction-contract models.
//!
//! This module is the only `unsafe` code in the workspace. It provides
//! AVX2+FMA implementations of the dense hot-path kernels — `lane_dot` /
//! `lane_dot4`, the GEMM micro-panels behind [`crate::Matrix::matmul`] /
//! [`crate::Matrix::matmul_transpose`] / [`crate::Matrix::transpose_matmul`]
//! / [`crate::Matrix::syrk`], and the SpMM dense-column panel — selected at
//! runtime by [`crate::dispatch`] (feature detection + tile configuration),
//! with the PR 4 scalar blocked kernels as the fallback path.
//!
//! # The AVX2 element-level reduction contract
//!
//! Exactly as `ops::lane_dot` fixes the scalar path's element order, the
//! [`model`] submodule fixes the AVX2 path's. Every element any AVX2 kernel
//! produces is bit-identical to the corresponding safe scalar model:
//!
//! * **Dot-style elements** ([`model::lane_dot8`], the 8-lane analogue of
//!   [`crate::ops::lane_dot`]): lane `l` accumulates elements
//!   `l, l+8, l+16, …` in ascending order via *fused* multiply-add
//!   (`s_l = fma(x, y, s_l)`, one rounding — `_mm256_fmadd_ps` and
//!   [`f32::mul_add`] produce identical bits under IEEE-754); the eight
//!   lanes combine as `t_l = s_l + s_{l+4}` (the `vextractf128` + `addps`
//!   fold) followed by `(t_0 + t_2) + (t_1 + t_3)` (the `movehl` /
//!   `shuffle` fold); the `len % 8` tail is appended last, ascending, with
//!   scalar fused multiply-adds.
//! * **Axpy-style elements** ([`model::fused_chain_dot`], used by `matmul`,
//!   `transpose_matmul` and SpMM): a single accumulator per element,
//!   advanced in ascending reduction order with fused multiply-adds. Same
//!   order as the scalar path, fused rounding instead of two roundings.
//!
//! Tile geometry (how many rows/columns a micro-panel covers) and the rayon
//! parallel grain never enter either contract: elements are independent
//! accumulation chains, so **every tile configuration of a dispatch path
//! produces identical bits** — the autotuner can pick shapes freely without
//! invalidating that path's golden fingerprints. Bitwise equality of the
//! intrinsics against these models is property-tested at odd lengths,
//! `k < 8`, and empty inputs in `crates/linalg/tests/simd_contract.rs`.

/// Safe scalar models of the AVX2 reduction contract. These are the
/// *definition* of the AVX2 path's element-level bit behaviour; the
/// intrinsic kernels must (and are tested to) reproduce them exactly.
pub mod model {
    /// Number of independent accumulator lanes in the AVX2 dot contract.
    pub const LANES: usize = 8;

    /// The 8-lane fused-multiply-add dot product: the AVX2 analogue of
    /// [`crate::ops::lane_dot`]. See the module docs for the exact lane
    /// split, combine order, and tail order.
    pub fn lane_dot8(a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        let mut acc = [0.0f32; LANES];
        for (ca, cb) in a.chunks_exact(LANES).zip(b.chunks_exact(LANES)) {
            for ((s, &x), &y) in acc.iter_mut().zip(ca).zip(cb) {
                *s = x.mul_add(y, *s);
            }
        }
        let t = [
            acc[0] + acc[4],
            acc[1] + acc[5],
            acc[2] + acc[6],
            acc[3] + acc[7],
        ];
        let mut s = (t[0] + t[2]) + (t[1] + t[3]);
        let tail = a.len() - a.len() % LANES;
        for (&x, &y) in a[tail..].iter().zip(&b[tail..]) {
            s = x.mul_add(y, s);
        }
        s
    }

    /// The single-chain fused-multiply-add dot: the per-element contract of
    /// the AVX2 axpy-style kernels (`matmul`, `transpose_matmul`, SpMM),
    /// which accumulate one chain per output element in ascending reduction
    /// order — the same order as the scalar path, with fused rounding.
    pub fn fused_chain_dot(a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        let mut s = 0.0f32;
        for (&x, &y) in a.iter().zip(b) {
            s = x.mul_add(y, s);
        }
        s
    }
}

#[cfg(target_arch = "x86_64")]
pub(crate) mod avx2 {
    //! AVX2+FMA intrinsic kernels. Every function here requires the host to
    //! support `avx2` and `fma` (callers guard with
    //! [`crate::dispatch::avx2_available`], which wraps
    //! `is_x86_feature_detected!`); calling them on other hardware is
    //! undefined behaviour, which is why they are all `unsafe`.
    #![allow(clippy::missing_safety_doc)] // safety contract documented above
    #![allow(clippy::needless_range_loop)] // index loops mirror register tiles

    use std::arch::x86_64::*;

    /// Folds the eight lanes of `v` in the documented contract order:
    /// `t_l = s_l + s_{l+4}`, then `(t_0 + t_2) + (t_1 + t_3)`.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn hsum8(v: __m256) -> f32 {
        let lo = _mm256_castps256_ps128(v);
        let hi = _mm256_extractf128_ps(v, 1);
        let q = _mm_add_ps(lo, hi); // [t0, t1, t2, t3]
        let m = _mm_movehl_ps(q, q); // [t2, t3, t2, t3]
        let w = _mm_add_ps(q, m); // [t0+t2, t1+t3, ..]
        let w1 = _mm_shuffle_ps(w, w, 0b01); // lane 0 = t1+t3
        _mm_cvtss_f32(_mm_add_ss(w, w1)) // (t0+t2) + (t1+t3)
    }

    /// Raw-pointer `lane_dot8` over `k` elements.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn dot_raw(a: *const f32, b: *const f32, k: usize) -> f32 {
        let k8 = k - k % 8;
        let mut acc = _mm256_setzero_ps();
        let mut i = 0;
        while i < k8 {
            acc = _mm256_fmadd_ps(_mm256_loadu_ps(a.add(i)), _mm256_loadu_ps(b.add(i)), acc);
            i += 8;
        }
        let mut s = hsum8(acc);
        while i < k {
            s = (*a.add(i)).mul_add(*b.add(i), s);
            i += 1;
        }
        s
    }

    /// [`super::model::lane_dot8`] with intrinsics: identical bits.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn lane_dot8(a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        dot_raw(a.as_ptr(), b.as_ptr(), a.len())
    }

    /// Four [`lane_dot8`]s of `a` against four rows, register-tiled so each
    /// loaded chunk of `a` is reused four times. `out[j]` is bit-identical
    /// to `lane_dot8(a, b_j)`.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn lane_dot4(a: &[f32], b0: &[f32], b1: &[f32], b2: &[f32], b3: &[f32]) -> [f32; 4] {
        debug_assert!(a.len() == b0.len() && a.len() == b1.len());
        debug_assert!(a.len() == b2.len() && a.len() == b3.len());
        let k = a.len();
        let bp = [b0.as_ptr(), b1.as_ptr(), b2.as_ptr(), b3.as_ptr()];
        let ap = a.as_ptr();
        let k8 = k - k % 8;
        let mut acc = [_mm256_setzero_ps(); 4];
        let mut i = 0;
        while i < k8 {
            let av = _mm256_loadu_ps(ap.add(i));
            for j in 0..4 {
                acc[j] = _mm256_fmadd_ps(av, _mm256_loadu_ps(bp[j].add(i)), acc[j]);
            }
            i += 8;
        }
        let mut out = [0.0f32; 4];
        for j in 0..4 {
            let mut s = hsum8(acc[j]);
            let mut t = k8;
            while t < k {
                s = (*ap.add(t)).mul_add(*bp[j].add(t), s);
                t += 1;
            }
            out[j] = s;
        }
        out
    }

    /// `MR x NR` dot micro-tile: `out[m][j] = lane_dot8(a_m, b_j)` with all
    /// `MR * NR` accumulators live in ymm registers across the k loop.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn dot_tile<const MR: usize, const NR: usize>(
        ap: [*const f32; MR],
        bp: [*const f32; NR],
        k: usize,
    ) -> [[f32; NR]; MR] {
        let k8 = k - k % 8;
        let mut acc = [[_mm256_setzero_ps(); NR]; MR];
        let mut i = 0;
        while i < k8 {
            let mut bv = [_mm256_setzero_ps(); NR];
            for j in 0..NR {
                bv[j] = _mm256_loadu_ps(bp[j].add(i));
            }
            for m in 0..MR {
                let av = _mm256_loadu_ps(ap[m].add(i));
                for j in 0..NR {
                    acc[m][j] = _mm256_fmadd_ps(av, bv[j], acc[m][j]);
                }
            }
            i += 8;
        }
        let mut out = [[0.0f32; NR]; MR];
        for m in 0..MR {
            for j in 0..NR {
                let mut s = hsum8(acc[m][j]);
                let mut t = k8;
                while t < k {
                    s = (*ap[m].add(t)).mul_add(*bp[j].add(t), s);
                    t += 1;
                }
                out[m][j] = s;
            }
        }
        out
    }

    /// One chunk of `out = a_chunk * b^T` rows through `MR x NR` dot tiles
    /// (column tails and remainder rows fall back to per-element
    /// [`dot_raw`] — identical bits). Fully overwrites `out`.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn mt_rows_g<const MR: usize, const NR: usize>(
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        k: usize,
        on: usize,
    ) {
        let rows = out.len() / on;
        let (ab, bb, ob) = (a.as_ptr(), b.as_ptr(), out.as_mut_ptr());
        let mut r = 0;
        while r + MR <= rows {
            let mut ap = [ab; MR];
            for m in 0..MR {
                ap[m] = ab.add((r + m) * k);
            }
            let mut j = 0;
            while j + NR <= on {
                let mut bp = [bb; NR];
                for t in 0..NR {
                    bp[t] = bb.add((j + t) * k);
                }
                let tile = dot_tile::<MR, NR>(ap, bp, k);
                for m in 0..MR {
                    for t in 0..NR {
                        *ob.add((r + m) * on + j + t) = tile[m][t];
                    }
                }
                j += NR;
            }
            while j < on {
                let brow = bb.add(j * k);
                for m in 0..MR {
                    *ob.add((r + m) * on + j) = dot_raw(ap[m], brow, k);
                }
                j += 1;
            }
            r += MR;
        }
        for rr in r..rows {
            let arow = ab.add(rr * k);
            for j in 0..on {
                *ob.add(rr * on + j) = dot_raw(arow, bb.add(j * k), k);
            }
        }
    }

    /// Geometry-dispatching entry for `matmul_transpose` row chunks. The
    /// `(dot_mr, dot_nr)` pair must be one of the grid in
    /// [`crate::dispatch::TileConfig::DOT_GEOMETRIES`]; anything else falls
    /// back to the 2x4 default (same bits either way).
    ///
    /// # Safety
    /// Host must support AVX2+FMA; `a.len() >= rows*k`, `b.len() >= on*k`,
    /// `out.len()` a multiple of `on`.
    pub unsafe fn mt_rows(
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        k: usize,
        on: usize,
        dot_mr: u8,
        dot_nr: u8,
    ) {
        match (dot_mr, dot_nr) {
            (1, 4) => mt_rows_g::<1, 4>(a, b, out, k, on),
            (4, 2) => mt_rows_g::<4, 2>(a, b, out, k, on),
            _ => mt_rows_g::<2, 4>(a, b, out, k, on),
        }
    }

    /// Upper-triangle (`j >= i`) rows `[i0, i0 + rows)` of `a * a^T`
    /// through the same dot tiles as [`mt_rows`]: every element produced is
    /// bit-identical to `lane_dot8` of the operand rows, so the caller's
    /// mirror step is exact. Elements below the diagonal are untouched.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn syrk_rows_g<const MR: usize, const NR: usize>(
        a: &[f32],
        out: &mut [f32],
        i0: usize,
        k: usize,
        n: usize,
    ) {
        let rows = out.len() / n;
        let (ab, ob) = (a.as_ptr(), out.as_mut_ptr());
        let mut r = 0;
        // Full MR-row groups: per-element corner up to the block's last
        // diagonal, then NR-wide tiles, then the column tail.
        while r + MR <= rows {
            let gb = i0 + r;
            let mut ap = [ab; MR];
            for m in 0..MR {
                ap[m] = ab.add((gb + m) * k);
            }
            for m in 0..MR {
                for j in (gb + m)..(gb + MR).min(n) {
                    *ob.add((r + m) * n + j) = dot_raw(ap[m], ab.add(j * k), k);
                }
            }
            let mut j = gb + MR;
            while j + NR <= n {
                let mut bp = [ab; NR];
                for t in 0..NR {
                    bp[t] = ab.add((j + t) * k);
                }
                let tile = dot_tile::<MR, NR>(ap, bp, k);
                for m in 0..MR {
                    for t in 0..NR {
                        *ob.add((r + m) * n + j + t) = tile[m][t];
                    }
                }
                j += NR;
            }
            while j < n {
                let brow = ab.add(j * k);
                for m in 0..MR {
                    *ob.add((r + m) * n + j) = dot_raw(ap[m], brow, k);
                }
                j += 1;
            }
            r += MR;
        }
        for rr in r..rows {
            let i = i0 + rr;
            let arow = ab.add(i * k);
            for j in i..n {
                *ob.add(rr * n + j) = dot_raw(arow, ab.add(j * k), k);
            }
        }
    }

    /// Geometry-dispatching entry for `syrk` row chunks.
    ///
    /// # Safety
    /// Host must support AVX2+FMA; `a` is `n x k` row-major, `out.len()` a
    /// multiple of `n`, `i0 + out.len()/n <= n`.
    pub unsafe fn syrk_rows(
        a: &[f32],
        out: &mut [f32],
        i0: usize,
        k: usize,
        n: usize,
        dot_mr: u8,
        dot_nr: u8,
    ) {
        match (dot_mr, dot_nr) {
            (1, 4) => syrk_rows_g::<1, 4>(a, out, i0, k, n),
            (4, 2) => syrk_rows_g::<4, 2>(a, out, i0, k, n),
            _ => syrk_rows_g::<2, 4>(a, out, i0, k, n),
        }
    }

    /// Scalar fused-chain element: the tail path of the axpy kernels.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn fused_chain_raw(a: *const f32, stride_a: usize, b: *const f32, k: usize) -> f32 {
        let mut s = 0.0f32;
        for kk in 0..k {
            s = (*a.add(kk)).mul_add(*b.add(kk * stride_a), s);
        }
        s
    }

    /// One chunk of `out = a_chunk * b` rows: `MR` output rows by `NV` ymm
    /// column vectors per micro-panel, accumulators in registers across the
    /// whole k loop (each element a single fused chain, ascending k).
    /// `out` need not be pre-zeroed: panels fully overwrite their elements.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn mm_rows_g<const MR: usize, const NV: usize>(
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        k: usize,
        oc: usize,
    ) {
        let rows = out.len() / oc;
        let (ab, bb, ob) = (a.as_ptr(), b.as_ptr(), out.as_mut_ptr());
        let jw = NV * 8;
        let j_main = oc - oc % jw;
        let mut r = 0;
        while r + MR <= rows {
            let mut j = 0;
            while j < j_main {
                let mut acc = [[_mm256_setzero_ps(); NV]; MR];
                for kk in 0..k {
                    let brow = bb.add(kk * oc + j);
                    let mut bv = [_mm256_setzero_ps(); NV];
                    for v in 0..NV {
                        bv[v] = _mm256_loadu_ps(brow.add(v * 8));
                    }
                    for m in 0..MR {
                        let av = _mm256_set1_ps(*ab.add((r + m) * k + kk));
                        for v in 0..NV {
                            acc[m][v] = _mm256_fmadd_ps(av, bv[v], acc[m][v]);
                        }
                    }
                }
                for m in 0..MR {
                    for v in 0..NV {
                        _mm256_storeu_ps(ob.add((r + m) * oc + j + v * 8), acc[m][v]);
                    }
                }
                j += jw;
            }
            for m in 0..MR {
                let arow = ab.add((r + m) * k);
                for jj in j_main..oc {
                    *ob.add((r + m) * oc + jj) = fused_chain_raw(arow, oc, bb.add(jj), k);
                }
            }
            r += MR;
        }
        for rr in r..rows {
            let arow = ab.add(rr * k);
            for jj in 0..oc {
                *ob.add(rr * oc + jj) = fused_chain_raw(arow, oc, bb.add(jj), k);
            }
        }
    }

    /// Geometry-dispatching entry for `matmul` row chunks. `(mm_mr, mm_nv)`
    /// from [`crate::dispatch::TileConfig::MM_GEOMETRIES`].
    ///
    /// # Safety
    /// Host must support AVX2+FMA; `a.len() >= rows*k`, `b.len() >= k*oc`,
    /// `out.len()` a multiple of `oc`.
    pub unsafe fn mm_rows(
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        k: usize,
        oc: usize,
        mm_mr: u8,
        mm_nv: u8,
    ) {
        match (mm_mr, mm_nv) {
            (2, 4) => mm_rows_g::<2, 4>(a, b, out, k, oc),
            (4, 1) => mm_rows_g::<4, 1>(a, b, out, k, oc),
            _ => mm_rows_g::<4, 2>(a, b, out, k, oc),
        }
    }

    /// One chunk of `out = a^T * b` rows starting at column `c0` of `a`:
    /// like [`mm_rows`] with the reduction running over input rows `r`
    /// (each element a single fused chain, ascending `r`). The `a` scalars
    /// are strided broadcasts (`a[r*sc + c0 + m]`); `b` rows stream
    /// contiguously. Fully overwrites `out`.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn tm_rows_g<const MR: usize, const NV: usize>(
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        c0: usize,
        sc: usize,
        oc: usize,
        nrows: usize,
    ) {
        let rows = out.len() / oc;
        let (ab, bb, ob) = (a.as_ptr(), b.as_ptr(), out.as_mut_ptr());
        let jw = NV * 8;
        let j_main = oc - oc % jw;
        let mut m0 = 0;
        while m0 + MR <= rows {
            let mut j = 0;
            while j < j_main {
                let mut acc = [[_mm256_setzero_ps(); NV]; MR];
                for r in 0..nrows {
                    let brow = bb.add(r * oc + j);
                    let mut bv = [_mm256_setzero_ps(); NV];
                    for v in 0..NV {
                        bv[v] = _mm256_loadu_ps(brow.add(v * 8));
                    }
                    let arow = ab.add(r * sc + c0 + m0);
                    for m in 0..MR {
                        let av = _mm256_set1_ps(*arow.add(m));
                        for v in 0..NV {
                            acc[m][v] = _mm256_fmadd_ps(av, bv[v], acc[m][v]);
                        }
                    }
                }
                for m in 0..MR {
                    for v in 0..NV {
                        _mm256_storeu_ps(ob.add((m0 + m) * oc + j + v * 8), acc[m][v]);
                    }
                }
                j += jw;
            }
            for m in 0..MR {
                for jj in j_main..oc {
                    let mut s = 0.0f32;
                    for r in 0..nrows {
                        s = (*ab.add(r * sc + c0 + m0 + m)).mul_add(*bb.add(r * oc + jj), s);
                    }
                    *ob.add((m0 + m) * oc + jj) = s;
                }
            }
            m0 += MR;
        }
        for m in m0..rows {
            for jj in 0..oc {
                let mut s = 0.0f32;
                for r in 0..nrows {
                    s = (*ab.add(r * sc + c0 + m)).mul_add(*bb.add(r * oc + jj), s);
                }
                *ob.add(m * oc + jj) = s;
            }
        }
    }

    /// Geometry-dispatching entry for `transpose_matmul` row chunks (shares
    /// the `(mm_mr, mm_nv)` axpy geometry).
    ///
    /// # Safety
    /// Host must support AVX2+FMA; `a` is `nrows x sc`, `b` is `nrows x oc`,
    /// `out.len()` a multiple of `oc`, `c0 + out.len()/oc <= sc`.
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn tm_rows(
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        c0: usize,
        sc: usize,
        oc: usize,
        nrows: usize,
        mm_mr: u8,
        mm_nv: u8,
    ) {
        match (mm_mr, mm_nv) {
            (2, 4) => tm_rows_g::<2, 4>(a, b, out, c0, sc, oc, nrows),
            (4, 1) => tm_rows_g::<4, 1>(a, b, out, c0, sc, oc, nrows),
            _ => tm_rows_g::<4, 2>(a, b, out, c0, sc, oc, nrows),
        }
    }

    /// One SpMM output row: `NV` ymm column accumulators held across the
    /// row's nonzeros (ascending CSR entry order, fused — each element one
    /// chain), column tail per element. Fully overwrites `out_row`.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn spmm_row_g<const NV: usize>(
        cols: &[u32],
        vals: &[f32],
        xs: &[f32],
        d: usize,
        out_row: &mut [f32],
    ) {
        let (xb, ob) = (xs.as_ptr(), out_row.as_mut_ptr());
        let jw = NV * 8;
        let j_main = d - d % jw;
        let mut j = 0;
        while j < j_main {
            let mut acc = [_mm256_setzero_ps(); NV];
            for (&c, &v) in cols.iter().zip(vals) {
                let av = _mm256_set1_ps(v);
                let xrow = xb.add(c as usize * d + j);
                for t in 0..NV {
                    acc[t] = _mm256_fmadd_ps(av, _mm256_loadu_ps(xrow.add(t * 8)), acc[t]);
                }
            }
            for t in 0..NV {
                _mm256_storeu_ps(ob.add(j + t * 8), acc[t]);
            }
            j += jw;
        }
        for jj in j_main..d {
            let mut s = 0.0f32;
            for (&c, &v) in cols.iter().zip(vals) {
                s = v.mul_add(*xb.add(c as usize * d + jj), s);
            }
            *ob.add(jj) = s;
        }
    }

    /// Geometry-dispatching entry for one SpMM output row (`mm_nv` panels).
    ///
    /// # Safety
    /// Host must support AVX2+FMA; every `cols` entry `c` must satisfy
    /// `(c+1)*d <= xs.len()`; `out_row.len() == d`.
    pub unsafe fn spmm_row(cols: &[u32], vals: &[f32], xs: &[f32], d: usize, out_row: &mut [f32]) {
        spmm_row_g::<2>(cols, vals, xs, d, out_row)
    }
}

/// Safe entry points for the AVX2 kernels, used by the blocked-kernel
/// routing in `matrix.rs` and the SpMM path in `e2gcl-graph`. Each asserts
/// AVX2+FMA support before entering the intrinsics — the dispatch layer
/// only ever selects the AVX2 path after detection, so the assert is
/// defence in depth, not a hot-path branch (it reads a cached atomic).
#[cfg(target_arch = "x86_64")]
pub mod call {
    use super::avx2;

    #[inline]
    fn require_avx2() {
        assert!(
            crate::dispatch::avx2_available(),
            "AVX2 kernel path selected on a host without AVX2+FMA"
        );
    }

    /// See `avx2::lane_dot8`.
    #[inline]
    pub fn lane_dot8(a: &[f32], b: &[f32]) -> f32 {
        require_avx2();
        // SAFETY: AVX2+FMA support asserted above.
        unsafe { avx2::lane_dot8(a, b) }
    }

    /// See `avx2::lane_dot4`.
    #[inline]
    pub fn lane_dot4(a: &[f32], b0: &[f32], b1: &[f32], b2: &[f32], b3: &[f32]) -> [f32; 4] {
        require_avx2();
        // SAFETY: AVX2+FMA support asserted above.
        unsafe { avx2::lane_dot4(a, b0, b1, b2, b3) }
    }

    /// See `avx2::mm_rows`.
    #[inline]
    pub fn mm_rows(a: &[f32], b: &[f32], out: &mut [f32], k: usize, oc: usize, mr: u8, nv: u8) {
        require_avx2();
        // SAFETY: AVX2+FMA support asserted above; slice bounds are the
        // callers' documented invariants.
        unsafe { avx2::mm_rows(a, b, out, k, oc, mr, nv) }
    }

    /// See `avx2::tm_rows`.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub fn tm_rows(
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        c0: usize,
        sc: usize,
        oc: usize,
        nrows: usize,
        mr: u8,
        nv: u8,
    ) {
        require_avx2();
        // SAFETY: as in `mm_rows`.
        unsafe { avx2::tm_rows(a, b, out, c0, sc, oc, nrows, mr, nv) }
    }

    /// See `avx2::mt_rows`.
    #[inline]
    pub fn mt_rows(a: &[f32], b: &[f32], out: &mut [f32], k: usize, on: usize, mr: u8, nr: u8) {
        require_avx2();
        // SAFETY: as in `mm_rows`.
        unsafe { avx2::mt_rows(a, b, out, k, on, mr, nr) }
    }

    /// See `avx2::syrk_rows`.
    #[inline]
    pub fn syrk_rows(a: &[f32], out: &mut [f32], i0: usize, k: usize, n: usize, mr: u8, nr: u8) {
        require_avx2();
        // SAFETY: as in `mm_rows`.
        unsafe { avx2::syrk_rows(a, out, i0, k, n, mr, nr) }
    }

    /// See `avx2::spmm_row`.
    #[inline]
    pub fn spmm_row(cols: &[u32], vals: &[f32], xs: &[f32], d: usize, out_row: &mut [f32]) {
        require_avx2();
        // SAFETY: as in `mm_rows`; CSR column bounds are the sparse
        // constructor's invariant.
        unsafe { avx2::spmm_row(cols, vals, xs, d, out_row) }
    }
}

#[cfg(test)]
mod tests {
    use super::model;

    #[test]
    fn lane_dot8_known_values() {
        // Products of small integers are exact, so the fused contract must
        // agree with the plain dot here.
        let a: Vec<f32> = (0..19).map(|i| (i % 5) as f32).collect();
        let b: Vec<f32> = (0..19).map(|i| ((i * 3) % 7) as f32 - 3.0).collect();
        let exact: f32 = a.iter().zip(&b).map(|(&x, &y)| x * y).sum();
        assert_eq!(model::lane_dot8(&a, &b), exact);
        assert_eq!(model::fused_chain_dot(&a, &b), exact);
        assert_eq!(model::lane_dot8(&[], &[]), 0.0);
    }
}
