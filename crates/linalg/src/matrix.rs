//! Row-major dense `f32` matrix.

use crate::ops;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Micro-tile geometry for the blocked GEMM kernels.
///
/// `matmul`/`transpose_matmul` are axpy-style (broadcast one `a` scalar
/// against a contiguous `b` panel): they tile `MR` output rows by `NR`
/// output columns, which keeps the `MR x NR` accumulator block (8 SSE
/// registers of 4 lanes) live across the whole k / r reduction. Each output
/// element is still a single accumulator reduced in ascending order, so
/// these kernels are bit-identical to the naive loops.
///
/// `matmul_transpose`/`syrk` are dot-style (both operands row-major over
/// k): they tile `MR_DOT x NR_DOT` output elements, each carrying `LANES`
/// independent partial sums combined in the fixed [`ops::lane_dot`] order.
const MR: usize = 4;
const NR: usize = 8;
const MR_DOT: usize = 2;
const NR_DOT: usize = 4;
const LANES: usize = 4;

/// One block of up to `MR` rows of `out = a_chunk * b` (`b` is `k x oc`,
/// row-major). Full `MR x NR` panels run register-tiled; the row/column
/// remainders fall back to the streaming axpy path. Both paths accumulate
/// each element over `kk` ascending with a single accumulator, so the block
/// result is bit-identical to the naive ikj loop. `out` must be pre-zeroed.
fn mm_block(a: &[f32], b: &[f32], out: &mut [f32], k: usize, oc: usize) {
    let rows = out.len() / oc;
    let j_main = oc - oc % NR;
    if rows == MR {
        let (r0, rest) = a.split_at(k);
        let (r1, rest) = rest.split_at(k);
        let (r2, r3) = rest.split_at(k);
        let ar = [r0, r1, r2, r3];
        let mut j = 0;
        while j < j_main {
            let mut acc = [[0.0f32; NR]; MR];
            for kk in 0..k {
                let bp = &b[kk * oc + j..kk * oc + j + NR];
                for (accm, arm) in acc.iter_mut().zip(&ar) {
                    let av = arm[kk];
                    for (s, &bv) in accm.iter_mut().zip(bp) {
                        *s += av * bv;
                    }
                }
            }
            for (m, accm) in acc.iter().enumerate() {
                out[m * oc + j..m * oc + j + NR].copy_from_slice(accm);
            }
            j += NR;
        }
    }
    // Row remainder (rows < MR) and the column tail of full blocks share
    // the streaming scalar path.
    let j0 = if rows == MR { j_main } else { 0 };
    if j0 < oc {
        for m in 0..rows {
            let arow = &a[m * k..(m + 1) * k];
            let orow = &mut out[m * oc + j0..m * oc + oc];
            for (kk, &av) in arow.iter().enumerate() {
                let bp = &b[kk * oc + j0..kk * oc + oc];
                for (o, &bv) in orow.iter_mut().zip(bp) {
                    *o += av * bv;
                }
            }
        }
    }
}

/// One block of up to `MR` rows of `out = a^T * b` starting at column `c0`
/// of `a` (`a` is `nrows x sc`, `b` is `nrows x oc`).
///
/// The reduction here runs over input rows `r`, which is the *large*
/// dimension in GCN backward passes — so unlike [`mm_block`] this streams
/// each `b` row contiguously once per block (prefetch-friendly at any
/// depth) and keeps the `MR` output rows hot in L1 as accumulators, giving
/// `MR`-fold reuse of every `b` row. Each output element still accumulates
/// over `r` ascending with a single chain, so the result is bit-identical
/// to the naive loop. `out` must be pre-zeroed.
fn tm_block(a: &[f32], b: &[f32], out: &mut [f32], c0: usize, sc: usize, oc: usize, nrows: usize) {
    let rows = out.len() / oc;
    for r in 0..nrows {
        let base = r * sc + c0;
        let ap = &a[base..base + rows];
        let br = &b[r * oc..(r + 1) * oc];
        for (m, &av) in ap.iter().enumerate() {
            let orow = &mut out[m * oc..(m + 1) * oc];
            for (o, &bv) in orow.iter_mut().zip(br) {
                *o += av * bv;
            }
        }
    }
}

/// `MR_DOT x NR_DOT` register-tiled dot micro-kernel: computes
/// `out[m][j] = lane_dot(a_m, b_j)` for two `a` rows against four `b` rows,
/// reusing every loaded chunk eight times. Lane decomposition, combine
/// order and tail order are exactly those of [`ops::lane_dot`], so each
/// element is bit-identical to calling `lane_dot` directly.
fn mt_tile(
    a0: &[f32],
    a1: &[f32],
    b0: &[f32],
    b1: &[f32],
    b2: &[f32],
    b3: &[f32],
) -> [[f32; NR_DOT]; MR_DOT] {
    let k = a0.len();
    let mut acc = [[[0.0f32; LANES]; NR_DOT]; MR_DOT];
    let it = a0
        .chunks_exact(LANES)
        .zip(a1.chunks_exact(LANES))
        .zip(b0.chunks_exact(LANES))
        .zip(b1.chunks_exact(LANES))
        .zip(b2.chunks_exact(LANES))
        .zip(b3.chunks_exact(LANES));
    for (((((c0, c1), d0), d1), d2), d3) in it {
        for l in 0..LANES {
            let x0 = c0[l];
            let x1 = c1[l];
            acc[0][0][l] += x0 * d0[l];
            acc[0][1][l] += x0 * d1[l];
            acc[0][2][l] += x0 * d2[l];
            acc[0][3][l] += x0 * d3[l];
            acc[1][0][l] += x1 * d0[l];
            acc[1][1][l] += x1 * d1[l];
            acc[1][2][l] += x1 * d2[l];
            acc[1][3][l] += x1 * d3[l];
        }
    }
    let tail = k - k % LANES;
    let mut out = [[0.0f32; NR_DOT]; MR_DOT];
    for (m, arow) in [a0, a1].into_iter().enumerate() {
        for (j, brow) in [b0, b1, b2, b3].into_iter().enumerate() {
            let lanes = acc[m][j];
            let mut s = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
            for (&x, &y) in arow[tail..].iter().zip(&brow[tail..]) {
                s += x * y;
            }
            out[m][j] = s;
        }
    }
    out
}

/// One block of up to `MR_DOT` rows of `out = a_chunk * b^T` (`b` is
/// `on x k`, row-major). Full `MR_DOT x NR_DOT` tiles go through
/// [`mt_tile`]; remainders call [`ops::lane_dot`] per element — both
/// produce identical bits for every element. Fully overwrites `out`.
fn mt_block(a: &[f32], b: &[f32], out: &mut [f32], k: usize, on: usize) {
    let rows = out.len() / on;
    if rows == MR_DOT {
        let (a0, a1) = a.split_at(k);
        let (o0, o1) = out.split_at_mut(on);
        let j_main = on - on % NR_DOT;
        let mut j = 0;
        while j < j_main {
            let t = mt_tile(
                a0,
                a1,
                &b[j * k..(j + 1) * k],
                &b[(j + 1) * k..(j + 2) * k],
                &b[(j + 2) * k..(j + 3) * k],
                &b[(j + 3) * k..(j + 4) * k],
            );
            o0[j..j + NR_DOT].copy_from_slice(&t[0]);
            o1[j..j + NR_DOT].copy_from_slice(&t[1]);
            j += NR_DOT;
        }
        for jj in j_main..on {
            let brow = &b[jj * k..(jj + 1) * k];
            o0[jj] = ops::lane_dot(a0, brow);
            o1[jj] = ops::lane_dot(a1, brow);
        }
    } else {
        for (jj, o) in out.iter_mut().enumerate() {
            *o = ops::lane_dot(a, &b[jj * k..(jj + 1) * k]);
        }
    }
}

/// Upper-triangle rows `[i0, i0 + rows)` of the Gram matrix `a * a^T`
/// (`a` is `n x k`): elements `j >= i` per row `i`, via the same
/// [`mt_tile`]/[`ops::lane_dot`] kernel as [`mt_block`]. Elements below the
/// diagonal are left untouched (the caller mirrors them afterwards).
fn syrk_block(a: &[f32], out: &mut [f32], i0: usize, k: usize, n: usize) {
    let rows = out.len() / n;
    if rows == MR_DOT {
        let a0 = &a[i0 * k..(i0 + 1) * k];
        let a1 = &a[(i0 + 1) * k..(i0 + 2) * k];
        let (o0, o1) = out.split_at_mut(n);
        // Corner elements before the shared tile region (j >= i per row).
        o0[i0] = ops::lane_dot(a0, a0);
        o0[i0 + 1] = ops::lane_dot(a0, a1);
        o1[i0 + 1] = ops::lane_dot(a1, a1);
        let mut j = i0 + MR_DOT;
        while j + NR_DOT <= n {
            let t = mt_tile(
                a0,
                a1,
                &a[j * k..(j + 1) * k],
                &a[(j + 1) * k..(j + 2) * k],
                &a[(j + 2) * k..(j + 3) * k],
                &a[(j + 3) * k..(j + 4) * k],
            );
            o0[j..j + NR_DOT].copy_from_slice(&t[0]);
            o1[j..j + NR_DOT].copy_from_slice(&t[1]);
            j += NR_DOT;
        }
        for jj in j..n {
            let brow = &a[jj * k..(jj + 1) * k];
            o0[jj] = ops::lane_dot(a0, brow);
            o1[jj] = ops::lane_dot(a1, brow);
        }
    } else {
        // Single remainder row (odd n).
        for m in 0..rows {
            let i = i0 + m;
            let arow = &a[i * k..(i + 1) * k];
            let orow = &mut out[m * n..(m + 1) * n];
            for (jj, o) in orow.iter_mut().enumerate().skip(i) {
                *o = ops::lane_dot(arow, &a[jj * k..(jj + 1) * k]);
            }
        }
    }
}

/// A dense row-major `f32` matrix.
///
/// Rows correspond to nodes / samples throughout the workspace; columns to
/// feature or embedding dimensions.
///
/// Every constructor that acquires a fresh buffer (and [`Clone`]) bumps the
/// [`crate::alloc_stats`] counter; the `*_into` kernel variants and
/// [`Matrix::reset_zeroed`]/[`Matrix::copy_from`] reuse an existing buffer
/// and stay off it — that is the scratch layer's allocation-reuse contract.
#[derive(PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Clone for Matrix {
    fn clone(&self) -> Self {
        crate::alloc_stats::record();
        Self {
            rows: self.rows,
            cols: self.cols,
            data: self.data.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.rows = source.rows;
        self.cols = source.cols;
        if self.data.capacity() < source.data.len() {
            crate::alloc_stats::record();
        }
        self.data.clone_from(&source.data);
    }
}

/// An empty `0 x 0` matrix with no heap buffer. The natural seed for a
/// scratch slot: the first `reset_zeroed`/`copy_from`/`*_into` call grows it
/// (counted as an allocation), after which it is reused for free.
impl Default for Matrix {
    fn default() -> Self {
        Self {
            rows: 0,
            cols: 0,
            data: Vec::new(),
        }
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix({}x{})", self.rows, self.cols)?;
        if self.rows * self.cols <= 64 {
            for r in 0..self.rows {
                write!(f, "\n  {:?}", self.row(r))?;
            }
        }
        Ok(())
    }
}

impl Matrix {
    /// Creates a `rows x cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        crate::alloc_stats::record();
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f32) -> Self {
        crate::alloc_stats::record();
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Builds a matrix from a flat row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length {} does not match {}x{}",
            data.len(),
            rows,
            cols
        );
        crate::alloc_stats::record();
        Self { rows, cols, data }
    }

    /// Builds a matrix from nested row slices (convenient in tests).
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        crate::alloc_stats::record();
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows");
            data.extend_from_slice(row);
        }
        Self {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Reshapes in place to `rows x cols`, reusing the existing buffer when
    /// its capacity suffices (counted as a fresh allocation otherwise).
    /// Element contents afterwards are unspecified; callers overwrite them.
    fn reshape(&mut self, rows: usize, cols: usize) {
        let n = rows * cols;
        if self.data.capacity() < n {
            crate::alloc_stats::record();
        }
        self.data.resize(n, 0.0);
        self.rows = rows;
        self.cols = cols;
    }

    /// Reshapes to `rows x cols` and zeroes every element, reusing the
    /// buffer when possible. The scratch-layer replacement for
    /// [`Matrix::zeros`].
    pub fn reset_zeroed(&mut self, rows: usize, cols: usize) {
        self.reshape(rows, cols);
        self.data.fill(0.0);
    }

    /// Becomes a copy of `src`, reusing the buffer when possible. The
    /// scratch-layer replacement for [`Clone::clone`].
    pub fn copy_from(&mut self, src: &Matrix) {
        self.reshape(src.rows, src.cols);
        self.data.copy_from_slice(&src.data);
    }

    /// The identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Immutable view of the flat row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the flat row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix, returning its buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Immutable view of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        debug_assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Element access.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    /// Element assignment.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        self.data[r * self.cols + c] = v;
    }

    /// Copies `src` into row `r`.
    pub fn set_row(&mut self, r: usize, src: &[f32]) {
        assert_eq!(src.len(), self.cols);
        self.row_mut(r).copy_from_slice(src);
    }

    /// Returns a new matrix whose rows are `self`'s rows at `indices`.
    pub fn select_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(indices.len(), self.cols);
        self.select_rows_impl(indices, &mut out);
        out
    }

    /// [`Matrix::select_rows`] into a reusable output buffer (reshaped to
    /// `indices.len() x cols`, contents fully overwritten).
    pub fn select_rows_into(&self, indices: &[usize], out: &mut Matrix) {
        out.reshape(indices.len(), self.cols);
        self.select_rows_impl(indices, out);
    }

    fn select_rows_impl(&self, indices: &[usize], out: &mut Matrix) {
        for (i, &idx) in indices.iter().enumerate() {
            out.row_mut(i).copy_from_slice(self.row(idx));
        }
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        self.transpose_impl(&mut out);
        out
    }

    /// [`Matrix::transpose`] into a reusable output buffer (reshaped to
    /// `cols x rows`, contents fully overwritten).
    pub fn transpose_into(&self, out: &mut Matrix) {
        out.reshape(self.cols, self.rows);
        self.transpose_impl(out);
    }

    fn transpose_impl(&self, out: &mut Matrix) {
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
    }

    /// Dense matrix product `self * other`.
    ///
    /// Parallelised over output rows; the inner loops are laid out in the
    /// `ikj` order so the innermost loop streams both operands contiguously.
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "matmul shape mismatch: {}x{} * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.rows, other.cols);
        self.matmul_impl(other, &mut out);
        out
    }

    /// [`Matrix::matmul`] into a reusable output buffer (reshaped and
    /// zeroed; bit-identical result).
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, other.rows,
            "matmul shape mismatch: {}x{} * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        out.reset_zeroed(self.rows, other.cols);
        self.matmul_impl(other, out);
    }

    fn matmul_impl(&self, other: &Matrix, out: &mut Matrix) {
        let oc = other.cols;
        let k = self.cols;
        if out.data.is_empty() || k == 0 {
            // `out` is pre-zeroed by the callers; nothing to accumulate.
            return;
        }
        let b = &other.data;
        #[cfg(target_arch = "x86_64")]
        {
            // Selection captured once here, on the calling thread: rayon
            // workers are fresh OS threads with no thread-local override.
            let sel = crate::dispatch::current();
            if sel.path == crate::dispatch::DispatchPath::Avx2 {
                let t = sel.tiles_for(self.rows, oc);
                let cr = t.mm_mr as usize * t.grain as usize;
                out.data
                    .par_chunks_mut(cr * oc)
                    .zip(self.data.par_chunks(cr * k))
                    .for_each(|(out_chunk, a_chunk)| {
                        crate::simd::call::mm_rows(a_chunk, b, out_chunk, k, oc, t.mm_mr, t.mm_nv);
                    });
                return;
            }
        }
        out.data
            .par_chunks_mut(MR * oc)
            .zip(self.data.par_chunks(MR * k))
            .for_each(|(out_chunk, a_chunk)| {
                mm_block(a_chunk, b, out_chunk, k, oc);
            });
    }

    /// `self^T * other` without materialising the transpose.
    ///
    /// Parallelised over output rows (columns of `self`). Each output
    /// element still accumulates over input rows in ascending order, so the
    /// result is bit-identical to the serial formulation.
    pub fn transpose_matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.rows, other.rows,
            "transpose_matmul shape mismatch: {}x{} ^T * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.cols, other.cols);
        self.transpose_matmul_impl(other, &mut out);
        out
    }

    /// [`Matrix::transpose_matmul`] into a reusable output buffer (reshaped
    /// and zeroed; bit-identical result).
    pub fn transpose_matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.rows, other.rows,
            "transpose_matmul shape mismatch: {}x{} ^T * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        out.reset_zeroed(self.cols, other.cols);
        self.transpose_matmul_impl(other, out);
    }

    fn transpose_matmul_impl(&self, other: &Matrix, out: &mut Matrix) {
        let oc = other.cols;
        let sc = self.cols;
        let nrows = self.rows;
        if out.data.is_empty() {
            return;
        }
        let a = &self.data;
        let b = &other.data;
        #[cfg(target_arch = "x86_64")]
        {
            let sel = crate::dispatch::current();
            if sel.path == crate::dispatch::DispatchPath::Avx2 {
                let t = sel.tiles_for(sc, oc);
                let cr = t.mm_mr as usize * t.grain as usize;
                out.data
                    .par_chunks_mut(cr * oc)
                    .enumerate()
                    .for_each(|(tile, out_chunk)| {
                        crate::simd::call::tm_rows(
                            a,
                            b,
                            out_chunk,
                            tile * cr,
                            sc,
                            oc,
                            nrows,
                            t.mm_mr,
                            t.mm_nv,
                        );
                    });
                return;
            }
        }
        out.data
            .par_chunks_mut(MR * oc)
            .enumerate()
            .for_each(|(tile, out_chunk)| {
                tm_block(a, b, out_chunk, tile * MR, sc, oc, nrows);
            });
    }

    /// `self * other^T`, parallelised over rows of `self`.
    pub fn matmul_transpose(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.cols,
            "matmul_transpose shape mismatch: {}x{} * ({}x{})^T",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.rows, other.rows);
        self.matmul_transpose_impl(other, &mut out);
        out
    }

    /// [`Matrix::matmul_transpose`] into a reusable output buffer (reshaped,
    /// contents fully overwritten; bit-identical result).
    pub fn matmul_transpose_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, other.cols,
            "matmul_transpose shape mismatch: {}x{} * ({}x{})^T",
            self.rows, self.cols, other.rows, other.cols
        );
        out.reshape(self.rows, other.rows);
        self.matmul_transpose_impl(other, out);
    }

    fn matmul_transpose_impl(&self, other: &Matrix, out: &mut Matrix) {
        let on = other.rows;
        let k = self.cols;
        if out.data.is_empty() {
            return;
        }
        if k == 0 {
            // Empty reduction: every element is an empty lane_dot (0.0).
            // `out` may hold stale scratch contents, so overwrite explicitly.
            out.data.fill(0.0);
            return;
        }
        let b = &other.data;
        #[cfg(target_arch = "x86_64")]
        {
            let sel = crate::dispatch::current();
            if sel.path == crate::dispatch::DispatchPath::Avx2 {
                let t = sel.tiles_for(self.rows, on);
                let cr = t.dot_mr as usize * t.grain as usize;
                out.data
                    .par_chunks_mut(cr * on)
                    .zip(self.data.par_chunks(cr * k))
                    .for_each(|(out_chunk, a_chunk)| {
                        crate::simd::call::mt_rows(
                            a_chunk, b, out_chunk, k, on, t.dot_mr, t.dot_nr,
                        );
                    });
                return;
            }
        }
        out.data
            .par_chunks_mut(MR_DOT * on)
            .zip(self.data.par_chunks(MR_DOT * k))
            .for_each(|(out_chunk, a_chunk)| {
                mt_block(a_chunk, b, out_chunk, k, on);
            });
    }

    /// `self * self^T` — the Gram matrix of the rows of `self`.
    ///
    /// Bit-identical to `self.matmul_transpose(self)` but roughly half the
    /// work: only the upper triangle (including the diagonal) is computed
    /// with the dispatched lane-dot kernel ([`ops::lane_dot`] on the scalar
    /// path, [`crate::simd::model::lane_dot8`] on AVX2), then mirrored
    /// across the diagonal. The mirror is exact because `lane_dot(a, b)`
    /// and `lane_dot(b, a)` produce identical bits on either path (each
    /// partial product commutes; the summation order is the same).
    pub fn syrk(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.rows);
        self.syrk_impl(&mut out);
        out
    }

    /// [`Matrix::syrk`] into a reusable output buffer (reshaped, contents
    /// fully overwritten; bit-identical result).
    pub fn syrk_into(&self, out: &mut Matrix) {
        out.reshape(self.rows, self.rows);
        self.syrk_impl(out);
    }

    fn syrk_impl(&self, out: &mut Matrix) {
        let n = self.rows;
        let k = self.cols;
        if out.data.is_empty() {
            return;
        }
        if k == 0 {
            out.data.fill(0.0);
            return;
        }
        let a = &self.data;
        // Upper triangle (j >= i), parallel over row tiles.
        #[allow(unused_mut)] // only assigned on x86_64
        let mut done = false;
        #[cfg(target_arch = "x86_64")]
        {
            let sel = crate::dispatch::current();
            if sel.path == crate::dispatch::DispatchPath::Avx2 {
                let t = sel.tiles_for(n, n);
                let cr = t.dot_mr as usize * t.grain as usize;
                out.data
                    .par_chunks_mut(cr * n)
                    .enumerate()
                    .for_each(|(tile, out_chunk)| {
                        crate::simd::call::syrk_rows(
                            a,
                            out_chunk,
                            tile * cr,
                            k,
                            n,
                            t.dot_mr,
                            t.dot_nr,
                        );
                    });
                done = true;
            }
        }
        if !done {
            out.data
                .par_chunks_mut(MR_DOT * n)
                .enumerate()
                .for_each(|(tile, out_chunk)| {
                    syrk_block(a, out_chunk, tile * MR_DOT, k, n);
                });
        }
        // Mirror into the strict lower triangle. Serial: it is a pure copy
        // (memory bound) and keeping it single-threaded avoids any write
        // ordering question.
        for i in 1..n {
            for j in 0..i {
                out.data[i * n + j] = out.data[j * n + i];
            }
        }
    }

    /// `self += other^T`. Requires `self` to be `n x m` where `other` is
    /// `m x n`. Walked in 32x32 tiles so both operands stream through cache.
    pub fn add_transpose_assign(&mut self, other: &Matrix) {
        assert_eq!(
            (self.rows, self.cols),
            (other.cols, other.rows),
            "add_transpose_assign shape mismatch: {}x{} += ({}x{})^T",
            self.rows,
            self.cols,
            other.rows,
            other.cols
        );
        const TB: usize = 32;
        let (r, c) = (self.rows, self.cols);
        for ib in (0..r).step_by(TB) {
            for jb in (0..c).step_by(TB) {
                for i in ib..(ib + TB).min(r) {
                    let orow = &mut self.data[i * c..(i + 1) * c];
                    for (j, o) in orow.iter_mut().enumerate().take((jb + TB).min(c)).skip(jb) {
                        *o += other.data[j * other.cols + i];
                    }
                }
            }
        }
    }

    /// `self += self^T` for a square matrix. Off-diagonal pairs receive the
    /// same sum `m[i][j] + m[j][i]` on both sides, so the result is exactly
    /// symmetric; diagonal entries are doubled.
    pub fn symmetrize_additive(&mut self) {
        assert_eq!(
            self.rows, self.cols,
            "symmetrize_additive needs a square matrix, got {}x{}",
            self.rows, self.cols
        );
        let n = self.rows;
        for i in 0..n {
            self.data[i * n + i] *= 2.0;
            for j in (i + 1)..n {
                let s = self.data[i * n + j] + self.data[j * n + i];
                self.data[i * n + j] = s;
                self.data[j * n + i] = s;
            }
        }
    }

    /// Element-wise in-place addition.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!(self.shape(), other.shape());
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Element-wise in-place subtraction.
    pub fn sub_assign(&mut self, other: &Matrix) {
        assert_eq!(self.shape(), other.shape());
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a -= b;
        }
    }

    /// Element-wise sum, returning a new matrix.
    pub fn add(&self, other: &Matrix) -> Matrix {
        let mut out = self.clone();
        out.add_assign(other);
        out
    }

    /// Element-wise difference, returning a new matrix.
    pub fn sub(&self, other: &Matrix) -> Matrix {
        let mut out = self.clone();
        out.sub_assign(other);
        out
    }

    /// Element-wise product (Hadamard), in place.
    pub fn mul_assign_elem(&mut self, other: &Matrix) {
        assert_eq!(self.shape(), other.shape());
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a *= b;
        }
    }

    /// Scales every element in place.
    pub fn scale(&mut self, s: f32) {
        for a in &mut self.data {
            *a *= s;
        }
    }

    /// `self += s * other` (matrix axpy).
    pub fn axpy(&mut self, s: f32, other: &Matrix) {
        assert_eq!(self.shape(), other.shape());
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += s * b;
        }
    }

    /// Adds `bias` (length `cols`) to every row.
    pub fn add_row_broadcast(&mut self, bias: &[f32]) {
        assert_eq!(bias.len(), self.cols);
        for r in 0..self.rows {
            for (a, &b) in self.row_mut(r).iter_mut().zip(bias) {
                *a += b;
            }
        }
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for a in &mut self.data {
            *a = f(*a);
        }
    }

    /// Returns a copy with `f` applied to every element.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        let mut out = self.clone();
        out.map_inplace(f);
        out
    }

    /// L2-normalises every row in place (rows with zero norm are left as-is).
    pub fn l2_normalize_rows(&mut self) {
        for r in 0..self.rows {
            let row = self.row_mut(r);
            let norm = row.iter().map(|v| v * v).sum::<f32>().sqrt();
            if norm > 1e-12 {
                for v in row {
                    *v /= norm;
                }
            }
        }
    }

    /// Mean of each column.
    pub fn col_means(&self) -> Vec<f32> {
        let mut means = vec![0.0f32; self.cols];
        for r in 0..self.rows {
            for (m, &v) in means.iter_mut().zip(self.row(r)) {
                *m += v;
            }
        }
        let n = self.rows.max(1) as f32;
        for m in &mut means {
            *m /= n;
        }
        means
    }

    /// True if any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|v| !v.is_finite())
    }

    /// Stacks two matrices vertically.
    pub fn vstack(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "vstack column mismatch");
        let mut data = Vec::with_capacity((self.rows + other.rows) * self.cols);
        data.extend_from_slice(&self.data);
        data.extend_from_slice(&other.data);
        Matrix::from_vec(self.rows + other.rows, self.cols, data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_shape() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn identity_matmul_is_noop() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let i = Matrix::identity(2);
        assert_eq!(a.matmul(&i), a);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn transpose_matmul_matches_explicit() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let b = Matrix::from_rows(&[&[1.0, 0.5], &[-1.0, 2.0]]);
        let expect = a.transpose().matmul(&b);
        let got = a.transpose_matmul(&b);
        assert_eq!(expect, got);
    }

    #[test]
    fn matmul_transpose_matches_explicit() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[0.0, -1.0]]);
        let b = Matrix::from_rows(&[&[1.0, 1.0], &[2.0, 0.0]]);
        let expect = a.matmul(&b.transpose());
        let got = a.matmul_transpose(&b);
        assert_eq!(expect, got);
    }

    #[test]
    fn row_ops() {
        let mut m = Matrix::zeros(2, 3);
        m.set_row(1, &[1.0, 2.0, 3.0]);
        assert_eq!(m.row(1), &[1.0, 2.0, 3.0]);
        assert_eq!(m.row(0), &[0.0, 0.0, 0.0]);
        m.add_row_broadcast(&[1.0, 1.0, 1.0]);
        assert_eq!(m.row(0), &[1.0, 1.0, 1.0]);
    }

    #[test]
    fn select_rows_picks_in_order() {
        let m = Matrix::from_rows(&[&[0.0], &[1.0], &[2.0], &[3.0]]);
        let s = m.select_rows(&[3, 1]);
        assert_eq!(s, Matrix::from_rows(&[&[3.0], &[1.0]]));
    }

    #[test]
    fn l2_normalize_rows_unit_norm() {
        let mut m = Matrix::from_rows(&[&[3.0, 4.0], &[0.0, 0.0]]);
        m.l2_normalize_rows();
        assert!((m.get(0, 0) - 0.6).abs() < 1e-6);
        assert!((m.get(0, 1) - 0.8).abs() < 1e-6);
        assert_eq!(m.row(1), &[0.0, 0.0]); // zero row untouched
    }

    #[test]
    fn stack_shapes() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(1, 3);
        assert_eq!(a.vstack(&b).shape(), (3, 3));
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn into_variants_match_allocating_kernels_bitwise() {
        let mut rng_state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            rng_state = rng_state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((rng_state >> 33) as f32 / (1u64 << 31) as f32) - 0.5
        };
        let a = Matrix::from_vec(17, 9, (0..17 * 9).map(|_| next()).collect());
        let b = Matrix::from_vec(9, 13, (0..9 * 13).map(|_| next()).collect());
        let c = Matrix::from_vec(17, 13, (0..17 * 13).map(|_| next()).collect());

        // Deliberately mis-shaped, dirty scratch: every kernel must reshape
        // and fully define its output.
        let mut out = Matrix::filled(2, 3, f32::NAN);
        a.matmul_into(&b, &mut out);
        assert_eq!(out, a.matmul(&b));

        a.transpose_matmul_into(&c, &mut out);
        assert_eq!(out, a.transpose_matmul(&c));

        a.matmul_transpose_into(&a, &mut out);
        assert_eq!(out, a.matmul_transpose(&a));

        a.transpose_into(&mut out);
        assert_eq!(out, a.transpose());
    }

    #[test]
    fn transpose_matmul_parallel_matches_explicit_transpose() {
        // Large enough to cross the rayon stand-in's parallel threshold.
        let n = 300;
        let a = Matrix::from_vec(n, 7, (0..n * 7).map(|i| (i as f32).sin()).collect());
        let b = Matrix::from_vec(n, 5, (0..n * 5).map(|i| (i as f32).cos()).collect());
        let got = a.transpose_matmul(&b);
        let expect = a.transpose().matmul(&b);
        assert_eq!(got, expect);
    }

    #[test]
    fn reset_and_copy_reuse_buffers() {
        let src = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let mut m = Matrix::filled(4, 4, 7.0);
        m.reset_zeroed(3, 2);
        assert_eq!(m, Matrix::zeros(3, 2));
        m.copy_from(&src);
        assert_eq!(m, src);
    }

    #[test]
    fn axpy_and_scale() {
        let mut a = Matrix::filled(2, 2, 1.0);
        let b = Matrix::filled(2, 2, 2.0);
        a.axpy(0.5, &b);
        assert_eq!(a, Matrix::filled(2, 2, 2.0));
        a.scale(0.25);
        assert_eq!(a, Matrix::filled(2, 2, 0.5));
    }

    #[test]
    fn frobenius_norm_known() {
        let a = Matrix::from_rows(&[&[3.0, 0.0], &[0.0, 4.0]]);
        assert!((a.frobenius_norm() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn col_means_known() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(a.col_means(), vec![2.0, 3.0]);
    }

    /// The old inner loops skipped `a == 0.0` entries, silently dropping
    /// `0.0 * NaN` products; all three kernels must propagate NaN even
    /// through exact-zero operand entries.
    #[test]
    fn nan_propagates_even_through_zero_entries() {
        // matmul: a[1][2] = 0.0 pairs with b[2][3] = NaN in out[1][3].
        let mut a = Matrix::filled(3, 4, 1.0);
        a.set(1, 2, 0.0);
        let mut b = Matrix::filled(4, 5, 1.0);
        b.set(2, 3, f32::NAN);
        let out = a.matmul(&b);
        assert!(out.get(1, 3).is_nan(), "matmul dropped 0*NaN");
        assert!(out.get(0, 3).is_nan());
        assert!(!out.get(1, 2).is_nan());

        // transpose_matmul: a[2][1] = 0.0 pairs with b[2][3] = NaN in
        // out[1][3] (reduction over input rows).
        let mut a = Matrix::filled(4, 3, 1.0);
        a.set(2, 1, 0.0);
        let mut b = Matrix::filled(4, 5, 1.0);
        b.set(2, 3, f32::NAN);
        let out = a.transpose_matmul(&b);
        assert!(out.get(1, 3).is_nan(), "transpose_matmul dropped 0*NaN");
        assert!(out.get(0, 3).is_nan());
        assert!(!out.get(1, 2).is_nan());

        // matmul_transpose: a[1][2] = 0.0 pairs with b[0][2] = NaN.
        let mut a = Matrix::filled(3, 4, 1.0);
        a.set(1, 2, 0.0);
        let mut b = Matrix::filled(2, 4, 1.0);
        b.set(0, 2, f32::NAN);
        let out = a.matmul_transpose(&b);
        assert!(out.get(1, 0).is_nan(), "matmul_transpose dropped 0*NaN");
        assert!(out.get(0, 0).is_nan());
        assert!(!out.get(1, 1).is_nan());
    }

    /// `syrk` must be bit-identical to the full `matmul_transpose(self)`
    /// (that is the mirror-across-the-diagonal contract), at shapes hitting
    /// the tile path, the remainder row, and the lane tail.
    #[test]
    fn syrk_matches_matmul_transpose_bitwise() {
        for (n, k) in [(1, 1), (2, 4), (5, 3), (8, 9), (13, 7), (17, 16)] {
            let a = Matrix::from_vec(n, k, (0..n * k).map(|i| (i as f32 * 0.7).sin()).collect());
            let full = a.matmul_transpose(&a);
            let half = a.syrk();
            for (x, y) in half.as_slice().iter().zip(full.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits(), "syrk mismatch at n={n} k={k}");
            }
            // Warm reuse through a dirty scratch buffer.
            let mut out = Matrix::filled(1, 3, f32::NAN);
            a.syrk_into(&mut out);
            assert_eq!(out, full);
        }
    }

    #[test]
    fn add_transpose_assign_known() {
        let mut m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let other = Matrix::from_rows(&[&[10.0, 40.0], &[20.0, 50.0], &[30.0, 60.0]]);
        m.add_transpose_assign(&other);
        assert_eq!(
            m,
            Matrix::from_rows(&[&[11.0, 22.0, 33.0], &[44.0, 55.0, 66.0]])
        );
    }

    #[test]
    fn symmetrize_additive_known() {
        let mut m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        m.symmetrize_additive();
        assert_eq!(m, Matrix::from_rows(&[&[2.0, 5.0], &[5.0, 8.0]]));
    }
}
