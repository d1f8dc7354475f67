//! CSR sparse matrix with `f32` values, used for the normalised adjacency.

use e2gcl_linalg::Matrix;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// A sparse `f32` matrix in compressed-sparse-row form.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SparseMatrix {
    rows: usize,
    cols: usize,
    offsets: Vec<usize>,
    col_indices: Vec<u32>,
    values: Vec<f32>,
}

impl SparseMatrix {
    /// Builds from COO triplets; duplicates within a row are summed.
    ///
    /// Counting sort over rows: one pass sizes every row, a prefix sum
    /// turns the counts into placement cursors, and a second pass scatters
    /// the entries into a single flat buffer — replacing the previous
    /// `Vec<Vec<(u32, f32)>>` staging area (one heap allocation per row).
    /// Within a row, entries land in input order (the scatter is stable),
    /// then the same `sort_unstable_by_key` + duplicate fold as before runs
    /// on the row slice, so the result is bit-identical to the old builder.
    pub fn from_triplets(rows: usize, cols: usize, triplets: &[(usize, usize, f32)]) -> Self {
        // Counts accumulate at next[r+1]; the prefix sum turns next[r] into
        // row r's start offset; the scatter advances next[r] to row r's end.
        let mut next = vec![0usize; rows + 1];
        for &(r, c, _) in triplets {
            assert!(r < rows && c < cols, "triplet ({r},{c}) out of range");
            next[r + 1] += 1;
        }
        for r in 1..=rows {
            next[r] += next[r - 1];
        }
        let mut entries: Vec<(u32, f32)> = vec![(0, 0.0); triplets.len()];
        for &(r, c, v) in triplets {
            entries[next[r]] = (c as u32, v);
            next[r] += 1;
        }
        // After the scatter, next[r] is the end of row r (= start of row
        // r+1), so row r spans entries[prev_end..next[r]].
        let mut offsets = Vec::with_capacity(rows + 1);
        offsets.push(0);
        let mut col_indices = Vec::with_capacity(triplets.len());
        let mut values = Vec::with_capacity(triplets.len());
        let mut start = 0usize;
        for &end in next.iter().take(rows) {
            let row = &mut entries[start..end];
            start = end;
            row.sort_unstable_by_key(|&(c, _)| c);
            let mut i = 0;
            while i < row.len() {
                let c = row[i].0;
                let mut v = row[i].1;
                let mut j = i + 1;
                while j < row.len() && row[j].0 == c {
                    v += row[j].1;
                    j += 1;
                }
                col_indices.push(c);
                values.push(v);
                i = j;
            }
            offsets.push(col_indices.len());
        }
        Self {
            rows,
            cols,
            offsets,
            col_indices,
            values,
        }
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

    /// Number of stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// `(column, value)` pairs of row `r`.
    pub fn row_entries(&self, r: usize) -> impl Iterator<Item = (usize, f32)> + '_ {
        let lo = self.offsets[r];
        let hi = self.offsets[r + 1];
        self.col_indices[lo..hi]
            .iter()
            .zip(&self.values[lo..hi])
            .map(|(&c, &v)| (c as usize, v))
    }

    /// Sum of row `r`'s values.
    pub fn row_sum(&self, r: usize) -> f32 {
        let lo = self.offsets[r];
        let hi = self.offsets[r + 1];
        self.values[lo..hi].iter().sum()
    }

    /// Sparse × dense product `self * x`, parallelised over output rows.
    ///
    /// This is the hot kernel behind `A_n^L X` (Theorem 1) and every GCN
    /// layer forward/backward pass.
    pub fn spmm(&self, x: &Matrix) -> Matrix {
        assert_eq!(self.cols, x.rows(), "spmm shape mismatch");
        let mut out = Matrix::zeros(self.rows, x.cols());
        self.spmm_impl(x, &mut out);
        out
    }

    /// [`SparseMatrix::spmm`] into a reusable output buffer (reshaped and
    /// zeroed; bit-identical result). The scratch-layer entry point used by
    /// the GCN forward/backward hot path so steady-state epochs allocate no
    /// new matrices here.
    pub fn spmm_into(&self, x: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, x.rows(), "spmm shape mismatch");
        out.reset_zeroed(self.rows, x.cols());
        self.spmm_impl(x, out);
    }

    fn spmm_impl(&self, x: &Matrix, out: &mut Matrix) {
        // Dense-column panel width: PANEL accumulators stay in registers
        // across all of a row's nonzeros instead of re-streaming the output
        // row once per nonzero. Each output element still accumulates over
        // the row's entries in ascending order with a single accumulator,
        // so the result is bit-identical to the naive loop.
        const PANEL: usize = 8;
        let d = x.cols();
        if out.as_mut_slice().is_empty() {
            return;
        }
        let xs = x.as_slice();
        #[cfg(target_arch = "x86_64")]
        {
            // Path captured on the calling thread (rayon workers are fresh
            // OS threads with no thread-local dispatch override).
            let path = e2gcl_linalg::dispatch::current_path();
            if path == e2gcl_linalg::DispatchPath::Avx2 {
                let grain = path.spmm_grain();
                out.as_mut_slice()
                    .par_chunks_mut(grain * d)
                    .enumerate()
                    .for_each(|(ci, chunk)| {
                        for (i, out_row) in chunk.chunks_mut(d).enumerate() {
                            let r = ci * grain + i;
                            let lo = self.offsets[r];
                            let hi = self.offsets[r + 1];
                            e2gcl_linalg::simd::call::spmm_row(
                                &self.col_indices[lo..hi],
                                &self.values[lo..hi],
                                xs,
                                d,
                                out_row,
                            );
                        }
                    });
                return;
            }
        }
        out.as_mut_slice()
            .par_chunks_mut(d)
            .enumerate()
            .for_each(|(r, out_row)| {
                let lo = self.offsets[r];
                let hi = self.offsets[r + 1];
                let cols = &self.col_indices[lo..hi];
                let vals = &self.values[lo..hi];
                let d_main = d - d % PANEL;
                let mut j = 0;
                while j < d_main {
                    let mut acc = [0.0f32; PANEL];
                    for (&c, &v) in cols.iter().zip(vals) {
                        let xp = &xs[c as usize * d + j..c as usize * d + j + PANEL];
                        for (s, &xv) in acc.iter_mut().zip(xp) {
                            *s += v * xv;
                        }
                    }
                    out_row[j..j + PANEL].copy_from_slice(&acc);
                    j += PANEL;
                }
                if d_main < d {
                    let tail = &mut out_row[d_main..];
                    for (&c, &v) in cols.iter().zip(vals) {
                        let xp = &xs[c as usize * d + d_main..(c as usize + 1) * d];
                        for (o, &xv) in tail.iter_mut().zip(xp) {
                            *o += v * xv;
                        }
                    }
                }
            });
    }

    /// Applies `self` `power` times: `self^power * x`.
    pub fn spmm_power(&self, x: &Matrix, power: usize) -> Matrix {
        assert_eq!(self.rows, self.cols, "spmm_power needs a square matrix");
        let mut cur = x.clone();
        for _ in 0..power {
            cur = self.spmm(&cur);
        }
        cur
    }

    /// Transposed copy.
    pub fn transpose(&self) -> SparseMatrix {
        let mut triplets = Vec::with_capacity(self.nnz());
        for r in 0..self.rows {
            for (c, v) in self.row_entries(r) {
                triplets.push((c, r, v));
            }
        }
        SparseMatrix::from_triplets(self.cols, self.rows, &triplets)
    }

    /// Densifies (tests / small graphs only).
    pub fn to_dense(&self) -> Matrix {
        let mut m = Matrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            for (c, v) in self.row_entries(r) {
                m.set(r, c, m.get(r, c) + v);
            }
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triplets_dedupe_by_sum() {
        let m = SparseMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (0, 0, 2.0), (1, 1, 5.0)]);
        assert_eq!(m.nnz(), 2);
        assert_eq!(m.to_dense().get(0, 0), 3.0);
    }

    #[test]
    fn spmm_matches_dense() {
        let s = SparseMatrix::from_triplets(
            3,
            3,
            &[(0, 1, 2.0), (1, 0, -1.0), (1, 2, 0.5), (2, 2, 3.0)],
        );
        let x = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]);
        let got = s.spmm(&x);
        let expect = s.to_dense().matmul(&x);
        assert_eq!(got, expect);
    }

    #[test]
    fn spmm_into_reuses_scratch_and_matches() {
        let s = SparseMatrix::from_triplets(
            3,
            3,
            &[(0, 1, 2.0), (1, 0, -1.0), (1, 2, 0.5), (2, 2, 3.0)],
        );
        let x = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]);
        // Dirty, mis-shaped scratch must be reshaped and fully redefined.
        let mut out = Matrix::filled(1, 5, f32::NAN);
        s.spmm_into(&x, &mut out);
        assert_eq!(out, s.spmm(&x));
        // Second call with warm scratch is identical.
        s.spmm_into(&x, &mut out);
        assert_eq!(out, s.spmm(&x));
    }

    #[test]
    fn spmm_power_is_repeated_spmm() {
        let s = SparseMatrix::from_triplets(2, 2, &[(0, 1, 1.0), (1, 0, 1.0)]);
        let x = Matrix::from_rows(&[&[1.0], &[2.0]]);
        let p2 = s.spmm_power(&x, 2);
        assert_eq!(p2, x); // swap twice = identity
        let p0 = s.spmm_power(&x, 0);
        assert_eq!(p0, x);
    }

    #[test]
    fn transpose_roundtrip() {
        let s = SparseMatrix::from_triplets(2, 3, &[(0, 2, 1.0), (1, 0, 2.0)]);
        let t = s.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.cols(), 2);
        assert_eq!(t.transpose(), s);
    }

    /// The counting-sort builder must match a naive per-row reference
    /// exactly, including duplicate-sum order, on scattered input with
    /// duplicates, empty rows, and unsorted columns.
    #[test]
    fn counting_sort_builder_matches_reference() {
        let rows = 7;
        let cols = 5;
        // Deterministic scatter with duplicates (incl. a triple) and rows
        // 2 and 5 left empty.
        let triplets: Vec<(usize, usize, f32)> = vec![
            (4, 3, 0.5),
            (0, 4, 1.0),
            (6, 0, -2.0),
            (0, 1, 3.0),
            (4, 3, 0.25),
            (1, 2, 7.0),
            (0, 4, -0.125),
            (3, 0, 1.5),
            (4, 3, 0.125),
            (6, 4, 2.5),
            (1, 0, -1.0),
            (3, 2, 0.75),
        ];
        let got = SparseMatrix::from_triplets(rows, cols, &triplets);
        // Naive reference: the pre-counting-sort construction.
        let mut per_row: Vec<Vec<(u32, f32)>> = vec![Vec::new(); rows];
        for &(r, c, v) in &triplets {
            per_row[r].push((c as u32, v));
        }
        let mut offsets = vec![0usize];
        let mut col_indices = Vec::new();
        let mut values = Vec::new();
        for row in &mut per_row {
            row.sort_unstable_by_key(|&(c, _)| c);
            let mut i = 0;
            while i < row.len() {
                let c = row[i].0;
                let mut v = row[i].1;
                let mut j = i + 1;
                while j < row.len() && row[j].0 == c {
                    v += row[j].1;
                    j += 1;
                }
                col_indices.push(c);
                values.push(v);
                i = j;
            }
            offsets.push(col_indices.len());
        }
        assert_eq!(got.offsets, offsets);
        assert_eq!(got.col_indices, col_indices);
        for (a, b) in got.values.iter().zip(&values) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn row_sum_and_entries() {
        let s = SparseMatrix::from_triplets(1, 4, &[(0, 1, 0.25), (0, 3, 0.75)]);
        assert!((s.row_sum(0) - 1.0).abs() < 1e-6);
        let entries: Vec<_> = s.row_entries(0).collect();
        assert_eq!(entries, vec![(1, 0.25), (3, 0.75)]);
    }
}
