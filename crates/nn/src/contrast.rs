//! Pluggable contrastive-loss strategies: the O(n²) full InfoNCE and two
//! sub-quadratic alternatives behind one [`ContrastiveLoss`] trait.
//!
//! * [`FullInfoNce`] — the existing fused [`loss::info_nce_with`] kernel,
//!   unchanged numerics (golden fingerprints stay valid);
//! * [`SmallNegInfoNce`] — anchors score against a fixed set of `k`
//!   representative negative rows ("Does GCL Need a Large Number of
//!   Negative Samples?" / E2Neg): O(n·k) similarity work and memory,
//!   computed by the same blocked GEMM kernels as the full loss;
//! * [`LocalizedInfoNce`] — negatives restricted to each anchor's CSR
//!   L-hop neighbourhood ("Localized Contrastive Learning on Graphs"):
//!   a CSR-driven sparse softmax, O(nnz·d) with nnz the total
//!   neighbourhood size, and no dense n×n block anywhere.
//!
//! # Determinism contract
//!
//! All three kernels are bit-identical run-to-run and across
//! `RAYON_NUM_THREADS`:
//!
//! * every similarity is the *dispatched* lane-dot kernel
//!   ([`e2gcl_linalg::dispatch`]: [`ops::lane_dot`] on the scalar path,
//!   its 8-lane fused analogue on AVX2) — directly, or via the blocked
//!   [`Matrix::matmul_transpose_into`] whose element-level contract *is*
//!   that kernel, so bits are identical within a dispatch config;
//! * parallel passes own disjoint rows/slices and read only shared
//!   inputs, so any interleaving produces the same bits;
//! * every cross-row reduction (loss sums, gradient scatters into
//!   negative rows) runs serially in a fixed documented order — anchors
//!   ascending, side 1 before side 2, negative slots ascending.
//!
//! See `DESIGN.md` §15 for the full contract and complexity table.

use crate::loss::{self, InfoNceScratch};
use e2gcl_graph::CsrGraph;
use e2gcl_linalg::{ops, Matrix};
use rayon::prelude::*;

/// One fused forward+backward contrastive objective over two row-aligned
/// views. Strategies carry their own scratch: `compute` allocates nothing
/// once warm, and the gradients of the *last* `compute` are readable via
/// [`d_z1`](Self::d_z1)/[`d_z2`](Self::d_z2).
pub trait ContrastiveLoss {
    /// Stable kernel name for logs and benches (`"full"`, `"smallneg"`,
    /// `"localized"`).
    fn name(&self) -> &'static str;

    /// Fused loss over the two views' embeddings (`n×d`, row-aligned
    /// positives). Returns the mean loss over the strategy's anchor terms.
    fn compute(&mut self, z1: &Matrix, z2: &Matrix) -> f32;

    /// `∂L/∂z1` from the last [`compute`](Self::compute).
    fn d_z1(&self) -> &Matrix;

    /// `∂L/∂z2` from the last [`compute`](Self::compute).
    fn d_z2(&self) -> &Matrix;
}

/// The full O(n²) symmetric NT-Xent, wrapping [`loss::info_nce_with`].
#[derive(Debug, Default)]
pub struct FullInfoNce {
    tau: f32,
    s: InfoNceScratch,
}

impl FullInfoNce {
    /// A full-loss strategy at temperature `tau`.
    pub fn new(tau: f32) -> Self {
        FullInfoNce {
            tau,
            s: InfoNceScratch::default(),
        }
    }
}

impl ContrastiveLoss for FullInfoNce {
    fn name(&self) -> &'static str {
        "full"
    }

    fn compute(&mut self, z1: &Matrix, z2: &Matrix) -> f32 {
        // The scratch re-shapes to whatever shape each call brings.
        loss::info_nce_with(z1, z2, self.tau, &mut self.s)
    }

    fn d_z1(&self) -> &Matrix {
        self.s.d_z1()
    }

    fn d_z2(&self) -> &Matrix {
        self.s.d_z2()
    }
}

/// Reusable buffers for [`small_neg_info_nce_with`]: normalised views, the
/// gathered `k×d` negative blocks, four `n×k` similarity/coefficient
/// blocks, per-anchor positive/loss/coefficient vectors and the gradient
/// chain.
#[derive(Debug, Default)]
pub struct SmallNegScratch {
    u1: Matrix,
    u2: Matrix,
    n1: Vec<f32>,
    n2: Vec<f32>,
    neg1: Matrix,
    neg2: Matrix,
    s12: Matrix,
    s11: Matrix,
    s21: Matrix,
    s22: Matrix,
    pos: Vec<f32>,
    slot_of: Vec<u32>,
    loss1: Vec<f32>,
    loss2: Vec<f32>,
    cpos1: Vec<f32>,
    cpos2: Vec<f32>,
    du1: Matrix,
    du2: Matrix,
    gtmp: Matrix,
    sc1: Matrix,
    sc2: Matrix,
    sctmp: Matrix,
    d_z1: Matrix,
    d_z2: Matrix,
}

impl SmallNegScratch {
    /// `∂L/∂z1` from the last [`small_neg_info_nce_with`].
    pub fn d_z1(&self) -> &Matrix {
        &self.d_z1
    }

    /// `∂L/∂z2` from the last [`small_neg_info_nce_with`].
    pub fn d_z2(&self) -> &Matrix {
        &self.d_z2
    }
}

/// Per-side inputs for the small-negative-set softmax row pass.
struct SideCtx<'a> {
    pos: &'a [f32],
    slot_of: &'a [u32],
    scale: f32,
    g_unit: f32,
}

/// One NT-Xent side over a small negative set, parallel over anchor rows.
///
/// Consumes the `1/tau`-scaled `n×k` similarity blocks in place, replacing
/// them with gradient coefficients `g_unit·p` (softmax probabilities `p`
/// over anchor `i`'s `2k+1−dup` terms). Where the anchor itself is in the
/// negative set (`slot_of[i] != MAX`), its inter slot duplicates the
/// positive and its intra slot is the self-similarity — both are excluded
/// and their coefficients zeroed. `row_loss[i]` gets the anchor's scaled
/// loss term and `cpos[i]` the positive's coefficient
/// `g_unit·(p_pos − 1)`. Rows are independent, so the pass is trivially
/// thread-count invariant.
fn small_neg_rows(
    s_ab: &mut Matrix,
    s_aa: &mut Matrix,
    cx: &SideCtx<'_>,
    row_loss: &mut [f32],
    cpos: &mut [f32],
) {
    let k = s_ab.cols();
    let (scale, g_unit) = (cx.scale, cx.g_unit);
    let (pos, slot_of) = (cx.pos, cx.slot_of);
    s_ab.as_mut_slice()
        .par_chunks_mut(k)
        .zip(s_aa.as_mut_slice().par_chunks_mut(k))
        .zip(row_loss.par_iter_mut())
        .zip(cpos.par_iter_mut())
        .enumerate()
        .for_each(|(i, (((ab, aa), l), c))| {
            let self_slot = slot_of[i] as usize;
            let p = pos[i];
            // Log-sum-exp over {positive} ∪ inter ∪ intra, stabilised by
            // the row max (self slots excluded).
            let mut mx = p;
            for (j, &v) in ab.iter().enumerate() {
                if j != self_slot {
                    mx = mx.max(v);
                }
            }
            for (j, &v) in aa.iter().enumerate() {
                if j != self_slot {
                    mx = mx.max(v);
                }
            }
            let e_pos = (p - mx).exp();
            let mut denom = e_pos;
            for (j, v) in ab.iter_mut().enumerate() {
                if j == self_slot {
                    *v = 0.0;
                } else {
                    *v = (*v - mx).exp();
                    denom += *v;
                }
            }
            for (j, v) in aa.iter_mut().enumerate() {
                if j == self_slot {
                    *v = 0.0;
                } else {
                    *v = (*v - mx).exp();
                    denom += *v;
                }
            }
            *l = (mx + denom.ln() - p) * scale;
            let gd = g_unit / denom;
            for v in ab.iter_mut() {
                *v *= gd;
            }
            for v in aa.iter_mut() {
                *v *= gd;
            }
            *c = e_pos * gd - g_unit;
        });
}

/// Small-negative-set symmetric InfoNCE: every anchor contrasts its
/// positive against the `k` rows listed in `negatives` (taken from both
/// views), instead of against all `n` rows. O(n·k·d) compute, O(n·k)
/// memory. Loss is still normalised by `2n` anchors, so with `negatives`
/// covering every row this is mathematically the full objective.
///
/// `negatives` must be strictly ascending and in range. An anchor that is
/// itself a negative is excluded from its own denominator (the positive is
/// counted exactly once, the self intra-view similarity never).
///
/// This always runs the general O(n·k) kernel; [`SmallNegInfoNce`]
/// additionally dispatches the all-rows case to the bitwise-identical full
/// kernel.
pub fn small_neg_info_nce_with(
    z1: &Matrix,
    z2: &Matrix,
    tau: f32,
    negatives: &[usize],
    s: &mut SmallNegScratch,
) -> f32 {
    let n = z1.rows();
    let d = z1.cols();
    assert_eq!(z2.rows(), n);
    assert_eq!(z2.cols(), d);
    assert!(
        !negatives.is_empty(),
        "small-neg InfoNCE needs >= 1 negative"
    );
    assert!(
        negatives.windows(2).all(|w| w[0] < w[1]),
        "negatives must be strictly ascending"
    );
    let last = *negatives.last().expect("nonempty negatives");
    assert!(last < n, "negative index {last} out of range for {n} rows");
    let inv_tau = 1.0 / tau;

    loss::normalize_rows_into(z1, &mut s.u1, &mut s.n1);
    loss::normalize_rows_into(z2, &mut s.u2, &mut s.n2);

    // Gather the negative rows once; the four n×k similarity blocks are
    // then plain blocked GEMMs whose elements are `lane_dot`s.
    s.u1.select_rows_into(negatives, &mut s.neg1);
    s.u2.select_rows_into(negatives, &mut s.neg2);
    s.u1.matmul_transpose_into(&s.neg2, &mut s.s12); // u1_i · u2_{M[m]}
    s.u1.matmul_transpose_into(&s.neg1, &mut s.s11); // u1_i · u1_{M[m]}
    s.u2.matmul_transpose_into(&s.neg1, &mut s.s21); // u2_i · u1_{M[m]}
    s.u2.matmul_transpose_into(&s.neg2, &mut s.s22); // u2_i · u2_{M[m]}
    s.s12.scale(inv_tau);
    s.s11.scale(inv_tau);
    s.s21.scale(inv_tau);
    s.s22.scale(inv_tau);

    // Positive similarities as an n-vector (the diagonal the full kernel
    // reads from its n×n block). lane_dot is commutative bitwise, so one
    // vector serves both sides.
    s.pos.clear();
    s.pos.resize(n, 0.0);
    {
        let (pos, u1, u2) = (&mut s.pos, &s.u1, &s.u2);
        // Dispatch path captured on the calling thread: the similarities
        // here must be bit-identical to the matmul_transpose elements
        // above, and rayon workers don't inherit a thread-local override.
        let kpath = e2gcl_linalg::dispatch::current_path();
        pos.par_iter_mut().enumerate().for_each(|(i, p)| {
            *p = kpath.lane_dot(u1.row(i), u2.row(i)) * inv_tau;
        });
    }
    // Anchor row -> its slot in the negative set (u32::MAX when absent).
    s.slot_of.clear();
    s.slot_of.resize(n, u32::MAX);
    for (slot, &m) in negatives.iter().enumerate() {
        s.slot_of[m] = slot as u32;
    }

    let scale = 1.0 / (2 * n) as f32;
    let cx = SideCtx {
        pos: &s.pos,
        slot_of: &s.slot_of,
        scale,
        g_unit: scale * inv_tau,
    };
    s.loss1.clear();
    s.loss1.resize(n, 0.0);
    s.loss2.clear();
    s.loss2.resize(n, 0.0);
    s.cpos1.clear();
    s.cpos1.resize(n, 0.0);
    s.cpos2.clear();
    s.cpos2.resize(n, 0.0);
    small_neg_rows(&mut s.s12, &mut s.s11, &cx, &mut s.loss1, &mut s.cpos1);
    small_neg_rows(&mut s.s21, &mut s.s22, &cx, &mut s.loss2, &mut s.cpos2);
    // Per-anchor terms summed serially in a fixed order (side 1 rows
    // ascending, then side 2), independent of the thread count.
    let mut loss = 0.0f64;
    for &l in &s.loss1 {
        loss += f64::from(l);
    }
    for &l in &s.loss2 {
        loss += f64::from(l);
    }

    // Anchor-side gradients: four n×k · k×d GEMMs plus the row-owned
    // positive terms.
    s.s12.matmul_into(&s.neg2, &mut s.du1); // du1 = G12·N2 ...
    s.s11.matmul_into(&s.neg1, &mut s.gtmp);
    s.du1.add_assign(&s.gtmp); // ... + G11·N1
    s.s21.matmul_into(&s.neg1, &mut s.du2); // du2 = G21·N1 ...
    s.s22.matmul_into(&s.neg2, &mut s.gtmp);
    s.du2.add_assign(&s.gtmp); // ... + G22·N2
    {
        let (du1, du2) = (&mut s.du1, &mut s.du2);
        let (u1, u2) = (&s.u1, &s.u2);
        let (c1, c2) = (&s.cpos1, &s.cpos2);
        du1.as_mut_slice()
            .par_chunks_mut(d)
            .enumerate()
            .for_each(|(i, row)| ops::axpy_slice(row, c1[i] + c2[i], u2.row(i)));
        du2.as_mut_slice()
            .par_chunks_mut(d)
            .enumerate()
            .for_each(|(i, row)| ops::axpy_slice(row, c1[i] + c2[i], u1.row(i)));
    }
    // Negative-side gradients: k×d blocks via transposed GEMMs, scattered
    // serially into the negative rows in slot order (fixed order — the
    // only cross-row reduction outside the blocked kernels).
    s.s11.transpose_matmul_into(&s.u1, &mut s.sc1); // d/dN1 = G11ᵀ·u1 ...
    s.s21.transpose_matmul_into(&s.u2, &mut s.sctmp);
    s.sc1.add_assign(&s.sctmp); // ... + G21ᵀ·u2
    s.s12.transpose_matmul_into(&s.u1, &mut s.sc2); // d/dN2 = G12ᵀ·u1 ...
    s.s22.transpose_matmul_into(&s.u2, &mut s.sctmp);
    s.sc2.add_assign(&s.sctmp); // ... + G22ᵀ·u2
    {
        let (du1, du2) = (&mut s.du1, &mut s.du2);
        let (sc1, sc2) = (&s.sc1, &s.sc2);
        for (slot, &m) in negatives.iter().enumerate() {
            ops::axpy_slice(du1.row_mut(m), 1.0, sc1.row(slot));
            ops::axpy_slice(du2.row_mut(m), 1.0, sc2.row(slot));
        }
    }

    loss::normalize_backward_into(&s.u1, &s.n1, &s.du1, &mut s.d_z1);
    loss::normalize_backward_into(&s.u2, &s.n2, &s.du2, &mut s.d_z2);
    loss as f32
}

/// Small-negative-set strategy: negatives are set per epoch (e.g. from
/// `GreedySelector::select_from_aggregate`) and every anchor contrasts
/// against that fixed set.
///
/// When the negative set covers *every* row (`k == n`), the objective is
/// the full symmetric InfoNCE, so `compute` dispatches to the full
/// [`loss::info_nce_with`] kernel — bitwise-identical to [`FullInfoNce`],
/// the same degenerate-dispatch pattern `MinibatchConfig::is_full_batch`
/// uses for full-batch mini-batching.
#[derive(Debug, Default)]
pub struct SmallNegInfoNce {
    tau: f32,
    negatives: Vec<usize>,
    s: SmallNegScratch,
    full: InfoNceScratch,
    used_full: bool,
}

impl SmallNegInfoNce {
    /// A small-negative-set strategy at temperature `tau`. Call
    /// [`set_negatives`](Self::set_negatives) before the first `compute`.
    pub fn new(tau: f32) -> Self {
        SmallNegInfoNce {
            tau,
            ..SmallNegInfoNce::default()
        }
    }

    /// Replaces the negative set. Indices are sorted and deduplicated here
    /// so the kernel's slot order (and therefore its scatter order) is a
    /// function of the *set*, not of the selection order.
    pub fn set_negatives(&mut self, negatives: &[usize]) {
        self.negatives.clear();
        self.negatives.extend_from_slice(negatives);
        self.negatives.sort_unstable();
        self.negatives.dedup();
    }

    /// The current (sorted, deduplicated) negative set.
    pub fn negatives(&self) -> &[usize] {
        &self.negatives
    }
}

impl ContrastiveLoss for SmallNegInfoNce {
    fn name(&self) -> &'static str {
        "smallneg"
    }

    fn compute(&mut self, z1: &Matrix, z2: &Matrix) -> f32 {
        let n = z1.rows();
        // Degenerate dispatch: a sorted deduplicated in-range set of size n
        // is exactly 0..n, i.e. the full objective. (The full kernel
        // asserts n >= 2; n == 1 stays on the general path, where the lone
        // anchor has no negatives and contributes zero loss and gradient.)
        if n >= 2 && self.negatives.len() == n {
            self.used_full = true;
            return loss::info_nce_with(z1, z2, self.tau, &mut self.full);
        }
        self.used_full = false;
        small_neg_info_nce_with(z1, z2, self.tau, &self.negatives, &mut self.s)
    }

    fn d_z1(&self) -> &Matrix {
        if self.used_full {
            self.full.d_z1()
        } else {
            self.s.d_z1()
        }
    }

    fn d_z2(&self) -> &Matrix {
        if self.used_full {
            self.full.d_z2()
        } else {
            self.s.d_z2()
        }
    }
}

/// Flat CSR of per-node L-hop neighbourhoods (sorted ascending, self
/// excluded) — the negative-candidate topology of [`LocalizedInfoNce`].
#[derive(Clone, Debug, Default)]
pub struct Neighborhoods {
    n: usize,
    offsets: Vec<usize>,
    cols: Vec<u32>,
}

impl Neighborhoods {
    /// Builds the L-hop neighbourhood lists of `g`. `hops == 1` reuses the
    /// CSR adjacency directly (sorted, self-loop-free by the graph's
    /// invariants); `hops >= 2` runs one bounded BFS per node, parallel
    /// over nodes with order-preserving collection, so the result is
    /// deterministic.
    pub fn from_graph(g: &CsrGraph, hops: usize) -> Neighborhoods {
        assert!(hops >= 1, "neighbourhoods need hops >= 1");
        let n = g.num_nodes();
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0usize);
        let mut cols: Vec<u32>;
        if hops == 1 {
            cols = Vec::with_capacity(2 * g.num_edges());
            for v in 0..n {
                cols.extend_from_slice(g.neighbors(v));
                offsets.push(cols.len());
            }
        } else {
            let lists: Vec<Vec<usize>> = (0..n)
                .into_par_iter()
                .map(|v| g.khop_neighbors(v, hops))
                .collect();
            let total: usize = lists.iter().map(Vec::len).sum();
            cols = Vec::with_capacity(total);
            for list in &lists {
                cols.extend(list.iter().map(|&u| u as u32));
                offsets.push(cols.len());
            }
        }
        Neighborhoods { n, offsets, cols }
    }

    /// Number of nodes the topology covers.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the topology covers no nodes.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Sorted neighbourhood of node `v` (excluding `v`).
    pub fn neighbors(&self, v: usize) -> &[u32] {
        &self.cols[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Total neighbourhood entries across all nodes.
    pub fn nnz(&self) -> usize {
        self.cols.len()
    }
}

/// Reusable buffers for [`localized_info_nce_with`]: normalised views,
/// flat per-(anchor, neighbour) coefficient buffers for all four
/// view-pair combinations, the anchor-side prefix/reverse indexes and the
/// gradient chain.
#[derive(Debug, Default)]
pub struct LocalizedScratch {
    u1: Matrix,
    u2: Matrix,
    n1: Vec<f32>,
    n2: Vec<f32>,
    aoff: Vec<usize>,
    anchor_of: Vec<u32>,
    e12: Vec<f32>,
    e11: Vec<f32>,
    e21: Vec<f32>,
    e22: Vec<f32>,
    loss: Vec<f32>,
    cpos: Vec<f32>,
    rev_off: Vec<usize>,
    rev_anchor: Vec<u32>,
    rev_flat: Vec<u32>,
    du1: Matrix,
    du2: Matrix,
    d_z1: Matrix,
    d_z2: Matrix,
}

impl LocalizedScratch {
    /// `∂L/∂z1` from the last [`localized_info_nce_with`].
    pub fn d_z1(&self) -> &Matrix {
        &self.d_z1
    }

    /// `∂L/∂z2` from the last [`localized_info_nce_with`].
    pub fn d_z2(&self) -> &Matrix {
        &self.d_z2
    }
}

/// Splits `buf` into consecutive slices `buf[off[a]..off[a+1]]` — the
/// per-anchor views the parallel coefficient pass hands to disjoint
/// workers.
fn split_by_offsets<'a>(mut buf: &'a mut [f32], off: &[usize]) -> Vec<&'a mut [f32]> {
    let mut out = Vec::with_capacity(off.len().saturating_sub(1));
    for w in off.windows(2) {
        let (head, tail) = buf.split_at_mut(w[1] - w[0]);
        out.push(head);
        buf = tail;
    }
    out
}

/// Localized symmetric InfoNCE: each anchor `i` contrasts its positive
/// against only its neighbourhood `N(i)` from `nb` (both views, inter and
/// intra), a CSR-driven sparse softmax with no dense n×n similarity.
/// O(nnz·d) compute and O(nnz) coefficient memory, where
/// `nnz = Σ_{i ∈ anchors} |N(i)|`.
///
/// `z1`/`z2` hold **all** rows of the (sub)graph; `anchors` selects which
/// rows contribute loss terms (duplicates are not allowed — each row owns
/// at most one anchor slot). Gradients flow into anchor rows and their
/// neighbours; all other rows of `d_z1`/`d_z2` are zero. An anchor with an
/// empty neighbourhood contributes a zero loss term and zero gradient.
///
/// The loss is the mean over the `2·|anchors|` directed anchor terms.
pub fn localized_info_nce_with(
    z1: &Matrix,
    z2: &Matrix,
    tau: f32,
    nb: &Neighborhoods,
    anchors: &[usize],
    s: &mut LocalizedScratch,
) -> f32 {
    let n = z1.rows();
    let d = z1.cols();
    assert_eq!(z2.rows(), n);
    assert_eq!(z2.cols(), d);
    assert_eq!(nb.len(), n, "topology must cover every embedding row");
    let a = anchors.len();
    let inv_tau = 1.0 / tau;

    loss::normalize_rows_into(z1, &mut s.u1, &mut s.n1);
    loss::normalize_rows_into(z2, &mut s.u2, &mut s.n2);
    s.du1.reset_zeroed(n, d);
    s.du2.reset_zeroed(n, d);
    if a == 0 {
        s.d_z1.reset_zeroed(n, d);
        s.d_z2.reset_zeroed(n, d);
        return 0.0;
    }

    // Anchor prefix offsets into the flat coefficient buffers, and the
    // row -> anchor-slot inverse (u32::MAX for non-anchor rows).
    s.aoff.clear();
    s.aoff.reserve(a + 1);
    s.aoff.push(0);
    for &i in anchors {
        assert!(i < n, "anchor {i} out of range for {n} rows");
        s.aoff
            .push(s.aoff[s.aoff.len() - 1] + nb.neighbors(i).len());
    }
    let nnz = *s.aoff.last().expect("offsets nonempty");
    s.anchor_of.clear();
    s.anchor_of.resize(n, u32::MAX);
    for (slot, &i) in anchors.iter().enumerate() {
        assert!(
            s.anchor_of[i] == u32::MAX,
            "anchor {i} listed twice — anchors must be unique"
        );
        s.anchor_of[i] = slot as u32;
    }
    for buf in [&mut s.e12, &mut s.e11, &mut s.e21, &mut s.e22] {
        buf.clear();
        buf.resize(nnz, 0.0);
    }
    s.loss.clear();
    s.loss.resize(a, 0.0);
    s.cpos.clear();
    s.cpos.resize(a, 0.0);

    // Pass 1 — parallel over anchors, each worker owning its four
    // coefficient slices plus its loss/cpos cells: similarities on the
    // fly (lane_dot), one stabilised softmax per side, coefficients in
    // place. `scale` normalises by the 2·a directed anchor terms.
    let scale = 1.0 / (2 * a) as f32;
    let g_unit = scale * inv_tau;
    {
        let (u1, u2) = (&s.u1, &s.u2);
        // Dispatch path captured before the parallel region (rayon workers
        // don't inherit a thread-local override).
        let kpath = e2gcl_linalg::dispatch::current_path();
        let e12s = split_by_offsets(&mut s.e12, &s.aoff);
        let e11s = split_by_offsets(&mut s.e11, &s.aoff);
        let e21s = split_by_offsets(&mut s.e21, &s.aoff);
        let e22s = split_by_offsets(&mut s.e22, &s.aoff);
        e12s.into_par_iter()
            .zip(e11s.into_par_iter())
            .zip(e21s.into_par_iter())
            .zip(e22s.into_par_iter())
            .zip(anchors.par_iter())
            .zip(s.loss.par_iter_mut())
            .zip(s.cpos.par_iter_mut())
            .for_each(|((((((e12, e11), e21), e22), &i), l), c)| {
                let ui1 = u1.row(i);
                let ui2 = u2.row(i);
                let p = kpath.lane_dot(ui1, ui2) * inv_tau;
                let ns = nb.neighbors(i);
                for (t, &jn) in ns.iter().enumerate() {
                    let j = jn as usize;
                    e12[t] = kpath.lane_dot(ui1, u2.row(j)) * inv_tau;
                    e11[t] = kpath.lane_dot(ui1, u1.row(j)) * inv_tau;
                    e21[t] = kpath.lane_dot(ui2, u1.row(j)) * inv_tau;
                    e22[t] = kpath.lane_dot(ui2, u2.row(j)) * inv_tau;
                }
                *l = 0.0;
                *c = 0.0;
                for (ab, aa) in [(&mut *e12, &mut *e11), (&mut *e21, &mut *e22)] {
                    let mut mx = p;
                    for &v in ab.iter() {
                        mx = mx.max(v);
                    }
                    for &v in aa.iter() {
                        mx = mx.max(v);
                    }
                    let e_pos = (p - mx).exp();
                    let mut denom = e_pos;
                    for v in ab.iter_mut() {
                        *v = (*v - mx).exp();
                        denom += *v;
                    }
                    for v in aa.iter_mut() {
                        *v = (*v - mx).exp();
                        denom += *v;
                    }
                    *l += (mx + denom.ln() - p) * scale;
                    let gd = g_unit / denom;
                    for v in ab.iter_mut() {
                        *v *= gd;
                    }
                    for v in aa.iter_mut() {
                        *v *= gd;
                    }
                    *c += e_pos * gd - g_unit;
                }
            });
    }
    // Serial fixed-order loss sum (anchor slots ascending; each slot
    // already holds both directed terms).
    let mut loss = 0.0f64;
    for &l in &s.loss {
        loss += f64::from(l);
    }

    // Reverse index: for every row j, the (anchor slot, flat coefficient
    // index) pairs with j ∈ N(anchor). Built serially by counting sort —
    // entries for each j are ordered by (anchor slot, neighbour slot),
    // giving pass 2 a fixed per-row accumulation order.
    s.rev_off.clear();
    s.rev_off.resize(n + 1, 0);
    for &i in anchors {
        for &jn in nb.neighbors(i) {
            s.rev_off[jn as usize + 1] += 1;
        }
    }
    for j in 0..n {
        s.rev_off[j + 1] += s.rev_off[j];
    }
    s.rev_anchor.clear();
    s.rev_anchor.resize(nnz, 0);
    s.rev_flat.clear();
    s.rev_flat.resize(nnz, 0);
    {
        let mut cursor: Vec<usize> = s.rev_off[..n].to_vec();
        for (slot, &i) in anchors.iter().enumerate() {
            let base = s.aoff[slot];
            for (t, &jn) in nb.neighbors(i).iter().enumerate() {
                let j = jn as usize;
                s.rev_anchor[cursor[j]] = slot as u32;
                s.rev_flat[cursor[j]] = (base + t) as u32;
                cursor[j] += 1;
            }
        }
    }

    // Pass 2 — parallel over output rows, each row owned by one worker
    // and accumulated in a fixed order: anchor-side terms (neighbour
    // slots ascending), the positive term, then reverse terms (anchor
    // slots ascending).
    {
        let (u1, u2) = (&s.u1, &s.u2);
        let (e12, e11, e21, e22) = (&s.e12, &s.e11, &s.e21, &s.e22);
        let (aoff, anchor_of, cpos) = (&s.aoff, &s.anchor_of, &s.cpos);
        let (rev_off, rev_anchor, rev_flat) = (&s.rev_off, &s.rev_anchor, &s.rev_flat);
        s.du1
            .as_mut_slice()
            .par_chunks_mut(d)
            .zip(s.du2.as_mut_slice().par_chunks_mut(d))
            .enumerate()
            .for_each(|(j, (r1, r2))| {
                let slot = anchor_of[j] as usize;
                if slot != u32::MAX as usize {
                    let base = aoff[slot];
                    for (t, &jn) in nb.neighbors(j).iter().enumerate() {
                        let cj = jn as usize;
                        let f = base + t;
                        ops::axpy_slice(r1, e12[f], u2.row(cj));
                        ops::axpy_slice(r1, e11[f], u1.row(cj));
                        ops::axpy_slice(r2, e21[f], u1.row(cj));
                        ops::axpy_slice(r2, e22[f], u2.row(cj));
                    }
                    ops::axpy_slice(r1, cpos[slot], u2.row(j));
                    ops::axpy_slice(r2, cpos[slot], u1.row(j));
                }
                for idx in rev_off[j]..rev_off[j + 1] {
                    let aslot = rev_anchor[idx] as usize;
                    let f = rev_flat[idx] as usize;
                    let i = anchors[aslot];
                    ops::axpy_slice(r1, e11[f], u1.row(i));
                    ops::axpy_slice(r1, e21[f], u2.row(i));
                    ops::axpy_slice(r2, e12[f], u1.row(i));
                    ops::axpy_slice(r2, e22[f], u2.row(i));
                }
            });
    }

    loss::normalize_backward_into(&s.u1, &s.n1, &s.du1, &mut s.d_z1);
    loss::normalize_backward_into(&s.u2, &s.n2, &s.du2, &mut s.d_z2);
    loss as f32
}

/// Localized strategy: neighbourhood-restricted negatives over a fixed
/// topology, optionally over an anchor subset (mini-batch seed rows). The
/// paper this follows trains without a projection head; model steps feed
/// encoder outputs straight in.
#[derive(Debug, Default)]
pub struct LocalizedInfoNce {
    tau: f32,
    nb: Neighborhoods,
    anchors: Option<Vec<usize>>,
    all: Vec<usize>,
    s: LocalizedScratch,
}

impl LocalizedInfoNce {
    /// A localized strategy at temperature `tau` over topology `nb`.
    pub fn new(tau: f32, nb: Neighborhoods) -> Self {
        LocalizedInfoNce {
            tau,
            nb,
            ..LocalizedInfoNce::default()
        }
    }

    /// Replaces the neighbourhood topology (mini-batch steps rebuild it
    /// per sampled subgraph).
    pub fn set_topology(&mut self, nb: Neighborhoods) {
        self.nb = nb;
    }

    /// Restricts loss terms to `anchors` (`None` = every row anchors).
    pub fn set_anchors(&mut self, anchors: Option<Vec<usize>>) {
        self.anchors = anchors;
    }
}

impl ContrastiveLoss for LocalizedInfoNce {
    fn name(&self) -> &'static str {
        "localized"
    }

    fn compute(&mut self, z1: &Matrix, z2: &Matrix) -> f32 {
        let n = z1.rows();
        let anchors: &[usize] = match &self.anchors {
            Some(a) => a,
            None => {
                if self.all.len() != n {
                    self.all = (0..n).collect();
                }
                &self.all
            }
        };
        localized_info_nce_with(z1, z2, self.tau, &self.nb, anchors, &mut self.s)
    }

    fn d_z1(&self) -> &Matrix {
        self.s.d_z1()
    }

    fn d_z2(&self) -> &Matrix {
        self.s.d_z2()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use e2gcl_linalg::SeedRng;

    fn rand_matrix(r: usize, c: usize, seed: u64) -> Matrix {
        let mut rng = SeedRng::new(seed);
        let mut m = Matrix::zeros(r, c);
        for v in m.as_mut_slice() {
            *v = rng.normal();
        }
        m
    }

    /// Central finite-difference check against an analytic gradient.
    fn fd_check(
        x: &Matrix,
        analytic: &Matrix,
        mut f: impl FnMut(&Matrix) -> f32,
        tol: f32,
        what: &str,
    ) {
        let eps = 1e-2f32;
        let mut xp = x.clone();
        for r in 0..x.rows() {
            for c in 0..x.cols() {
                let orig = xp.get(r, c);
                xp.set(r, c, orig + eps);
                let lp = f(&xp);
                xp.set(r, c, orig - eps);
                let lm = f(&xp);
                xp.set(r, c, orig);
                let fd = (lp - lm) / (2.0 * eps);
                let an = analytic.get(r, c);
                assert!(
                    (fd - an).abs() < tol * (1.0 + fd.abs().max(an.abs())),
                    "{what}({r},{c}): fd {fd} vs analytic {an}"
                );
            }
        }
    }

    fn ring_graph(n: usize) -> CsrGraph {
        let edges: Vec<(usize, usize)> = (0..n).map(|v| (v, (v + 1) % n)).collect();
        CsrGraph::from_edges(n, &edges)
    }

    #[test]
    fn small_neg_grad_check() {
        let z1 = rand_matrix(6, 5, 40);
        let z2 = rand_matrix(6, 5, 41);
        let negatives = vec![0, 2, 5];
        let mut s = SmallNegScratch::default();
        let _ = small_neg_info_nce_with(&z1, &z2, 0.7, &negatives, &mut s);
        let (d1, d2) = (s.d_z1().clone(), s.d_z2().clone());
        let f1 = |x: &Matrix| {
            let mut fs = SmallNegScratch::default();
            small_neg_info_nce_with(x, &z2, 0.7, &negatives, &mut fs)
        };
        fd_check(&z1, &d1, f1, 5e-2, "smallneg d_z1");
        let f2 = |x: &Matrix| {
            let mut fs = SmallNegScratch::default();
            small_neg_info_nce_with(&z1, x, 0.7, &negatives, &mut fs)
        };
        fd_check(&z2, &d2, f2, 5e-2, "smallneg d_z2");
    }

    /// With negatives = all rows the general kernel computes the full
    /// objective (different summation order, so tolerance not bitwise).
    #[test]
    fn small_neg_all_rows_matches_full_within_tolerance() {
        let z1 = rand_matrix(9, 4, 42);
        let z2 = rand_matrix(9, 4, 43);
        let all: Vec<usize> = (0..9).collect();
        let mut s = SmallNegScratch::default();
        let l = small_neg_info_nce_with(&z1, &z2, 0.5, &all, &mut s);
        let full = loss::info_nce(&z1, &z2, 0.5);
        assert!((l - full.loss).abs() < 1e-5, "{l} vs {}", full.loss);
        for (a, b) in [(s.d_z1(), &full.d_z1), (s.d_z2(), &full.d_z2)] {
            for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
                assert!((x - y).abs() < 1e-5, "{x} vs {y}");
            }
        }
    }

    /// The strategy's degenerate dispatch is *bitwise* the full kernel.
    #[test]
    fn small_neg_strategy_all_rows_dispatches_to_full_bitwise() {
        let z1 = rand_matrix(7, 4, 44);
        let z2 = rand_matrix(7, 4, 45);
        let mut strat = SmallNegInfoNce::new(0.5);
        // Unsorted with duplicates: set semantics still recognise 0..7.
        strat.set_negatives(&[6, 0, 3, 1, 5, 2, 4, 3]);
        let l = strat.compute(&z1, &z2);
        let mut fs = InfoNceScratch::default();
        let lf = loss::info_nce_with(&z1, &z2, 0.5, &mut fs);
        assert_eq!(l.to_bits(), lf.to_bits());
        assert_eq!(strat.d_z1(), fs.d_z1());
        assert_eq!(strat.d_z2(), fs.d_z2());
        assert_eq!(strat.name(), "smallneg");
    }

    #[test]
    fn small_neg_single_anchor_is_zero() {
        let z1 = rand_matrix(1, 4, 46);
        let z2 = rand_matrix(1, 4, 47);
        let mut strat = SmallNegInfoNce::new(0.5);
        strat.set_negatives(&[0]);
        let l = strat.compute(&z1, &z2);
        assert_eq!(l, 0.0);
        assert!(strat.d_z1().as_slice().iter().all(|&v| v == 0.0));
        assert!(strat.d_z2().as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn small_neg_scratch_reuse_is_bitwise() {
        let z1 = rand_matrix(8, 4, 48);
        let z2 = rand_matrix(8, 4, 49);
        let negatives = vec![1, 4, 6];
        let mut cold = SmallNegScratch::default();
        let lc = small_neg_info_nce_with(&z1, &z2, 0.6, &negatives, &mut cold);
        let mut warm = SmallNegScratch::default();
        // Pollute with a different shape and set, then recompute.
        let _ = small_neg_info_nce_with(
            &rand_matrix(5, 3, 50),
            &rand_matrix(5, 3, 51),
            0.6,
            &[0, 2],
            &mut warm,
        );
        let lw = small_neg_info_nce_with(&z1, &z2, 0.6, &negatives, &mut warm);
        assert_eq!(lc.to_bits(), lw.to_bits());
        assert_eq!(cold.d_z1(), warm.d_z1());
        assert_eq!(cold.d_z2(), warm.d_z2());
    }

    #[test]
    fn neighborhoods_match_khop() {
        let g = ring_graph(8);
        for hops in 1..=3 {
            let nb = Neighborhoods::from_graph(&g, hops);
            assert_eq!(nb.len(), 8);
            for v in 0..8 {
                let expect: Vec<u32> = g
                    .khop_neighbors(v, hops)
                    .iter()
                    .map(|&u| u as u32)
                    .collect();
                assert_eq!(nb.neighbors(v), expect.as_slice(), "v={v} hops={hops}");
            }
        }
    }

    #[test]
    fn localized_grad_check() {
        let g = ring_graph(7);
        let nb = Neighborhoods::from_graph(&g, 2);
        let anchors: Vec<usize> = (0..7).collect();
        let z1 = rand_matrix(7, 5, 52);
        let z2 = rand_matrix(7, 5, 53);
        let mut s = LocalizedScratch::default();
        let _ = localized_info_nce_with(&z1, &z2, 0.7, &nb, &anchors, &mut s);
        let (d1, d2) = (s.d_z1().clone(), s.d_z2().clone());
        let f1 = |x: &Matrix| {
            let mut fs = LocalizedScratch::default();
            localized_info_nce_with(x, &z2, 0.7, &nb, &anchors, &mut fs)
        };
        fd_check(&z1, &d1, f1, 5e-2, "localized d_z1");
        let f2 = |x: &Matrix| {
            let mut fs = LocalizedScratch::default();
            localized_info_nce_with(&z1, x, 0.7, &nb, &anchors, &mut fs)
        };
        fd_check(&z2, &d2, f2, 5e-2, "localized d_z2");
    }

    /// Dense reference: the localized objective computed naively per
    /// anchor in f64, gradients by finite differences above — here the
    /// loss value itself.
    #[test]
    fn localized_matches_naive_reference() {
        let g = ring_graph(6);
        let nb = Neighborhoods::from_graph(&g, 1);
        let anchors = vec![0, 2, 5];
        let z1 = rand_matrix(6, 4, 54);
        let z2 = rand_matrix(6, 4, 55);
        let tau = 0.5f64;
        let mut s = LocalizedScratch::default();
        let l = localized_info_nce_with(&z1, &z2, tau as f32, &nb, &anchors, &mut s);

        let unit = |m: &Matrix, r: usize| -> Vec<f64> {
            let row = m.row(r);
            let n = row
                .iter()
                .map(|&v| f64::from(v) * f64::from(v))
                .sum::<f64>()
                .sqrt();
            row.iter().map(|&v| f64::from(v) / n.max(1e-12)).collect()
        };
        let dot = |a: &[f64], b: &[f64]| a.iter().zip(b).map(|(x, y)| x * y).sum::<f64>();
        let mut expect = 0.0f64;
        for &i in &anchors {
            let ui1 = unit(&z1, i);
            let ui2 = unit(&z2, i);
            let p = dot(&ui1, &ui2) / tau;
            for (anchor, own, other) in [(&ui1, &z1, &z2), (&ui2, &z2, &z1)] {
                let mut denom = p.exp();
                for &jn in nb.neighbors(i) {
                    let j = jn as usize;
                    denom += (dot(anchor, &unit(other, j)) / tau).exp();
                    denom += (dot(anchor, &unit(own, j)) / tau).exp();
                }
                expect += denom.ln() - p;
            }
        }
        expect /= (2 * anchors.len()) as f64;
        assert!(
            (f64::from(l) - expect).abs() < 1e-5,
            "{l} vs reference {expect}"
        );
    }

    #[test]
    fn localized_isolated_anchor_contributes_zero() {
        // Node 3 is isolated: edges only among {0,1,2}.
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (0, 2)]);
        let nb = Neighborhoods::from_graph(&g, 1);
        let z1 = rand_matrix(4, 4, 56);
        let z2 = rand_matrix(4, 4, 57);
        let mut s_all = LocalizedScratch::default();
        let l_all = localized_info_nce_with(&z1, &z2, 0.5, &nb, &[0, 1, 2, 3], &mut s_all);
        // The isolated anchor's gradient rows are exactly zero.
        assert!(s_all.d_z1().row(3).iter().all(|&v| v == 0.0));
        assert!(s_all.d_z2().row(3).iter().all(|&v| v == 0.0));
        // And its loss term is zero: the connected-only mean differs just
        // by the anchor-count normalisation 2·4 vs 2·3.
        let mut s_conn = LocalizedScratch::default();
        let l_conn = localized_info_nce_with(&z1, &z2, 0.5, &nb, &[0, 1, 2], &mut s_conn);
        assert!((l_all * 4.0 - l_conn * 3.0).abs() < 1e-6);
    }

    #[test]
    fn localized_anchor_subset_and_strategy_agree() {
        let g = ring_graph(9);
        let nb = Neighborhoods::from_graph(&g, 1);
        let z1 = rand_matrix(9, 4, 58);
        let z2 = rand_matrix(9, 4, 59);
        let anchors = vec![1, 4, 7];
        let mut s = LocalizedScratch::default();
        let l_fn = localized_info_nce_with(&z1, &z2, 0.5, &nb, &anchors, &mut s);
        let mut strat = LocalizedInfoNce::new(0.5, Neighborhoods::from_graph(&g, 1));
        strat.set_anchors(Some(anchors));
        let l_strat = strat.compute(&z1, &z2);
        assert_eq!(l_fn.to_bits(), l_strat.to_bits());
        assert_eq!(s.d_z1(), strat.d_z1());
        assert_eq!(strat.name(), "localized");
        // None = all rows.
        strat.set_anchors(None);
        let l_all = strat.compute(&z1, &z2);
        let mut s_all = LocalizedScratch::default();
        let all: Vec<usize> = (0..9).collect();
        let l_ref = localized_info_nce_with(&z1, &z2, 0.5, &nb, &all, &mut s_all);
        assert_eq!(l_all.to_bits(), l_ref.to_bits());
    }

    #[test]
    fn localized_scratch_reuse_is_bitwise() {
        let g = ring_graph(8);
        let nb = Neighborhoods::from_graph(&g, 2);
        let z1 = rand_matrix(8, 4, 60);
        let z2 = rand_matrix(8, 4, 61);
        let all: Vec<usize> = (0..8).collect();
        let mut cold = LocalizedScratch::default();
        let lc = localized_info_nce_with(&z1, &z2, 0.5, &nb, &all, &mut cold);
        let mut warm = LocalizedScratch::default();
        let g2 = ring_graph(5);
        let nb2 = Neighborhoods::from_graph(&g2, 1);
        let _ = localized_info_nce_with(
            &rand_matrix(5, 3, 62),
            &rand_matrix(5, 3, 63),
            0.5,
            &nb2,
            &[0, 3],
            &mut warm,
        );
        let lw = localized_info_nce_with(&z1, &z2, 0.5, &nb, &all, &mut warm);
        assert_eq!(lc.to_bits(), lw.to_bits());
        assert_eq!(cold.d_z1(), warm.d_z1());
        assert_eq!(cold.d_z2(), warm.d_z2());
    }

    #[test]
    fn full_strategy_is_bitwise_info_nce() {
        let z1 = rand_matrix(6, 4, 64);
        let z2 = rand_matrix(6, 4, 65);
        let mut strat = FullInfoNce::new(0.5);
        let l = strat.compute(&z1, &z2);
        let out = loss::info_nce(&z1, &z2, 0.5);
        assert_eq!(l.to_bits(), out.loss.to_bits());
        assert_eq!(strat.d_z1(), &out.d_z1);
        assert_eq!(strat.d_z2(), &out.d_z2);
        assert_eq!(strat.name(), "full");
    }

    /// Strategies are object-safe: the model steps hold them behind the
    /// trait when they don't need strategy-specific setters.
    #[test]
    fn strategies_work_behind_the_trait_object() {
        let z1 = rand_matrix(6, 4, 66);
        let z2 = rand_matrix(6, 4, 67);
        let g = ring_graph(6);
        let mut smallneg = SmallNegInfoNce::new(0.5);
        smallneg.set_negatives(&[0, 3]);
        let mut strategies: Vec<Box<dyn ContrastiveLoss>> = vec![
            Box::new(FullInfoNce::new(0.5)),
            Box::new(smallneg),
            Box::new(LocalizedInfoNce::new(0.5, Neighborhoods::from_graph(&g, 1))),
        ];
        for s in &mut strategies {
            let l = s.compute(&z1, &z2);
            assert!(l.is_finite(), "{} produced {l}", s.name());
            assert_eq!(s.d_z1().shape(), (6, 4));
            assert_eq!(s.d_z2().shape(), (6, 4));
        }
    }
}
