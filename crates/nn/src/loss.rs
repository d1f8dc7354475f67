//! Losses with analytic gradients.
//!
//! * [`margin_contrastive`] — the paper's Eq. (5) Euclidean contrastive loss
//!   (with the Hadsell-style margin of its citation \[75\]; pass
//!   `margin = f32::INFINITY` for the literal unbounded form);
//! * [`info_nce`] — the symmetric NT-Xent objective of GRACE/GCA, with both
//!   inter-view and intra-view negatives;
//! * [`bce_with_logits`], [`softmax_cross_entropy`] — decoder losses;
//! * [`cosine_bootstrap`] — BGRL's negative-free cosine objective.

use e2gcl_linalg::{activations, ops, Matrix};
use rayon::prelude::*;

/// Output of the Eq. (5) contrastive loss.
#[derive(Debug)]
pub struct MarginLossOutput {
    /// Mean loss over anchor nodes.
    pub loss: f32,
    /// `∂L/∂ĥ` (same shape as `h_hat`).
    pub d_hat: Matrix,
    /// `∂L/∂h̃` (same shape as `h_tilde`).
    pub d_tilde: Matrix,
    /// `∂L/∂neg` (same shape as `neg`).
    pub d_neg: Matrix,
}

/// Eq. (5): for each anchor `v`,
/// `||ĥ_v − h̃_v||² + (1 / 2|Neg_v|) · Σ_{h' ∈ {ĥ_v, h̃_v}} Σ_{u ∈ Neg_v} hinge(m − ||h'_v − n_u||²)`
/// averaged over anchors.
///
/// With finite `margin m` the second term is `max(0, m − d²)` (minimising it
/// pushes negatives out to the margin). With `margin = ∞` it degenerates to
/// `−d²`, the paper's literal Eq. (5), which is unbounded below — usable for
/// a few steps in tests but not for full training.
///
/// `negatives[v]` lists row indices of `neg` serving as `Neg_v`.
pub fn margin_contrastive(
    h_hat: &Matrix,
    h_tilde: &Matrix,
    neg: &Matrix,
    negatives: &[Vec<usize>],
    margin: f32,
) -> MarginLossOutput {
    let mut s = MarginScratch::default();
    let loss = margin_contrastive_with(h_hat, h_tilde, neg, negatives, margin, &mut s);
    MarginLossOutput {
        loss,
        d_hat: s.d_hat,
        d_tilde: s.d_tilde,
        d_neg: s.d_neg,
    }
}

/// Reusable gradient buffers for [`margin_contrastive_with`].
#[derive(Debug, Default)]
pub struct MarginScratch {
    d_hat: Matrix,
    d_tilde: Matrix,
    d_neg: Matrix,
}

impl MarginScratch {
    /// `∂L/∂ĥ` from the last [`margin_contrastive_with`].
    pub fn d_hat(&self) -> &Matrix {
        &self.d_hat
    }

    /// `∂L/∂h̃` from the last [`margin_contrastive_with`].
    pub fn d_tilde(&self) -> &Matrix {
        &self.d_tilde
    }

    /// `∂L/∂neg` from the last [`margin_contrastive_with`].
    pub fn d_neg(&self) -> &Matrix {
        &self.d_neg
    }
}

/// [`margin_contrastive`] into reusable gradient buffers: bit-identical
/// loss and gradients, zero matrix allocations once the scratch is warm.
pub fn margin_contrastive_with(
    h_hat: &Matrix,
    h_tilde: &Matrix,
    neg: &Matrix,
    negatives: &[Vec<usize>],
    margin: f32,
    s: &mut MarginScratch,
) -> f32 {
    let n = h_hat.rows();
    assert_eq!(h_tilde.rows(), n);
    assert_eq!(negatives.len(), n);
    assert_eq!(h_hat.cols(), h_tilde.cols());
    assert_eq!(h_hat.cols(), neg.cols());
    let inv_n = 1.0 / n.max(1) as f32;
    let mut loss = 0.0f64;
    s.d_hat.reset_zeroed(h_hat.rows(), h_hat.cols());
    s.d_tilde.reset_zeroed(h_tilde.rows(), h_tilde.cols());
    s.d_neg.reset_zeroed(neg.rows(), neg.cols());
    let d_hat = &mut s.d_hat;
    let d_tilde = &mut s.d_tilde;
    let d_neg = &mut s.d_neg;
    for (v, negs) in negatives.iter().enumerate() {
        let hv = h_hat.row(v);
        let tv = h_tilde.row(v);
        // Positive pull term.
        loss += f64::from(ops::sq_dist(hv, tv)) * f64::from(inv_n);
        let d = d_hat.row_mut(v);
        for ((g, &a), &b) in d.iter_mut().zip(hv).zip(tv) {
            *g += 2.0 * (a - b) * inv_n;
        }
        let d = d_tilde.row_mut(v);
        for ((g, &a), &b) in d.iter_mut().zip(hv).zip(tv) {
            *g -= 2.0 * (a - b) * inv_n;
        }
        // Negative push term.
        if negs.is_empty() {
            continue;
        }
        let coeff = inv_n / (2.0 * negs.len() as f32);
        for (anchor_is_hat, anchor) in [(true, hv), (false, tv)] {
            for &u in negs {
                let nu = neg.row(u);
                let d2 = ops::sq_dist(anchor, nu);
                let (term, active) = if margin.is_finite() {
                    ((margin - d2).max(0.0), d2 < margin)
                } else {
                    (-d2, true)
                };
                loss += f64::from(term) * f64::from(coeff);
                if !active {
                    continue;
                }
                // d(−d²)/danchor = −2(anchor − nu); same for the hinge branch.
                let anchor_grad = if anchor_is_hat {
                    d_hat.row_mut(v)
                } else {
                    d_tilde.row_mut(v)
                };
                for ((g, &a), &b) in anchor_grad.iter_mut().zip(anchor).zip(nu) {
                    *g -= 2.0 * coeff * (a - b);
                }
                let ng = d_neg.row_mut(u);
                for ((g, &a), &b) in ng.iter_mut().zip(anchor).zip(nu) {
                    *g += 2.0 * coeff * (a - b);
                }
            }
        }
    }
    loss as f32
}

/// Output of [`info_nce`].
#[derive(Debug)]
pub struct InfoNceOutput {
    /// Mean loss over `2n` anchors.
    pub loss: f32,
    /// `∂L/∂z1`.
    pub d_z1: Matrix,
    /// `∂L/∂z2`.
    pub d_z2: Matrix,
}

/// Symmetric NT-Xent (GRACE Eq. (1)): cosine similarities at temperature
/// `tau`, inter-view positives on the diagonal, negatives from both views.
pub fn info_nce(z1: &Matrix, z2: &Matrix, tau: f32) -> InfoNceOutput {
    let mut s = InfoNceScratch::default();
    let loss = info_nce_with(z1, z2, tau, &mut s);
    InfoNceOutput {
        loss,
        d_z1: s.d_z1,
        d_z2: s.d_z2,
    }
}

/// Reusable buffers for [`info_nce_with`]: normalised views, the four
/// `n x n` similarity/gradient-coefficient blocks, per-anchor loss terms,
/// and both gradient chains.
#[derive(Debug, Default)]
pub struct InfoNceScratch {
    u1: Matrix,
    u2: Matrix,
    n1: Vec<f32>,
    n2: Vec<f32>,
    s12: Matrix,
    s11: Matrix,
    s22: Matrix,
    s21: Matrix,
    loss1: Vec<f32>,
    loss2: Vec<f32>,
    du1: Matrix,
    du2: Matrix,
    gtmp: Matrix,
    d_z1: Matrix,
    d_z2: Matrix,
}

impl InfoNceScratch {
    /// `∂L/∂z1` from the last [`info_nce_with`].
    pub fn d_z1(&self) -> &Matrix {
        &self.d_z1
    }

    /// `∂L/∂z2` from the last [`info_nce_with`].
    pub fn d_z2(&self) -> &Matrix {
        &self.d_z2
    }
}

/// One NT-Xent direction, parallel over anchor rows: anchors at view `a`
/// contrast against all of view `b` (`s_ab`) plus intra-view (`s_aa`,
/// excluding self).
///
/// Consumes the raw similarity blocks in place, replacing them with
/// gradient coefficients: `s_ab[i][j] <- scale·inv_tau·(p_ab − δ_ij)` and
/// `s_aa[i][j] <- scale·inv_tau·p_aa` (diagonal zero), where `p` are the
/// softmax probabilities over anchor `i`'s `2n−1` terms of the
/// `inv_tau`-scaled similarities. The embedding gradients then reduce to
/// plain GEMMs over these blocks (see [`info_nce_with`]), so every
/// cross-row reduction runs inside the deterministic blocked kernels
/// instead of serial `axpy` scatter. `row_loss[i]` receives anchor `i`'s
/// scaled loss term; rows are independent, so the parallel pass is
/// trivially deterministic.
///
/// Each row is branch-free, with the bits of a pass that skips the self
/// term and subtracts `δ_ij·g_unit` from every `s_ab` coefficient:
/// - the `s_aa` diagonal is `−∞` before the max, so it never wins it,
///   `exp(−∞ − mx) = +0` and `denom + 0 = denom`;
/// - the max runs in [`ROW_MAX_LANES`] lanes: `f32::max` ignores NaN, and
///   the order in which it meets the values changes at most the sign of a
///   zero max, which no later expression can see (`v − (±0) = v` up to a
///   zero's sign, `exp(±0) = 1`, and `±0 + ln(denom)` is `+0` when
///   `ln(denom)` is);
/// - every coefficient is `p·gd`, then `g_unit` comes off at `[i]` alone,
///   since `x − 0.0 = x` for every other term.
fn nt_xent_rows(
    s_ab: &mut Matrix,
    s_aa: &mut Matrix,
    scale: f32,
    inv_tau: f32,
    row_loss: &mut [f32],
) {
    let n = s_ab.rows();
    debug_assert_eq!(s_ab.shape(), (n, n));
    debug_assert_eq!(s_aa.shape(), (n, n));
    debug_assert_eq!(row_loss.len(), n);
    let g_unit = scale * inv_tau;
    s_ab.as_mut_slice()
        .par_chunks_mut(n)
        .zip(s_aa.as_mut_slice().par_chunks_mut(n))
        .zip(row_loss.par_iter_mut())
        .enumerate()
        .for_each(|(i, ((ab_row, aa_row), l))| {
            ab_row.iter_mut().for_each(|v| *v *= inv_tau);
            aa_row.iter_mut().for_each(|v| *v *= inv_tau);
            aa_row[i] = f32::NEG_INFINITY;
            let pos = ab_row[i];
            // Log-sum-exp over 2n−1 terms, stabilised by the row max.
            let mx = row_max(ab_row).max(row_max(aa_row));
            let mut denom = 0.0f32;
            for v in ab_row.iter_mut().chain(aa_row.iter_mut()) {
                *v = (*v - mx).exp();
                denom += *v;
            }
            *l = (mx + denom.ln() - pos) * scale;
            // exp -> gradient coefficient.
            let gd = g_unit / denom;
            ab_row.iter_mut().for_each(|v| *v *= gd);
            aa_row.iter_mut().for_each(|v| *v *= gd);
            ab_row[i] -= g_unit;
        });
}

/// Lanes of [`row_max`]: one AVX register of `f32`.
const ROW_MAX_LANES: usize = 8;

/// Largest non-NaN value of `row` (`−∞` if none), in [`ROW_MAX_LANES`]
/// independent lanes so the loop vectorises.
fn row_max(row: &[f32]) -> f32 {
    let mut lanes = [f32::NEG_INFINITY; ROW_MAX_LANES];
    let chunks = row.chunks_exact(ROW_MAX_LANES);
    let tail = chunks.remainder();
    for c in chunks {
        for (m, &v) in lanes.iter_mut().zip(c) {
            *m = m.max(v);
        }
    }
    for (m, &v) in lanes.iter_mut().zip(tail) {
        *m = m.max(v);
    }
    lanes.into_iter().fold(f32::NEG_INFINITY, f32::max)
}

/// [`info_nce`] into reusable buffers: bit-identical loss and gradients
/// (read via [`InfoNceScratch::d_z1`]/[`InfoNceScratch::d_z2`]), zero
/// matrix allocations once the scratch is warm.
///
/// The backward pass is fully GEMM-based. With `G12`/`G21`/`G11`/`G22` the
/// gradient-coefficient blocks produced by `nt_xent_rows` (so
/// `Gab[i][j] = ∂L/∂(u_a·u_b)[i][j]`), the chain rule gives
/// `du1 = (G12 + G21^T)·u2 + (G11 + G11^T)·u1` and
/// `du2 = (G12 + G21^T)^T·u1 + (G22 + G22^T)·u2`, all computed by the
/// blocked [`Matrix::matmul_into`]/[`Matrix::transpose_matmul_into`]
/// kernels. The `s11`/`s22` Gram blocks come from [`Matrix::syrk_into`]
/// (half the dot products of a full `matmul_transpose`, mirrored).
pub fn info_nce_with(z1: &Matrix, z2: &Matrix, tau: f32, s: &mut InfoNceScratch) -> f32 {
    let n = z1.rows();
    assert_eq!(z2.rows(), n);
    assert_eq!(z1.cols(), z2.cols());
    assert!(n >= 2, "InfoNCE needs at least 2 anchors");
    // Normalise rows, remembering norms for the Jacobian.
    normalize_rows_into(z1, &mut s.u1, &mut s.n1);
    normalize_rows_into(z2, &mut s.u2, &mut s.n2);
    let inv_tau = 1.0 / tau;
    s.u1.matmul_transpose_into(&s.u2, &mut s.s12); // s12[i][j] = u1_i · u2_j
    s.u1.syrk_into(&mut s.s11);
    s.u2.syrk_into(&mut s.s22);
    // Snapshot s21 = s12^T before the in-place row pass consumes s12. The
    // row pass scales by `inv_tau` itself: an elementwise scale commutes
    // with the transpose, so these are the bits of scaling first.
    s.s12.transpose_into(&mut s.s21);

    let scale = 1.0 / (2 * n) as f32;
    s.loss1.clear();
    s.loss1.resize(n, 0.0);
    s.loss2.clear();
    s.loss2.resize(n, 0.0);
    nt_xent_rows(&mut s.s12, &mut s.s11, scale, inv_tau, &mut s.loss1);
    nt_xent_rows(&mut s.s21, &mut s.s22, scale, inv_tau, &mut s.loss2);
    // Per-anchor terms are summed serially in a fixed order (side 1 rows
    // ascending, then side 2), independent of the thread count.
    let mut loss = 0.0f64;
    for &l in &s.loss1 {
        loss += f64::from(l);
    }
    for &l in &s.loss2 {
        loss += f64::from(l);
    }

    // Gradient GEMMs (see the function docs for the algebra).
    s.s12.add_transpose_assign(&s.s21); // s12 <- H = G12 + G21^T
    s.s11.symmetrize_additive(); // s11 <- G11 + G11^T
    s.s22.symmetrize_additive(); // s22 <- G22 + G22^T
    s.s12.matmul_into(&s.u2, &mut s.du1); // du1 = H·u2 ...
    s.s11.matmul_into(&s.u1, &mut s.gtmp);
    s.du1.add_assign(&s.gtmp); // ... + (G11+G11^T)·u1
    s.s12.transpose_matmul_into(&s.u1, &mut s.du2); // du2 = H^T·u1 ...
    s.s22.matmul_into(&s.u2, &mut s.gtmp);
    s.du2.add_assign(&s.gtmp); // ... + (G22+G22^T)·u2

    normalize_backward_into(&s.u1, &s.n1, &s.du1, &mut s.d_z1);
    normalize_backward_into(&s.u2, &s.n2, &s.du2, &mut s.d_z2);
    loss as f32
}

/// Row-normalises, returning `(U, norms)` with zero rows left as zero.
pub fn normalize_rows(z: &Matrix) -> (Matrix, Vec<f32>) {
    let mut u = Matrix::default();
    let mut norms = Vec::new();
    normalize_rows_into(z, &mut u, &mut norms);
    (u, norms)
}

/// [`normalize_rows`] into reusable buffers. Parallel over rows (each row
/// is independent, so the result is thread-count invariant).
pub fn normalize_rows_into(z: &Matrix, u: &mut Matrix, norms: &mut Vec<f32>) {
    u.copy_from(z);
    norms.clear();
    norms.resize(z.rows(), 1e-12);
    let cols = z.cols();
    if cols == 0 {
        return;
    }
    u.as_mut_slice()
        .par_chunks_mut(cols)
        .zip(norms.par_iter_mut())
        .for_each(|(row, nrm)| {
            let n = ops::norm(row).max(1e-12);
            *nrm = n;
            for v in row {
                *v /= n;
            }
        });
}

/// Jacobian of row normalisation: `dz = (du − (du·u)u) / ||z||`.
pub fn normalize_backward(u: &Matrix, norms: &[f32], du: &Matrix) -> Matrix {
    let mut dz = Matrix::default();
    normalize_backward_into(u, norms, du, &mut dz);
    dz
}

/// [`normalize_backward`] into a reusable buffer. Parallel over rows (each
/// row is independent, so the result is thread-count invariant).
pub fn normalize_backward_into(u: &Matrix, norms: &[f32], du: &Matrix, dz: &mut Matrix) {
    dz.reset_zeroed(u.rows(), u.cols());
    assert_eq!(norms.len(), u.rows());
    let cols = u.cols();
    if cols == 0 {
        return;
    }
    dz.as_mut_slice()
        .par_chunks_mut(cols)
        .zip(norms.par_iter())
        .enumerate()
        .for_each(|(r, (out, &norm_r))| {
            let ur = u.row(r);
            let dur = du.row(r);
            let proj = ops::dot(dur, ur);
            for ((o, &d), &uv) in out.iter_mut().zip(dur).zip(ur) {
                *o = (d - proj * uv) / norm_r;
            }
        });
}

/// Binary cross-entropy with logits; `targets` in `{0,1}`. Returns
/// `(mean loss, ∂L/∂logits)`.
pub fn bce_with_logits(logits: &[f32], targets: &[f32]) -> (f32, Vec<f32>) {
    assert_eq!(logits.len(), targets.len());
    let n = logits.len().max(1) as f32;
    let mut loss = 0.0f64;
    let mut grad = Vec::with_capacity(logits.len());
    for (&x, &t) in logits.iter().zip(targets) {
        // loss = softplus(x) − t·x (stable for both signs).
        loss += f64::from(activations::softplus(x) - t * x) / f64::from(n);
        grad.push((activations::sigmoid(x) - t) / n);
    }
    (loss as f32, grad)
}

/// Softmax cross-entropy over rows; `labels[r]` is the true class of row
/// `r`. Returns `(mean loss, ∂L/∂logits)`.
pub fn softmax_cross_entropy(logits: &Matrix, labels: &[usize]) -> (f32, Matrix) {
    assert_eq!(logits.rows(), labels.len());
    let n = logits.rows().max(1) as f32;
    let mut probs = logits.clone();
    activations::softmax_rows_inplace(&mut probs);
    let mut loss = 0.0f64;
    let mut grad = probs.clone();
    for (r, &y) in labels.iter().enumerate() {
        assert!(y < logits.cols(), "label {y} out of range");
        loss -= f64::from(probs.get(r, y).max(1e-12).ln()) / f64::from(n);
        grad.set(r, y, grad.get(r, y) - 1.0);
    }
    grad.scale(1.0 / n);
    (loss as f32, grad)
}

/// BGRL's bootstrap objective: `mean_i (2 − 2 cos(online_i, target_i))`.
/// Gradients flow only into `online` (the target network is EMA-updated).
pub fn cosine_bootstrap(online: &Matrix, target: &Matrix) -> (f32, Matrix) {
    let mut grad = Matrix::default();
    let loss = cosine_bootstrap_with(online, target, &mut grad);
    (loss, grad)
}

/// [`cosine_bootstrap`] into a reusable gradient buffer.
pub fn cosine_bootstrap_with(online: &Matrix, target: &Matrix, grad: &mut Matrix) -> f32 {
    let n = online.rows();
    assert_eq!(target.rows(), n);
    assert_eq!(online.cols(), target.cols());
    let inv_n = 1.0 / n.max(1) as f32;
    let mut loss = 0.0f64;
    grad.reset_zeroed(online.rows(), online.cols());
    for r in 0..n {
        let o = online.row(r);
        let t = target.row(r);
        let no = ops::norm(o).max(1e-12);
        let nt = ops::norm(t).max(1e-12);
        let cos = ops::dot(o, t) / (no * nt);
        loss += f64::from((2.0 - 2.0 * cos) * inv_n);
        // d(−2cos)/do = −2 (t/(no·nt) − cos·o/no²).
        let g = grad.row_mut(r);
        for ((gv, &ov), &tv) in g.iter_mut().zip(o).zip(t) {
            *gv = -2.0 * inv_n * (tv / (no * nt) - cos * ov / (no * no));
        }
    }
    loss as f32
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

    /// Generic central finite-difference check against an analytic gradient.
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

    #[test]
    fn margin_loss_zero_for_identical_views_and_far_negatives() {
        let h = rand_matrix(3, 4, 0);
        let mut neg = rand_matrix(2, 4, 1);
        neg.scale(100.0); // negatives far beyond the margin
        let negatives = vec![vec![0, 1]; 3];
        let out = margin_contrastive(&h, &h, &neg, &negatives, 1.0);
        assert!(out.loss.abs() < 1e-6, "loss {}", out.loss);
        assert!(out.d_hat.frobenius_norm() < 1e-6);
    }

    #[test]
    fn margin_loss_grad_check() {
        let h_hat = rand_matrix(3, 4, 2);
        let h_tilde = rand_matrix(3, 4, 3);
        let neg = rand_matrix(4, 4, 4);
        let negatives = vec![vec![0, 2], vec![1], vec![0, 1, 3]];
        let margin = 5.0;
        let out = margin_contrastive(&h_hat, &h_tilde, &neg, &negatives, margin);
        fd_check(
            &h_hat,
            &out.d_hat,
            |x| margin_contrastive(x, &h_tilde, &neg, &negatives, margin).loss,
            5e-2,
            "d_hat",
        );
        fd_check(
            &h_tilde,
            &out.d_tilde,
            |x| margin_contrastive(&h_hat, x, &neg, &negatives, margin).loss,
            5e-2,
            "d_tilde",
        );
        fd_check(
            &neg,
            &out.d_neg,
            |x| margin_contrastive(&h_hat, &h_tilde, x, &negatives, margin).loss,
            5e-2,
            "d_neg",
        );
    }

    #[test]
    fn margin_infinite_matches_paper_form() {
        let h_hat = rand_matrix(2, 3, 5);
        let h_tilde = rand_matrix(2, 3, 6);
        let neg = rand_matrix(2, 3, 7);
        let negatives = vec![vec![0], vec![1]];
        let out = margin_contrastive(&h_hat, &h_tilde, &neg, &negatives, f32::INFINITY);
        // Manual Eq. (5).
        let mut expect = 0.0f32;
        for (v, negs) in negatives.iter().enumerate() {
            expect += ops::sq_dist(h_hat.row(v), h_tilde.row(v));
            let u = negs[0];
            expect -= (ops::sq_dist(h_hat.row(v), neg.row(u))
                + ops::sq_dist(h_tilde.row(v), neg.row(u)))
                / 2.0;
        }
        expect /= 2.0;
        assert!((out.loss - expect).abs() < 1e-4, "{} vs {expect}", out.loss);
    }

    #[test]
    fn info_nce_grad_check() {
        let z1 = rand_matrix(4, 3, 8);
        let z2 = rand_matrix(4, 3, 9);
        let out = info_nce(&z1, &z2, 0.5);
        fd_check(&z1, &out.d_z1, |x| info_nce(x, &z2, 0.5).loss, 5e-2, "d_z1");
        fd_check(&z2, &out.d_z2, |x| info_nce(&z1, x, 0.5).loss, 5e-2, "d_z2");
    }

    #[test]
    fn info_nce_prefers_aligned_views() {
        let z = rand_matrix(6, 4, 10);
        let aligned = info_nce(&z, &z, 0.5).loss;
        let shuffled = {
            let mut rows: Vec<usize> = (0..6).collect();
            rows.rotate_left(1);
            info_nce(&z, &z.select_rows(&rows), 0.5).loss
        };
        assert!(aligned < shuffled, "{aligned} !< {shuffled}");
    }

    /// The scratch-path losses must be bit-identical to the allocating
    /// entry points, cold and warm.
    #[test]
    fn scratch_paths_match_allocating_paths_bitwise() {
        let z1 = rand_matrix(5, 4, 20);
        let z2 = rand_matrix(5, 4, 21);
        let nce = info_nce(&z1, &z2, 0.7);
        let mut s = InfoNceScratch::default();
        for _ in 0..2 {
            let loss = info_nce_with(&z1, &z2, 0.7, &mut s);
            assert_eq!(loss, nce.loss);
            assert_eq!(s.d_z1(), &nce.d_z1);
            assert_eq!(s.d_z2(), &nce.d_z2);
        }

        let h_hat = rand_matrix(3, 4, 22);
        let h_tilde = rand_matrix(3, 4, 23);
        let neg = rand_matrix(4, 4, 24);
        let negatives = vec![vec![0, 2], vec![1], vec![0, 1, 3]];
        let m = margin_contrastive(&h_hat, &h_tilde, &neg, &negatives, 2.0);
        let mut ms = MarginScratch::default();
        for _ in 0..2 {
            let loss = margin_contrastive_with(&h_hat, &h_tilde, &neg, &negatives, 2.0, &mut ms);
            assert_eq!(loss, m.loss);
            assert_eq!(ms.d_hat(), &m.d_hat);
            assert_eq!(ms.d_tilde(), &m.d_tilde);
            assert_eq!(ms.d_neg(), &m.d_neg);
        }

        let o = rand_matrix(3, 4, 25);
        let t = rand_matrix(3, 4, 26);
        let (cl, cg) = cosine_bootstrap(&o, &t);
        let mut grad = Matrix::default();
        for _ in 0..2 {
            let loss = cosine_bootstrap_with(&o, &t, &mut grad);
            assert_eq!(loss, cl);
            assert_eq!(grad, cg);
        }
    }

    #[test]
    fn warm_scratch_at_a_new_shape_matches_a_cold_one() {
        // The ragged last mini-batch reuses a scratch warmed at a larger
        // batch; every buffer must be re-shaped, never read stale.
        let mut s = InfoNceScratch::default();
        let (z1, z2) = (rand_matrix(5, 4, 30), rand_matrix(5, 4, 31));
        info_nce_with(&z1, &z2, 0.5, &mut s);
        for (rows, seed) in [(3, 32), (7, 34)] {
            let (w1, w2) = (rand_matrix(rows, 4, seed), rand_matrix(rows, 4, seed + 1));
            let warm = info_nce_with(&w1, &w2, 0.5, &mut s);
            let cold = info_nce(&w1, &w2, 0.5);
            assert_eq!(warm.to_bits(), cold.loss.to_bits());
            assert_eq!(s.d_z1(), &cold.d_z1);
            assert_eq!(s.d_z2(), &cold.d_z2);
        }
    }

    #[test]
    fn bce_known_values_and_grad() {
        let (loss, grad) = bce_with_logits(&[0.0, 0.0], &[1.0, 0.0]);
        assert!((loss - 2.0f32.ln()).abs() < 1e-6);
        assert!((grad[0] + 0.25).abs() < 1e-6); // (σ(0)−1)/2
        assert!((grad[1] - 0.25).abs() < 1e-6);
        // Extreme logits stay finite.
        let (l2, g2) = bce_with_logits(&[100.0, -100.0], &[1.0, 0.0]);
        assert!(l2.is_finite() && l2 < 1e-3);
        assert!(g2.iter().all(|g| g.is_finite()));
    }

    #[test]
    fn cross_entropy_grad_check() {
        let logits = rand_matrix(3, 4, 11);
        let labels = vec![0, 3, 2];
        let (_, grad) = softmax_cross_entropy(&logits, &labels);
        fd_check(
            &logits,
            &grad,
            |x| softmax_cross_entropy(x, &labels).0,
            5e-2,
            "dlogits",
        );
    }

    #[test]
    fn cross_entropy_perfect_prediction_near_zero() {
        let mut logits = Matrix::zeros(2, 3);
        logits.set(0, 1, 30.0);
        logits.set(1, 0, 30.0);
        let (loss, _) = softmax_cross_entropy(&logits, &[1, 0]);
        assert!(loss < 1e-5);
    }

    #[test]
    fn cosine_bootstrap_zero_when_aligned() {
        let o = rand_matrix(3, 4, 12);
        let mut t = o.clone();
        t.scale(3.0); // cosine invariant to scale
        let (loss, grad) = cosine_bootstrap(&o, &t);
        assert!(loss.abs() < 1e-5);
        assert!(grad.frobenius_norm() < 1e-4);
    }

    #[test]
    fn cosine_bootstrap_grad_check() {
        let o = rand_matrix(3, 4, 13);
        let t = rand_matrix(3, 4, 14);
        let (_, grad) = cosine_bootstrap(&o, &t);
        fd_check(&o, &grad, |x| cosine_bootstrap(x, &t).0, 5e-2, "donline");
    }
}
