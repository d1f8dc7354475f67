//! Vector helpers shared across the workspace.

/// Dot product of two equal-length slices.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(&x, &y)| x * y).sum()
}

/// Squared Euclidean distance between two slices.
#[inline]
pub fn sq_dist(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(&x, &y)| {
            let d = x - y;
            d * d
        })
        .sum()
}

/// Euclidean distance.
#[inline]
pub fn dist(a: &[f32], b: &[f32]) -> f32 {
    sq_dist(a, b).sqrt()
}

/// L2 norm of a slice.
#[inline]
pub fn norm(a: &[f32]) -> f32 {
    dot(a, a).sqrt()
}

/// Cosine similarity; returns 0 for zero vectors.
pub fn cosine(a: &[f32], b: &[f32]) -> f32 {
    let na = norm(a);
    let nb = norm(b);
    if na < 1e-12 || nb < 1e-12 {
        0.0
    } else {
        dot(a, b) / (na * nb)
    }
}

/// Dot product with four independent partial sums so the reduction
/// autovectorizes: lane `l` accumulates elements `l, l+4, l+8, ...` in
/// ascending order, the lanes combine as `(s0 + s1) + (s2 + s3)`, and the
/// `len % 4` tail is added last in ascending order. The order is fixed by
/// construction, so the result is deterministic (but differs from the
/// single-accumulator [`dot`] in the last bits).
///
/// This is the element-level contract of the blocked
/// [`crate::Matrix::matmul_transpose`] and [`crate::Matrix::syrk_into`]
/// kernels: every output element they produce is bit-identical to
/// `lane_dot` of the corresponding rows.
#[inline]
pub fn lane_dot(a: &[f32], b: &[f32]) -> f32 {
    const LANES: usize = 4;
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0f32; LANES];
    for (ca, cb) in a.chunks_exact(LANES).zip(b.chunks_exact(LANES)) {
        for ((s, &x), &y) in acc.iter_mut().zip(ca).zip(cb) {
            *s += x * y;
        }
    }
    let mut s = (acc[0] + acc[1]) + (acc[2] + acc[3]);
    let tail = a.len() - a.len() % LANES;
    for (&x, &y) in a[tail..].iter().zip(&b[tail..]) {
        s += x * y;
    }
    s
}

/// Four [`lane_dot`]s of one row `a` against four equal-length rows,
/// register-tiled so every loaded chunk of `a` is reused four times (the
/// 1 x 4 analogue of the blocked GEMM micro-kernel's tile). Lane
/// decomposition, combine order and tail order are exactly those of
/// [`lane_dot`], so `out[j]` is bit-identical to `lane_dot(a, b_j)`.
#[inline]
pub fn lane_dot4(a: &[f32], b0: &[f32], b1: &[f32], b2: &[f32], b3: &[f32]) -> [f32; 4] {
    const LANES: usize = 4;
    debug_assert!(a.len() == b0.len() && a.len() == b1.len());
    debug_assert!(a.len() == b2.len() && a.len() == b3.len());
    let mut acc = [[0.0f32; LANES]; 4];
    let it = a
        .chunks_exact(LANES)
        .zip(b0.chunks_exact(LANES))
        .zip(b1.chunks_exact(LANES))
        .zip(b2.chunks_exact(LANES))
        .zip(b3.chunks_exact(LANES));
    for ((((ca, c0), c1), c2), c3) in it {
        for l in 0..LANES {
            let x = ca[l];
            acc[0][l] += x * c0[l];
            acc[1][l] += x * c1[l];
            acc[2][l] += x * c2[l];
            acc[3][l] += x * c3[l];
        }
    }
    let tail = a.len() - a.len() % LANES;
    let mut out = [0.0f32; 4];
    for (j, b) in [b0, b1, b2, b3].into_iter().enumerate() {
        let lanes = acc[j];
        let mut s = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
        for (&x, &y) in a[tail..].iter().zip(&b[tail..]) {
            s += x * y;
        }
        out[j] = s;
    }
    out
}

/// `y += s * x` for slices.
#[inline]
pub fn axpy_slice(y: &mut [f32], s: f32, x: &[f32]) {
    debug_assert_eq!(y.len(), x.len());
    for (yv, &xv) in y.iter_mut().zip(x) {
        *yv += s * xv;
    }
}

/// Index of the maximum value (first on ties). Returns `None` for empty input.
pub fn argmax(a: &[f32]) -> Option<usize> {
    if a.is_empty() {
        return None;
    }
    let mut best = 0;
    for (i, &v) in a.iter().enumerate().skip(1) {
        if v > a[best] {
            best = i;
        }
    }
    Some(best)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_norm() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        assert!((norm(&[3.0, 4.0]) - 5.0).abs() < 1e-6);
    }

    #[test]
    fn distances() {
        assert_eq!(sq_dist(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
        assert!((dist(&[0.0, 0.0], &[3.0, 4.0]) - 5.0).abs() < 1e-6);
    }

    #[test]
    fn lane_dot4_is_bitwise_lane_dot() {
        // Lengths straddling the LANES boundary, including ragged tails.
        for len in [1usize, 3, 4, 5, 7, 8, 13, 32, 33] {
            let gen = |salt: usize| -> Vec<f32> {
                (0..len)
                    .map(|i| ((i * 31 + salt * 17 + 7) % 23) as f32 / 7.0 - 1.5)
                    .collect()
            };
            let a = gen(0);
            let b: Vec<Vec<f32>> = (1..=4).map(gen).collect();
            let tiled = lane_dot4(&a, &b[0], &b[1], &b[2], &b[3]);
            for j in 0..4 {
                assert_eq!(
                    tiled[j].to_bits(),
                    lane_dot(&a, &b[j]).to_bits(),
                    "len {len}, row {j}"
                );
            }
        }
    }

    #[test]
    fn cosine_cases() {
        assert!((cosine(&[1.0, 0.0], &[1.0, 0.0]) - 1.0).abs() < 1e-6);
        assert!((cosine(&[1.0, 0.0], &[0.0, 1.0])).abs() < 1e-6);
        assert!((cosine(&[1.0, 0.0], &[-1.0, 0.0]) + 1.0).abs() < 1e-6);
        assert_eq!(cosine(&[0.0, 0.0], &[1.0, 1.0]), 0.0);
    }

    #[test]
    fn argmax_argmin_ties_and_empty() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0]), Some(1));
        assert_eq!(argmax(&[]), None);
    }

    #[test]
    fn axpy_slice_updates() {
        let mut y = vec![1.0, 1.0];
        axpy_slice(&mut y, 2.0, &[1.0, -1.0]);
        assert_eq!(y, vec![3.0, -1.0]);
    }
}
