//! Element-wise activations and their derivatives.

use crate::Matrix;

/// ReLU applied in place.
pub fn relu_inplace(m: &mut Matrix) {
    m.map_inplace(|v| v.max(0.0));
}

/// Derivative mask of ReLU evaluated at the *pre-activation* `z`:
/// 1 where `z > 0`, else 0.
pub fn relu_grad_mask(z: &Matrix) -> Matrix {
    z.map(|v| if v > 0.0 { 1.0 } else { 0.0 })
}

/// Numerically-stable logistic sigmoid.
#[inline]
pub fn sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// Multiplies `dst` element-wise by the ReLU gradient mask of the
/// pre-activation `z` without materialising the mask matrix. Bit-identical
/// to `dst.mul_assign_elem(&relu_grad_mask(z))`.
pub fn relu_mask_mul_inplace(dst: &mut Matrix, z: &Matrix) {
    assert_eq!(dst.shape(), z.shape(), "relu mask shape mismatch");
    for (d, &v) in dst.as_mut_slice().iter_mut().zip(z.as_slice()) {
        *d *= if v > 0.0 { 1.0 } else { 0.0 };
    }
}

/// PReLU-free ELU (alpha = 1), used by some projection heads.
pub fn elu_inplace(m: &mut Matrix) {
    m.map_inplace(|v| if v > 0.0 { v } else { v.exp_m1() });
}

/// Derivative of ELU at pre-activation `z`.
pub fn elu_grad_mask(z: &Matrix) -> Matrix {
    z.map(|v| if v > 0.0 { 1.0 } else { v.exp() })
}

/// Multiplies `dst` element-wise by the ELU gradient mask of the
/// pre-activation `z` without materialising the mask matrix. Bit-identical
/// to `dst.mul_assign_elem(&elu_grad_mask(z))`.
pub fn elu_mask_mul_inplace(dst: &mut Matrix, z: &Matrix) {
    assert_eq!(dst.shape(), z.shape(), "elu mask shape mismatch");
    for (d, &v) in dst.as_mut_slice().iter_mut().zip(z.as_slice()) {
        *d *= if v > 0.0 { 1.0 } else { v.exp() };
    }
}

/// Row-wise softmax in place (stable: subtracts the row max).
pub fn softmax_rows_inplace(m: &mut Matrix) {
    let cols = m.cols();
    for r in 0..m.rows() {
        let row = m.row_mut(r);
        let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        if sum > 0.0 {
            for v in row.iter_mut() {
                *v /= sum;
            }
        } else {
            for v in row.iter_mut() {
                *v = 1.0 / cols as f32;
            }
        }
    }
}

/// Stable `ln(1 + e^x)`.
#[inline]
pub fn softplus(x: f32) -> f32 {
    if x > 20.0 {
        x
    } else if x < -20.0 {
        x.exp()
    } else {
        x.exp().ln_1p()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_clamps_negative() {
        let mut m = Matrix::from_rows(&[&[-1.0, 2.0], &[0.0, -3.0]]);
        relu_inplace(&mut m);
        assert_eq!(m, Matrix::from_rows(&[&[0.0, 2.0], &[0.0, 0.0]]));
    }

    #[test]
    fn relu_mask_matches_sign() {
        let z = Matrix::from_rows(&[&[-1.0, 2.0, 0.0]]);
        let g = relu_grad_mask(&z);
        assert_eq!(g, Matrix::from_rows(&[&[0.0, 1.0, 0.0]]));
    }

    #[test]
    fn sigmoid_symmetry_and_stability() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-7);
        assert!((sigmoid(5.0) + sigmoid(-5.0) - 1.0).abs() < 1e-6);
        assert!(sigmoid(1000.0).is_finite());
        assert!(sigmoid(-1000.0).is_finite());
        assert!(sigmoid(-1000.0) >= 0.0);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let mut m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[-5.0, 0.0, 5.0]]);
        softmax_rows_inplace(&mut m);
        for r in 0..2 {
            let s: f32 = m.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-6);
            assert!(m.row(r).iter().all(|&v| v >= 0.0));
        }
        // Monotone: larger logits get larger probability.
        assert!(m.get(0, 2) > m.get(0, 1) && m.get(0, 1) > m.get(0, 0));
    }

    #[test]
    fn softmax_handles_extreme_logits() {
        let mut m = Matrix::from_rows(&[&[1000.0, 1000.0]]);
        softmax_rows_inplace(&mut m);
        assert!((m.get(0, 0) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn softplus_stable() {
        assert!((softplus(0.0) - 2.0f32.ln()).abs() < 1e-6);
        assert!((softplus(50.0) - 50.0).abs() < 1e-4);
        assert!(softplus(-50.0) >= 0.0);
    }

    #[test]
    fn fused_masks_match_materialised_masks() {
        let z = Matrix::from_rows(&[&[-1.5, 0.0, 2.0], &[0.3, -0.1, -7.0]]);
        let d = Matrix::from_rows(&[&[1.0, -2.0, 3.0], &[0.5, 4.0, -1.0]]);
        let mut relu_fused = d.clone();
        relu_mask_mul_inplace(&mut relu_fused, &z);
        let mut relu_ref = d.clone();
        relu_ref.mul_assign_elem(&relu_grad_mask(&z));
        assert_eq!(relu_fused, relu_ref);
        let mut elu_fused = d.clone();
        elu_mask_mul_inplace(&mut elu_fused, &z);
        let mut elu_ref = d.clone();
        elu_ref.mul_assign_elem(&elu_grad_mask(&z));
        assert_eq!(elu_fused, elu_ref);
    }

    #[test]
    fn elu_continuous_at_zero() {
        let z = Matrix::from_rows(&[&[-1e-4, 1e-4]]);
        let mut m = z.clone();
        elu_inplace(&mut m);
        assert!((m.get(0, 0) - m.get(0, 1)).abs() < 1e-3);
    }
}
