//! Parameter initialisers.

use crate::{Matrix, SeedRng};

/// Glorot/Xavier uniform initialisation: `U(-a, a)` with
/// `a = sqrt(6 / (fan_in + fan_out))` — the standard GCN initialiser.
pub fn xavier_uniform(rows: usize, cols: usize, rng: &mut SeedRng) -> Matrix {
    let a = (6.0 / (rows + cols) as f32).sqrt();
    let mut m = Matrix::zeros(rows, cols);
    for v in m.as_mut_slice() {
        *v = rng.uniform_range(-a, a);
    }
    m
}

/// Uniform initialisation in `[lo, hi)`.
pub fn uniform(rows: usize, cols: usize, lo: f32, hi: f32, rng: &mut SeedRng) -> Matrix {
    let mut m = Matrix::zeros(rows, cols);
    for v in m.as_mut_slice() {
        *v = rng.uniform_range(lo, hi);
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xavier_within_bound() {
        let mut rng = SeedRng::new(0);
        let m = xavier_uniform(10, 20, &mut rng);
        let a = (6.0 / 30.0f32).sqrt();
        assert!(m.as_slice().iter().all(|v| v.abs() <= a));
        // Not all zero.
        assert!(m.frobenius_norm() > 0.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = xavier_uniform(4, 4, &mut SeedRng::new(9));
        let b = xavier_uniform(4, 4, &mut SeedRng::new(9));
        assert_eq!(a, b);
    }
}
