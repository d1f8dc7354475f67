//! Linear layers and small MLPs (projection heads, decoders).

use e2gcl_linalg::{activations, init, Matrix, SeedRng};

/// A dense layer `Y = X W + b`.
#[derive(Clone, Debug)]
pub struct Linear {
    /// Weight matrix (`in x out`).
    pub w: Matrix,
    /// Bias (`out`).
    pub b: Vec<f32>,
}

/// Cache for [`Linear::backward`].
#[derive(Debug)]
pub struct LinearCache {
    input: Matrix,
}

/// Gradients of a linear layer.
#[derive(Debug, Default)]
pub struct LinearGrads {
    /// `∂L/∂W`.
    pub dw: Matrix,
    /// `∂L/∂b`.
    pub db: Vec<f32>,
    /// `∂L/∂X` (for chaining).
    pub dx: Matrix,
}

impl Linear {
    /// Xavier-initialised layer.
    pub fn new(d_in: usize, d_out: usize, rng: &mut SeedRng) -> Self {
        Self {
            w: init::xavier_uniform(d_in, d_out, rng),
            b: vec![0.0; d_out],
        }
    }

    /// Forward pass with cache.
    pub fn forward(&self, x: &Matrix) -> (Matrix, LinearCache) {
        let mut y = x.matmul(&self.w);
        y.add_row_broadcast(&self.b);
        (y, LinearCache { input: x.clone() })
    }

    /// Inference-only forward.
    pub fn apply(&self, x: &Matrix) -> Matrix {
        let mut y = x.matmul(&self.w);
        y.add_row_broadcast(&self.b);
        y
    }

    /// Backward pass given `∂L/∂Y`.
    pub fn backward(&self, cache: &LinearCache, dy: &Matrix) -> LinearGrads {
        let dw = cache.input.transpose_matmul(dy);
        let mut db = vec![0.0f32; self.b.len()];
        for r in 0..dy.rows() {
            for (acc, &g) in db.iter_mut().zip(dy.row(r)) {
                *acc += g;
            }
        }
        let dx = dy.matmul_transpose(&self.w);
        LinearGrads { dw, db, dx }
    }

    /// SGD-style in-place update (used by probes; encoders go through
    /// [`crate::optim`]).
    pub fn step(&mut self, grads: &LinearGrads, lr: f32, weight_decay: f32) {
        if weight_decay > 0.0 {
            let wd = self.w.clone();
            self.w.axpy(-lr * weight_decay, &wd);
        }
        self.w.axpy(-lr, &grads.dw);
        for (b, &g) in self.b.iter_mut().zip(&grads.db) {
            *b -= lr * g;
        }
    }
}

/// A two-layer MLP `Y = ELU(X W1 + b1) W2 + b2` — the projection head used
/// by GRACE/GCA-style InfoNCE training.
#[derive(Clone, Debug)]
pub struct Mlp {
    /// First layer.
    pub l1: Linear,
    /// Second layer.
    pub l2: Linear,
}

/// Gradients of an MLP.
#[derive(Debug, Default)]
pub struct MlpGrads {
    /// First-layer gradients.
    pub g1: LinearGrads,
    /// Second-layer gradients.
    pub g2: LinearGrads,
}

/// Reusable forward/backward buffers for one [`Mlp`] data flow (projection
/// heads in the per-epoch hot path). See [`crate::gcn::GcnWorkspace`] for
/// the allocation-reuse contract.
///
/// The input is not cached: pass the *same* `x` to
/// [`Mlp::backward_with`] that the preceding [`Mlp::forward_with`] saw.
#[derive(Debug, Default)]
pub struct MlpWorkspace {
    /// First-layer pre-activation `Z1`.
    z1: Matrix,
    /// `ELU(Z1)`.
    a1: Matrix,
    /// Head output `Y`.
    y: Matrix,
    /// Backward: `∂L/∂A1`.
    da1: Matrix,
    /// Gradients of both layers; `grads.g1.dx` is the input gradient
    /// ([`MlpWorkspace::d_input`]).
    grads: MlpGrads,
}

impl MlpWorkspace {
    /// An empty workspace; buffers are grown on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Head output from the last [`Mlp::forward_with`].
    pub fn output(&self) -> &Matrix {
        &self.y
    }

    /// Layer gradients from the last [`Mlp::backward_with`] (feed to
    /// [`Mlp::step`]).
    pub fn grads(&self) -> &MlpGrads {
        &self.grads
    }

    /// `∂L/∂X` from the last [`Mlp::backward_with`].
    pub fn d_input(&self) -> &Matrix {
        &self.grads.g1.dx
    }
}

/// Column sums of `m` into a reusable vector (the bias gradient), in the
/// accumulation order of [`Linear::backward`].
fn col_sums_into(m: &Matrix, out: &mut Vec<f32>, len: usize) {
    out.clear();
    out.resize(len, 0.0);
    for r in 0..m.rows() {
        for (acc, &g) in out.iter_mut().zip(m.row(r)) {
            *acc += g;
        }
    }
}

impl Mlp {
    /// Builds a `d_in -> hidden -> d_out` head.
    pub fn new(d_in: usize, hidden: usize, d_out: usize, rng: &mut SeedRng) -> Self {
        Self {
            l1: Linear::new(d_in, hidden, rng),
            l2: Linear::new(hidden, d_out, rng),
        }
    }

    /// Inference-only forward.
    pub fn apply(&self, x: &Matrix) -> Matrix {
        let mut a1 = self.l1.apply(x);
        activations::elu_inplace(&mut a1);
        self.l2.apply(&a1)
    }

    /// In-place SGD update.
    pub fn step(&mut self, grads: &MlpGrads, lr: f32, weight_decay: f32) {
        self.l1.step(&grads.g1, lr, weight_decay);
        self.l2.step(&grads.g2, lr, weight_decay);
    }

    /// Training forward pass into `ws`: the head output
    /// ([`MlpWorkspace::output`]) and the activations the backward pass
    /// needs, with zero matrix allocations once `ws` is warm.
    pub fn forward_with(&self, x: &Matrix, ws: &mut MlpWorkspace) {
        x.matmul_into(&self.l1.w, &mut ws.z1);
        ws.z1.add_row_broadcast(&self.l1.b);
        ws.a1.copy_from(&ws.z1);
        activations::elu_inplace(&mut ws.a1);
        ws.a1.matmul_into(&self.l2.w, &mut ws.y);
        ws.y.add_row_broadcast(&self.l2.b);
    }

    /// Backward pass given `∂L/∂Y`, into the same workspace as the preceding
    /// [`Self::forward_with`] (pass the *same* `x`): layer gradients
    /// ([`MlpWorkspace::grads`]) and `∂L/∂X` ([`MlpWorkspace::d_input`]).
    pub fn backward_with(&self, x: &Matrix, dy: &Matrix, ws: &mut MlpWorkspace) {
        ws.a1.transpose_matmul_into(dy, &mut ws.grads.g2.dw);
        col_sums_into(dy, &mut ws.grads.g2.db, self.l2.b.len());
        dy.matmul_transpose_into(&self.l2.w, &mut ws.grads.g2.dx);
        ws.da1.copy_from(&ws.grads.g2.dx);
        activations::elu_mask_mul_inplace(&mut ws.da1, &ws.z1);
        x.transpose_matmul_into(&ws.da1, &mut ws.grads.g1.dw);
        col_sums_into(&ws.da1, &mut ws.grads.g1.db, self.l1.b.len());
        ws.da1
            .matmul_transpose_into(&self.l1.w, &mut ws.grads.g1.dx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_forward_known() {
        let mut l = Linear::new(2, 1, &mut SeedRng::new(0));
        l.w = Matrix::from_rows(&[&[1.0], &[2.0]]);
        l.b = vec![0.5];
        let x = Matrix::from_rows(&[&[1.0, 1.0], &[0.0, 3.0]]);
        let (y, _) = l.forward(&x);
        assert_eq!(y, Matrix::from_rows(&[&[3.5], &[6.5]]));
    }

    #[test]
    fn linear_grad_check() {
        let mut rng = SeedRng::new(1);
        let l = Linear::new(3, 2, &mut rng);
        let x = Matrix::from_rows(&[&[0.3, -0.7, 1.2], &[1.0, 0.1, -0.4]]);
        let (y, cache) = l.forward(&x);
        // L = 0.5 ||Y||^2 so dL/dY = Y.
        let grads = l.backward(&cache, &y);
        let eps = 1e-3;
        // Check dW numerically.
        let mut l2 = l.clone();
        for r in 0..3 {
            for c in 0..2 {
                let orig = l2.w.get(r, c);
                l2.w.set(r, c, orig + eps);
                let lp = 0.5 * l2.apply(&x).as_slice().iter().map(|v| v * v).sum::<f32>();
                l2.w.set(r, c, orig - eps);
                let lm = 0.5 * l2.apply(&x).as_slice().iter().map(|v| v * v).sum::<f32>();
                l2.w.set(r, c, orig);
                let fd = (lp - lm) / (2.0 * eps);
                assert!((fd - grads.dw.get(r, c)).abs() < 1e-2, "dW({r},{c})");
            }
        }
        // Check dX numerically.
        let mut xm = x.clone();
        for r in 0..2 {
            for c in 0..3 {
                let orig = xm.get(r, c);
                xm.set(r, c, orig + eps);
                let lp = 0.5 * l.apply(&xm).as_slice().iter().map(|v| v * v).sum::<f32>();
                xm.set(r, c, orig - eps);
                let lm = 0.5 * l.apply(&xm).as_slice().iter().map(|v| v * v).sum::<f32>();
                xm.set(r, c, orig);
                let fd = (lp - lm) / (2.0 * eps);
                assert!((fd - grads.dx.get(r, c)).abs() < 1e-2, "dX({r},{c})");
            }
        }
    }

    #[test]
    fn mlp_grad_check_input() {
        let mut rng = SeedRng::new(2);
        let m = Mlp::new(3, 4, 2, &mut rng);
        let x = Matrix::from_rows(&[&[0.5, -0.2, 0.8]]);
        let mut ws = MlpWorkspace::new();
        m.forward_with(&x, &mut ws);
        let y = ws.output().clone();
        assert_eq!(y, m.apply(&x));
        m.backward_with(&x, &y, &mut ws);
        let dx = ws.d_input();
        let eps = 1e-3;
        let mut xm = x.clone();
        for c in 0..3 {
            let orig = xm.get(0, c);
            xm.set(0, c, orig + eps);
            let lp = 0.5 * m.apply(&xm).as_slice().iter().map(|v| v * v).sum::<f32>();
            xm.set(0, c, orig - eps);
            let lm = 0.5 * m.apply(&xm).as_slice().iter().map(|v| v * v).sum::<f32>();
            xm.set(0, c, orig);
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - dx.get(0, c)).abs() < 2e-2 * (1.0 + fd.abs()),
                "dX(0,{c}): {fd} vs {}",
                dx.get(0, c)
            );
        }
    }

    #[test]
    fn step_moves_against_gradient() {
        let mut rng = SeedRng::new(3);
        let mut l = Linear::new(2, 2, &mut rng);
        let x = Matrix::from_rows(&[&[1.0, -1.0]]);
        let before = {
            let y = l.apply(&x);
            0.5 * y.as_slice().iter().map(|v| v * v).sum::<f32>()
        };
        for _ in 0..50 {
            let (y, cache) = l.forward(&x);
            let grads = l.backward(&cache, &y);
            l.step(&grads, 0.1, 0.0);
        }
        let after = {
            let y = l.apply(&x);
            0.5 * y.as_slice().iter().map(|v| v * v).sum::<f32>()
        };
        assert!(
            after < before * 0.1,
            "loss should shrink: {before} -> {after}"
        );
    }
}
