//! SGC encoder (Wu et al. 2019): `H = A_n^L X W`.
//!
//! The "Simplifying Graph Convolutional Networks" model — exactly the
//! relaxation the paper's Theorem 1 analyses. A second encoder family lets
//! us demonstrate the §IV-C *Remarks*: the view generator is
//! encoder-agnostic, so swapping the GCN for SGC changes nothing upstream.

use e2gcl_graph::SparseMatrix;
use e2gcl_linalg::{init, Matrix, SeedRng};

/// The SGC encoder `f_θ(G) = A_n^L X W` (one linear map after `L`
/// parameter-free propagation steps).
#[derive(Clone, Debug)]
pub struct SgcEncoder {
    /// Propagation depth `L`.
    pub layers: usize,
    /// The single weight matrix (`d_x x d_out`).
    w: Matrix,
}

/// Reusable forward/backward buffers for one SGC data flow (see
/// [`crate::gcn::GcnWorkspace`] for the contract).
#[derive(Debug, Default)]
pub struct SgcWorkspace {
    /// `A_n^L X` — the propagated features.
    propagated: Matrix,
    /// Staging for one propagation step.
    step: Matrix,
    /// Embeddings `H = A_n^L X W`.
    out: Matrix,
    /// `[∂L/∂W]`, [`SgcEncoder::params`] order.
    grads: Vec<Matrix>,
}

impl SgcWorkspace {
    /// Embeddings from the last [`SgcEncoder::forward_with`].
    pub fn output(&self) -> &Matrix {
        &self.out
    }

    /// Weight gradient from the last [`SgcEncoder::backward_with`].
    pub fn grads(&self) -> &[Matrix] {
        &self.grads
    }
}

impl SgcEncoder {
    /// New SGC with depth `layers` mapping `d_in -> d_out`.
    pub fn new(d_in: usize, d_out: usize, layers: usize, rng: &mut SeedRng) -> Self {
        Self {
            layers,
            w: init::xavier_uniform(d_in, d_out, rng),
        }
    }

    /// Rebuilds an encoder from a trained weight matrix and propagation
    /// depth (the deserialisation path of `e2gcl-serve` artifacts).
    pub fn from_parts(w: Matrix, layers: usize) -> Self {
        Self { layers, w }
    }

    /// Input dimension.
    pub fn input_dim(&self) -> usize {
        self.w.rows()
    }

    /// Output dimension.
    pub fn output_dim(&self) -> usize {
        self.w.cols()
    }

    /// Parameter access for optimisers.
    pub fn params_mut(&mut self) -> &mut [Matrix] {
        std::slice::from_mut(&mut self.w)
    }

    /// Immutable parameters.
    pub fn params(&self) -> &[Matrix] {
        std::slice::from_ref(&self.w)
    }

    /// Training forward pass into `ws`: the embeddings
    /// ([`SgcWorkspace::output`]) and the propagated features the backward
    /// pass needs, with zero matrix allocations once `ws` is warm.
    pub fn forward_with(&self, adj: &SparseMatrix, x: &Matrix, ws: &mut SgcWorkspace) {
        ws.propagated.copy_from(x);
        for _ in 0..self.layers {
            adj.spmm_into(&ws.propagated, &mut ws.step);
            std::mem::swap(&mut ws.propagated, &mut ws.step);
        }
        ws.propagated.matmul_into(&self.w, &mut ws.out);
    }

    /// Backward pass after [`Self::forward_with`] on the same `ws`:
    /// `dW = (A_n^L X)^T dH` ([`SgcWorkspace::grads`]).
    pub fn backward_with(&self, ws: &mut SgcWorkspace, d_out: &Matrix) {
        ws.grads.resize_with(1, Matrix::default);
        ws.propagated.transpose_matmul_into(d_out, &mut ws.grads[0]);
    }

    /// Inference-only forward.
    pub fn embed(&self, adj: &SparseMatrix, x: &Matrix) -> Matrix {
        adj.spmm_power(x, self.layers).matmul(&self.w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use e2gcl_graph::{norm, CsrGraph};

    fn setup() -> (SparseMatrix, Matrix) {
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let adj = norm::normalized_adjacency(&g);
        let x = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0], &[0.5, -0.5]]);
        (adj, x)
    }

    #[test]
    fn forward_shape_and_linearity() {
        let (adj, x) = setup();
        let enc = SgcEncoder::new(2, 3, 2, &mut SeedRng::new(0));
        let h = enc.embed(&adj, &x);
        assert_eq!(h.shape(), (4, 3));
        // The training pass embeds the same bits, cold and warm.
        let mut ws = SgcWorkspace::default();
        for _ in 0..2 {
            enc.forward_with(&adj, &x, &mut ws);
            assert_eq!(ws.output(), &h);
        }
        // Fully linear model: scaling the input scales the output.
        let mut x2 = x.clone();
        x2.scale(2.0);
        let h2 = enc.embed(&adj, &x2);
        for (a, b) in h.as_slice().iter().zip(h2.as_slice()) {
            assert!((2.0 * a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn grad_check() {
        let (adj, x) = setup();
        let mut enc = SgcEncoder::new(2, 2, 2, &mut SeedRng::new(1));
        let mut ws = SgcWorkspace::default();
        enc.forward_with(&adj, &x, &mut ws);
        let h = ws.output().clone();
        enc.backward_with(&mut ws, &h); // L = 0.5||H||^2
        let grads = ws.grads().to_vec();
        let eps = 1e-3f32;
        for r in 0..2 {
            for c in 0..2 {
                let orig = enc.params()[0].get(r, c);
                enc.params_mut()[0].set(r, c, orig + eps);
                let lp = 0.5
                    * enc
                        .embed(&adj, &x)
                        .as_slice()
                        .iter()
                        .map(|v| v * v)
                        .sum::<f32>();
                enc.params_mut()[0].set(r, c, orig - eps);
                let lm = 0.5
                    * enc
                        .embed(&adj, &x)
                        .as_slice()
                        .iter()
                        .map(|v| v * v)
                        .sum::<f32>();
                enc.params_mut()[0].set(r, c, orig);
                let fd = (lp - lm) / (2.0 * eps);
                let an = grads[0].get(r, c);
                assert!(
                    (fd - an).abs() < 1e-2 * (1.0 + fd.abs()),
                    "({r},{c}): {fd} vs {an}"
                );
            }
        }
    }

    #[test]
    fn zero_layers_is_plain_linear() {
        let (adj, x) = setup();
        let enc = SgcEncoder::new(2, 2, 0, &mut SeedRng::new(2));
        let h = enc.embed(&adj, &x);
        assert_eq!(h, x.matmul(&enc.params()[0]));
    }
}
