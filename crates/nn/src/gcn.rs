//! The Eq. (1) GCN encoder with manual backpropagation.
//!
//! `H^{l+1} = σ(A_n H^l W^l)` with ReLU between layers and a linear final
//! layer (the standard contrastive-learning encoder configuration). Because
//! `A_n` is symmetric, the backward pass reuses the same SpMM kernel.

use e2gcl_graph::SparseMatrix;
use e2gcl_linalg::{activations, init, Matrix, SeedRng};

/// A multi-layer GCN encoder `f_θ`.
#[derive(Clone, Debug)]
pub struct GcnEncoder {
    /// Per-layer weights `W^l` (`d_l x d_{l+1}`).
    weights: Vec<Matrix>,
}

/// Activations cached by [`GcnEncoder::forward`] for the backward pass.
///
/// Kept only because `e2e_bench`'s `replay_full`/`replay_minibatch` replay
/// training through the allocating pair; training itself runs
/// [`GcnEncoder::forward_with`]/[`GcnEncoder::backward_with`]. Goes with
/// that replay.
#[derive(Debug)]
pub struct GcnCache {
    /// `P^l = A_n H^l` for each layer input (the SpMM result pre-weights).
    propagated: Vec<Matrix>,
    /// Pre-activation `Z^l = P^l W^l` for each layer.
    pre_activation: Vec<Matrix>,
}

/// Reusable forward/backward buffers for one GCN data flow.
///
/// [`GcnEncoder::forward_with`]/[`GcnEncoder::backward_with`] are the
/// training passes; they write into these buffers instead of allocating,
/// so after the first (warm-up) epoch a forward/backward pair allocates
/// zero new matrices.
/// Keep one workspace per concurrent data flow — e.g. one per contrastive
/// view — since the forward activations must survive until the matching
/// backward.
#[derive(Debug, Default)]
pub struct GcnWorkspace {
    /// `P^l = A_n H^l` per layer.
    propagated: Vec<Matrix>,
    /// Pre-activation `Z^l = P^l W^l` per layer.
    pre_activation: Vec<Matrix>,
    /// Post-ReLU activations `H^{l+1}` for non-final layers.
    hidden: Vec<Matrix>,
    /// Final embeddings `H^L`.
    out: Matrix,
    /// Backward: running `∂L/∂Z^l`.
    dz: Matrix,
    /// Backward: staging for `dZ^l (W^l)^T`.
    dzw: Matrix,
    /// Backward: staging for `A_n (dZ W^T)`.
    dh: Matrix,
    /// Per-layer weight gradients, [`GcnEncoder::params`] order.
    grads: Vec<Matrix>,
}

impl GcnWorkspace {
    /// An empty workspace; buffers are grown on first use.
    pub fn new() -> Self {
        Self::default()
    }

    fn ensure_layers(&mut self, l_num: usize) {
        while self.propagated.len() < l_num {
            self.propagated.push(Matrix::default());
            self.pre_activation.push(Matrix::default());
            self.hidden.push(Matrix::default());
            self.grads.push(Matrix::default());
        }
    }

    /// Final embeddings from the last [`GcnEncoder::forward_with`].
    pub fn output(&self) -> &Matrix {
        &self.out
    }

    /// Weight gradients from the last [`GcnEncoder::backward_with`].
    pub fn grads(&self) -> &[Matrix] {
        &self.grads
    }

    /// Mutable gradient views (for accumulation across views, clipping, and
    /// the engine's fault injection).
    pub fn grads_mut(&mut self) -> &mut [Matrix] {
        &mut self.grads
    }
}

impl GcnEncoder {
    /// Creates an encoder with the given layer dimensions,
    /// e.g. `[d_x, 128, 64]` for the paper's 2-layer GCN.
    pub fn new(dims: &[usize], rng: &mut SeedRng) -> Self {
        assert!(dims.len() >= 2, "need at least one layer");
        let weights = dims
            .windows(2)
            .map(|w| init::xavier_uniform(w[0], w[1], rng))
            .collect();
        Self { weights }
    }

    /// Rebuilds an encoder from previously trained per-layer weights (the
    /// deserialisation path of `e2gcl-serve` artifacts).
    ///
    /// # Panics
    /// Panics if `weights` is empty or consecutive layer shapes do not chain
    /// (`W^l` columns must equal `W^{l+1}` rows).
    pub fn from_weights(weights: Vec<Matrix>) -> Self {
        assert!(!weights.is_empty(), "need at least one layer");
        for pair in weights.windows(2) {
            assert_eq!(pair[0].cols(), pair[1].rows(), "layer shapes do not chain");
        }
        Self { weights }
    }

    /// Number of layers `L`.
    pub fn num_layers(&self) -> usize {
        self.weights.len()
    }

    /// Output embedding dimension.
    pub fn output_dim(&self) -> usize {
        self.weights
            .last()
            .expect("encoder has at least one layer")
            .cols()
    }

    /// Input feature dimension.
    pub fn input_dim(&self) -> usize {
        self.weights[0].rows()
    }

    /// Immutable parameter views (for EMA targets and tests).
    pub fn params(&self) -> &[Matrix] {
        &self.weights
    }

    /// Mutable parameter views (for the optimiser).
    pub fn params_mut(&mut self) -> &mut [Matrix] {
        &mut self.weights
    }

    /// Allocating forward pass returning the final embeddings and the cache
    /// for [`Self::backward`], bit-identical to [`Self::forward_with`].
    /// `adj` must be the pre-normalised `A_n` of the graph the features `x`
    /// live on. Kept only for `e2e_bench`'s `replay_full`/`replay_minibatch`
    /// (see [`GcnCache`]).
    pub fn forward(&self, adj: &SparseMatrix, x: &Matrix) -> (Matrix, GcnCache) {
        let l_num = self.weights.len();
        let mut propagated = Vec::with_capacity(l_num);
        let mut pre_activation = Vec::with_capacity(l_num);
        let mut h = x.clone();
        for (l, w) in self.weights.iter().enumerate() {
            let p = adj.spmm(&h);
            let z = p.matmul(w);
            propagated.push(p);
            h = if l + 1 < l_num {
                let mut a = z.clone();
                activations::relu_inplace(&mut a);
                pre_activation.push(z);
                a
            } else {
                pre_activation.push(z.clone());
                z
            };
        }
        (
            h,
            GcnCache {
                propagated,
                pre_activation,
            },
        )
    }

    /// Training forward pass into `ws` (same `adj` as [`Self::embed`]): the
    /// embeddings ([`GcnWorkspace::output`]) and the activations the
    /// backward pass needs, with zero matrix allocations once `ws` is warm.
    pub fn forward_with(&self, adj: &SparseMatrix, x: &Matrix, ws: &mut GcnWorkspace) {
        let l_num = self.weights.len();
        ws.ensure_layers(l_num);
        for (l, w) in self.weights.iter().enumerate() {
            let input = if l == 0 { x } else { &ws.hidden[l - 1] };
            adj.spmm_into(input, &mut ws.propagated[l]);
            ws.propagated[l].matmul_into(w, &mut ws.pre_activation[l]);
            if l + 1 < l_num {
                ws.hidden[l].copy_from(&ws.pre_activation[l]);
                activations::relu_inplace(&mut ws.hidden[l]);
            } else {
                ws.out.copy_from(&ws.pre_activation[l]);
            }
        }
    }

    /// Backward pass given `d_out = ∂L/∂H^L`, into the same workspace as the
    /// preceding [`Self::forward_with`]: per-layer weight gradients
    /// ([`GcnWorkspace::grads`], same shapes as [`Self::params`]) with zero
    /// matrix allocations once warm.
    pub fn backward_with(&self, adj: &SparseMatrix, ws: &mut GcnWorkspace, d_out: &Matrix) {
        let l_num = self.weights.len();
        ws.dz.copy_from(d_out); // dL/dZ^{L-1} (final layer is linear)
        for l in (0..l_num).rev() {
            // dW^l = (A_n H^l)^T dZ^l
            ws.propagated[l].transpose_matmul_into(&ws.dz, &mut ws.grads[l]);
            if l > 0 {
                // dH^l = A_n^T (dZ^l W^l^T); A_n symmetric.
                ws.dz.matmul_transpose_into(&self.weights[l], &mut ws.dzw);
                adj.spmm_into(&ws.dzw, &mut ws.dh);
                // Through the ReLU of the previous layer.
                activations::relu_mask_mul_inplace(&mut ws.dh, &ws.pre_activation[l - 1]);
                std::mem::swap(&mut ws.dz, &mut ws.dh);
            }
        }
    }

    /// Inference-only forward (no cache).
    pub fn embed(&self, adj: &SparseMatrix, x: &Matrix) -> Matrix {
        let l_num = self.weights.len();
        let mut h = x.clone();
        for (l, w) in self.weights.iter().enumerate() {
            h = adj.spmm(&h).matmul(w);
            if l + 1 < l_num {
                activations::relu_inplace(&mut h);
            }
        }
        h
    }

    /// Allocating backward pass after [`Self::forward`], bit-identical to
    /// [`Self::backward_with`]. Kept only for `e2e_bench`'s replays (see
    /// [`GcnCache`]).
    pub fn backward(&self, adj: &SparseMatrix, cache: &GcnCache, d_out: &Matrix) -> Vec<Matrix> {
        let l_num = self.weights.len();
        let mut grads: Vec<Matrix> = Vec::with_capacity(l_num);
        let mut dz = d_out.clone(); // dL/dZ^{L-1} (final layer is linear)
        for l in (0..l_num).rev() {
            // dW^l = (A_n H^l)^T dZ^l
            grads.push(cache.propagated[l].transpose_matmul(&dz));
            if l > 0 {
                // dH^l = A_n^T (dZ^l W^l^T); A_n symmetric.
                let dh = adj.spmm(&dz.matmul_transpose(&self.weights[l]));
                // Through the ReLU of the previous layer.
                let mask = activations::relu_grad_mask(&cache.pre_activation[l - 1]);
                let mut next = dh;
                next.mul_assign_elem(&mask);
                dz = next;
            }
        }
        grads.reverse();
        grads
    }

    /// Accumulates `scale * grads` into a gradient accumulator (allocating it
    /// on first use), summing gradients over several allocating backward
    /// passes. Only `e2e_bench`'s replays call it (see [`GcnCache`]).
    pub fn accumulate(acc: &mut Option<Vec<Matrix>>, grads: Vec<Matrix>, scale: f32) {
        match acc {
            None => {
                let mut g = grads;
                for m in &mut g {
                    m.scale(scale);
                }
                *acc = Some(g);
            }
            Some(a) => {
                for (am, gm) in a.iter_mut().zip(&grads) {
                    am.axpy(scale, gm);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use e2gcl_graph::{norm, CsrGraph};

    fn tiny() -> (SparseMatrix, Matrix) {
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let adj = norm::normalized_adjacency(&g);
        let x = Matrix::from_rows(&[
            &[1.0, 0.0, 0.5],
            &[0.0, 1.0, -0.5],
            &[1.0, 1.0, 0.0],
            &[0.0, 0.0, 1.0],
        ]);
        (adj, x)
    }

    #[test]
    fn forward_shapes() {
        let (adj, x) = tiny();
        let enc = GcnEncoder::new(&[3, 5, 2], &mut SeedRng::new(0));
        let (h, cache) = enc.forward(&adj, &x);
        assert_eq!(h.shape(), (4, 2));
        assert_eq!(cache.propagated.len(), 2);
        assert_eq!(cache.pre_activation[0].shape(), (4, 5));
    }

    #[test]
    fn embed_matches_forward() {
        let (adj, x) = tiny();
        let enc = GcnEncoder::new(&[3, 4, 2], &mut SeedRng::new(1));
        let (h, _) = enc.forward(&adj, &x);
        assert_eq!(enc.embed(&adj, &x), h);
    }

    /// Central finite-difference check of every weight gradient against the
    /// training backward pass, with loss L = 0.5 * ||H||_F^2 (so dL/dH = H).
    #[test]
    fn grad_check_weights() {
        let (adj, x) = tiny();
        let mut enc = GcnEncoder::new(&[3, 4, 2], &mut SeedRng::new(2));
        let mut ws = GcnWorkspace::new();
        enc.forward_with(&adj, &x, &mut ws);
        let h = ws.output().clone();
        enc.backward_with(&adj, &mut ws, &h);
        let grads = ws.grads().to_vec();
        let eps = 1e-3f32;
        for (l, grad) in grads.iter().enumerate() {
            let (rows, cols) = enc.params()[l].shape();
            for r in 0..rows {
                for c in 0..cols {
                    let orig = enc.params()[l].get(r, c);
                    enc.params_mut()[l].set(r, c, orig + eps);
                    let hp = enc.embed(&adj, &x);
                    let lp = 0.5 * hp.as_slice().iter().map(|v| v * v).sum::<f32>();
                    enc.params_mut()[l].set(r, c, orig - eps);
                    let hm = enc.embed(&adj, &x);
                    let lm = 0.5 * hm.as_slice().iter().map(|v| v * v).sum::<f32>();
                    enc.params_mut()[l].set(r, c, orig);
                    let fd = (lp - lm) / (2.0 * eps);
                    let an = grad.get(r, c);
                    assert!(
                        (fd - an).abs() < 2e-2 * (1.0 + fd.abs().max(an.abs())),
                        "layer {l} ({r},{c}): fd {fd} vs analytic {an}"
                    );
                }
            }
        }
    }

    /// The workspace path must be *bit-identical* to the allocating path —
    /// the golden determinism fingerprints depend on it.
    #[test]
    fn workspace_path_matches_allocating_path_bitwise() {
        let (adj, x) = tiny();
        let enc = GcnEncoder::new(&[3, 5, 2], &mut SeedRng::new(7));
        let (h, cache) = enc.forward(&adj, &x);
        let grads = enc.backward(&adj, &cache, &h);
        let mut ws = GcnWorkspace::new();
        // Two passes: cold (growing buffers) and warm (pure reuse) must both
        // reproduce the allocating results exactly.
        for _ in 0..2 {
            enc.forward_with(&adj, &x, &mut ws);
            assert_eq!(ws.output(), &h);
            let d_out = ws.output().clone();
            enc.backward_with(&adj, &mut ws, &d_out);
            assert_eq!(ws.grads(), &grads[..]);
        }
    }

    #[test]
    fn accumulate_sums_and_scales() {
        let g1 = vec![Matrix::filled(2, 2, 1.0)];
        let g2 = vec![Matrix::filled(2, 2, 3.0)];
        let mut acc = None;
        GcnEncoder::accumulate(&mut acc, g1, 0.5);
        GcnEncoder::accumulate(&mut acc, g2, 1.0);
        assert_eq!(acc.unwrap()[0], Matrix::filled(2, 2, 3.5));
    }

    #[test]
    fn single_layer_encoder_is_linear() {
        let (adj, x) = tiny();
        let enc = GcnEncoder::new(&[3, 2], &mut SeedRng::new(3));
        let h = enc.embed(&adj, &x);
        // Linear layer: doubling the input doubles the output.
        let mut x2 = x.clone();
        x2.scale(2.0);
        let h2 = enc.embed(&adj, &x2);
        for (a, b) in h.as_slice().iter().zip(h2.as_slice()) {
            assert!((2.0 * a - b).abs() < 1e-5);
        }
    }
}
