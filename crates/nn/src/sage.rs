//! GraphSAGE-mean encoder (Hamilton et al. 2017) with manual backprop.
//!
//! `H^{l+1} = σ( H^l W_self + (D⁻¹ A H^l) W_neigh )` — separate transforms
//! for the node itself and the mean of its neighbours. Third member of the
//! encoder family behind the §IV-C encoder-agnosticism experiments.

use e2gcl_graph::SparseMatrix;
use e2gcl_linalg::{activations, init, Matrix, SeedRng};

/// A multi-layer GraphSAGE-mean encoder (ReLU between layers, linear last).
///
/// Parameters are stored flat as `[W_self⁰, W_neigh⁰, W_self¹, …]` so the
/// shared optimisers (`&mut [Matrix]`) apply directly.
#[derive(Clone, Debug)]
pub struct SageEncoder {
    params: Vec<Matrix>,
    num_layers: usize,
}

/// Reusable forward/backward buffers for one SAGE data flow (see
/// [`crate::gcn::GcnWorkspace`] for the contract).
///
/// Layer *inputs* are not copied: layer 0 reads the caller's `x` directly
/// (pass the same `x` to [`SageEncoder::backward_with`]) and deeper layers
/// read the pooled `hidden` activations.
#[derive(Debug, Default)]
pub struct SageWorkspace {
    /// Mean-aggregated inputs `D⁻¹ A H^l` per layer.
    aggregated: Vec<Matrix>,
    /// Pre-activations `Z^l` per layer.
    pre_activation: Vec<Matrix>,
    /// Post-ReLU activations for non-final layers.
    hidden: Vec<Matrix>,
    /// Final embeddings `H^L`.
    out: Matrix,
    /// Forward: staging for `(D⁻¹ A H^l) W_neigh`.
    zn: Matrix,
    /// Backward: running `∂L/∂Z^l`.
    dz: Matrix,
    /// Backward: staging for `dZ W_neighᵀ`.
    dzw: Matrix,
    /// Backward: staging for `Aᵀ (dZ W_neighᵀ)`.
    spmm_buf: Matrix,
    /// Backward: `dZ W_selfᵀ + Aᵀ(dZ W_neighᵀ)` through ReLU.
    dh: Matrix,
    /// Gradients in [`SageEncoder::params`] order.
    grads: Vec<Matrix>,
}

impl SageWorkspace {
    /// An empty workspace; buffers are grown on first use.
    pub fn new() -> Self {
        Self::default()
    }

    fn ensure_layers(&mut self, l_num: usize) {
        while self.aggregated.len() < l_num {
            self.aggregated.push(Matrix::default());
            self.pre_activation.push(Matrix::default());
            self.hidden.push(Matrix::default());
            self.grads.push(Matrix::default());
            self.grads.push(Matrix::default());
        }
    }

    /// Final embeddings from the last [`SageEncoder::forward_with`].
    pub fn output(&self) -> &Matrix {
        &self.out
    }

    /// Gradients from the last [`SageEncoder::backward_with`].
    pub fn grads(&self) -> &[Matrix] {
        &self.grads
    }
}

impl SageEncoder {
    /// Builds an encoder with the given layer dims, e.g. `[d_x, 128, 64]`.
    pub fn new(dims: &[usize], rng: &mut SeedRng) -> Self {
        assert!(dims.len() >= 2);
        let mut params = Vec::with_capacity(2 * (dims.len() - 1));
        for w in dims.windows(2) {
            params.push(init::xavier_uniform(w[0], w[1], rng)); // W_self
            params.push(init::xavier_uniform(w[0], w[1], rng)); // W_neigh
        }
        Self {
            params,
            num_layers: dims.len() - 1,
        }
    }

    /// Rebuilds an encoder from a trained flat parameter list
    /// `[W_self⁰, W_neigh⁰, …]` (the deserialisation path of `e2gcl-serve`
    /// artifacts).
    ///
    /// # Panics
    /// Panics unless `params` holds exactly two matrices per layer.
    pub fn from_params(params: Vec<Matrix>, num_layers: usize) -> Self {
        assert!(num_layers >= 1, "need at least one layer");
        assert_eq!(
            params.len(),
            2 * num_layers,
            "expected two matrices (self/neigh) per layer"
        );
        Self { params, num_layers }
    }

    /// Number of layers.
    pub fn num_layers(&self) -> usize {
        self.num_layers
    }

    /// Input feature dimension.
    pub fn input_dim(&self) -> usize {
        self.params[0].rows()
    }

    /// Output embedding dimension.
    pub fn output_dim(&self) -> usize {
        self.params[2 * (self.num_layers - 1)].cols()
    }

    fn w_self(&self, l: usize) -> &Matrix {
        &self.params[2 * l]
    }

    fn w_neigh(&self, l: usize) -> &Matrix {
        &self.params[2 * l + 1]
    }

    /// Flat parameter slice (`[W_self⁰, W_neigh⁰, …]`).
    pub fn params(&self) -> &[Matrix] {
        &self.params
    }

    /// Mutable flat parameter slice for the optimisers.
    pub fn params_mut(&mut self) -> &mut [Matrix] {
        &mut self.params
    }

    /// Inference-only forward. `mean_adj` must be the row-stochastic
    /// aggregation matrix (e.g.
    /// [`e2gcl_graph::norm::row_normalized_adjacency`]).
    pub fn embed(&self, mean_adj: &SparseMatrix, x: &Matrix) -> Matrix {
        let l_num = self.num_layers;
        let mut h = x.clone();
        for l in 0..l_num {
            let agg = mean_adj.spmm(&h);
            h = h.matmul(self.w_self(l));
            h.add_assign(&agg.matmul(self.w_neigh(l)));
            if l + 1 < l_num {
                activations::relu_inplace(&mut h);
            }
        }
        h
    }

    /// Training forward pass into `ws` (same `mean_adj` as [`Self::embed`]):
    /// the embeddings ([`SageWorkspace::output`]) and the activations the
    /// backward pass needs, with zero matrix allocations once `ws` is warm.
    pub fn forward_with(&self, mean_adj: &SparseMatrix, x: &Matrix, ws: &mut SageWorkspace) {
        let l_num = self.num_layers;
        ws.ensure_layers(l_num);
        for l in 0..l_num {
            let input = if l == 0 { x } else { &ws.hidden[l - 1] };
            mean_adj.spmm_into(input, &mut ws.aggregated[l]);
            let input = if l == 0 { x } else { &ws.hidden[l - 1] };
            input.matmul_into(self.w_self(l), &mut ws.pre_activation[l]);
            ws.aggregated[l].matmul_into(self.w_neigh(l), &mut ws.zn);
            ws.pre_activation[l].add_assign(&ws.zn);
            if l + 1 < l_num {
                ws.hidden[l].copy_from(&ws.pre_activation[l]);
                activations::relu_inplace(&mut ws.hidden[l]);
            } else {
                ws.out.copy_from(&ws.pre_activation[l]);
            }
        }
    }

    /// Backward pass into the same workspace as the preceding
    /// [`Self::forward_with`] (pass the *same* `x`): gradients in
    /// [`Self::params`] order ([`SageWorkspace::grads`]). The transposed
    /// aggregation matrix is rebuilt per call — it tracks the per-epoch view
    /// graph.
    pub fn backward_with(
        &self,
        mean_adj: &SparseMatrix,
        x: &Matrix,
        ws: &mut SageWorkspace,
        d_out: &Matrix,
    ) {
        let l_num = self.num_layers;
        ws.dz.copy_from(d_out);
        let mean_adj_t = mean_adj.transpose();
        for l in (0..l_num).rev() {
            let input = if l == 0 { x } else { &ws.hidden[l - 1] };
            input.transpose_matmul_into(&ws.dz, &mut ws.grads[2 * l]); // dW_self
            ws.aggregated[l].transpose_matmul_into(&ws.dz, &mut ws.grads[2 * l + 1]); // dW_neigh
            if l > 0 {
                // dH = dZ W_selfᵀ + Aᵀ(dZ W_neighᵀ), through ReLU.
                ws.dz.matmul_transpose_into(self.w_self(l), &mut ws.dh);
                ws.dz.matmul_transpose_into(self.w_neigh(l), &mut ws.dzw);
                mean_adj_t.spmm_into(&ws.dzw, &mut ws.spmm_buf);
                ws.dh.add_assign(&ws.spmm_buf);
                activations::relu_mask_mul_inplace(&mut ws.dh, &ws.pre_activation[l - 1]);
                std::mem::swap(&mut ws.dz, &mut ws.dh);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use e2gcl_graph::{norm, CsrGraph};

    fn setup() -> (SparseMatrix, Matrix) {
        let g = CsrGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
        let adj = norm::row_normalized_adjacency(&g);
        let mut rng = SeedRng::new(0);
        let mut x = Matrix::zeros(5, 3);
        for v in x.as_mut_slice() {
            *v = rng.normal();
        }
        (adj, x)
    }

    #[test]
    fn forward_shapes() {
        let (adj, x) = setup();
        let enc = SageEncoder::new(&[3, 6, 2], &mut SeedRng::new(1));
        let mut ws = SageWorkspace::new();
        enc.forward_with(&adj, &x, &mut ws);
        assert_eq!(ws.output().shape(), (5, 2));
        assert_eq!(ws.aggregated.len(), 2);
        assert_eq!(enc.params().len(), 4);
        // The training pass embeds the same bits as inference.
        assert_eq!(ws.output(), &enc.embed(&adj, &x));
    }

    #[test]
    fn grad_check_all_params() {
        let (adj, x) = setup();
        let mut enc = SageEncoder::new(&[3, 4, 2], &mut SeedRng::new(2));
        let mut ws = SageWorkspace::new();
        enc.forward_with(&adj, &x, &mut ws);
        let h = ws.output().clone();
        enc.backward_with(&adj, &x, &mut ws, &h); // L = 0.5||H||²
        let grads = ws.grads().to_vec();
        let eps = 1e-3f32;
        for (pi, _) in grads.iter().enumerate() {
            let (rows, cols) = grads[pi].shape();
            for r in 0..rows {
                for c in 0..cols {
                    let orig = enc.params()[pi].get(r, c);
                    enc.params_mut()[pi].set(r, c, orig + eps);
                    let lp = 0.5
                        * enc
                            .embed(&adj, &x)
                            .as_slice()
                            .iter()
                            .map(|v| v * v)
                            .sum::<f32>();
                    enc.params_mut()[pi].set(r, c, orig - eps);
                    let lm = 0.5
                        * enc
                            .embed(&adj, &x)
                            .as_slice()
                            .iter()
                            .map(|v| v * v)
                            .sum::<f32>();
                    enc.params_mut()[pi].set(r, c, orig);
                    let fd = (lp - lm) / (2.0 * eps);
                    let an = grads[pi].get(r, c);
                    assert!(
                        (fd - an).abs() < 2e-2 * (1.0 + fd.abs().max(an.abs())),
                        "param {pi} ({r},{c}): fd {fd} vs analytic {an}"
                    );
                }
            }
        }
    }

    #[test]
    fn isolated_node_uses_self_transform_only() {
        let g = CsrGraph::from_edges(2, &[]);
        let adj = norm::row_normalized_adjacency(&g);
        let x = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
        let enc = SageEncoder::new(&[2, 2], &mut SeedRng::new(4));
        let h = enc.embed(&adj, &x);
        // With self-loop-only aggregation the output is x(W_self + W_neigh).
        let mut w = enc.params()[0].clone();
        w.add_assign(&enc.params()[1]);
        assert_eq!(h, x.matmul(&w));
    }
}
