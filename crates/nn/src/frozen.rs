//! The encoder family behind the §IV-C encoder-agnosticism experiments —
//! GCN, SGC or SAGE — as one type, used both to train and to serve.
//!
//! [`FrozenEncoder`] holds the weights of one family and dispatches its
//! passes; it is the only place that matches on the family. Training
//! mutates the weights: the contrastive step runs
//! [`FrozenEncoder::forward_with`]/[`FrozenEncoder::backward_with`] and its
//! optimiser writes through [`FrozenEncoder::params_mut`]. Serving holds
//! them frozen: the GCL protocol the paper follows (§V, Alg. 1) is
//! pretrain-once / probe-many, so after pre-training the encoder is reused
//! for every downstream query with no optimiser state or gradients
//! attached. It is the unit of persistence for `e2gcl-serve` artifacts and
//! the engine behind inductive (ego-subgraph) inference.
//!
//! [`EncoderWorkspace`] holds the matching family's buffers: repeated
//! passes through one workspace stay off the allocator once it is warm.

use crate::gcn::{GcnEncoder, GcnWorkspace};
use crate::sage::{SageEncoder, SageWorkspace};
use crate::sgc::{SgcEncoder, SgcWorkspace};
use e2gcl_graph::{norm, CsrGraph, SparseMatrix};
use e2gcl_linalg::Matrix;

/// An encoder of one family: trained through [`Self::forward_with`] and
/// [`Self::backward_with`], then frozen for inference.
#[derive(Clone, Debug)]
pub enum FrozenEncoder {
    /// The Eq. (1) GCN (the paper's default).
    Gcn(GcnEncoder),
    /// SGC — `A_n^L X W`, the Theorem-1 relaxation as an encoder.
    Sgc(SgcEncoder),
    /// GraphSAGE-mean.
    Sage(SageEncoder),
}

/// Reusable forward/backward buffers for one [`FrozenEncoder`] data flow;
/// build with [`FrozenEncoder::workspace`].
#[derive(Debug)]
pub enum EncoderWorkspace {
    /// GCN buffers.
    Gcn(GcnWorkspace),
    /// SAGE buffers.
    Sage(SageWorkspace),
    /// SGC buffers.
    Sgc(SgcWorkspace),
}

impl EncoderWorkspace {
    /// Embeddings from the last [`FrozenEncoder::forward_with`].
    pub fn output(&self) -> &Matrix {
        match self {
            EncoderWorkspace::Gcn(w) => w.output(),
            EncoderWorkspace::Sage(w) => w.output(),
            EncoderWorkspace::Sgc(w) => w.output(),
        }
    }

    /// Weight gradients from the last [`FrozenEncoder::backward_with`], in
    /// [`FrozenEncoder::params`] order.
    pub fn grads(&self) -> &[Matrix] {
        match self {
            EncoderWorkspace::Gcn(w) => w.grads(),
            EncoderWorkspace::Sage(w) => w.grads(),
            EncoderWorkspace::Sgc(w) => w.grads(),
        }
    }
}

impl FrozenEncoder {
    /// Short kind name (artifact headers, logs).
    pub fn kind(&self) -> &'static str {
        match self {
            FrozenEncoder::Gcn(_) => "gcn",
            FrozenEncoder::Sgc(_) => "sgc",
            FrozenEncoder::Sage(_) => "sage",
        }
    }

    /// How many hops of the graph influence one node's embedding — the `L`
    /// of the paper's `A_n^L X θ` relaxation. An `L`-hop ego subgraph (with
    /// full-graph degrees; see `e2gcl-serve`) reproduces a node's
    /// full-graph embedding exactly.
    pub fn receptive_hops(&self) -> usize {
        match self {
            FrozenEncoder::Gcn(e) => e.num_layers(),
            FrozenEncoder::Sgc(e) => e.layers,
            FrozenEncoder::Sage(e) => e.num_layers(),
        }
    }

    /// Input feature dimension `d_x`.
    pub fn input_dim(&self) -> usize {
        match self {
            FrozenEncoder::Gcn(e) => e.input_dim(),
            FrozenEncoder::Sgc(e) => e.input_dim(),
            FrozenEncoder::Sage(e) => e.input_dim(),
        }
    }

    /// Output embedding dimension.
    pub fn output_dim(&self) -> usize {
        match self {
            FrozenEncoder::Gcn(e) => e.output_dim(),
            FrozenEncoder::Sgc(e) => e.output_dim(),
            FrozenEncoder::Sage(e) => e.output_dim(),
        }
    }

    /// Flat weight matrices, in the family's canonical order.
    pub fn params(&self) -> &[Matrix] {
        match self {
            FrozenEncoder::Gcn(e) => e.params(),
            FrozenEncoder::Sgc(e) => e.params(),
            FrozenEncoder::Sage(e) => e.params(),
        }
    }

    /// Mutable flat weights, for the optimiser.
    pub fn params_mut(&mut self) -> &mut [Matrix] {
        match self {
            FrozenEncoder::Gcn(e) => e.params_mut(),
            FrozenEncoder::Sgc(e) => e.params_mut(),
            FrozenEncoder::Sage(e) => e.params_mut(),
        }
    }

    /// The adjacency operator this family aggregates with: symmetric GCN
    /// normalisation for GCN/SGC, row-stochastic mean for SAGE.
    pub fn adjacency(&self, g: &CsrGraph) -> SparseMatrix {
        match self {
            FrozenEncoder::Gcn(_) | FrozenEncoder::Sgc(_) => norm::normalized_adjacency(g),
            FrozenEncoder::Sage(_) => norm::row_normalized_adjacency(g),
        }
    }

    /// True when this family normalises symmetrically
    /// (`D̃^{-1/2}(A+I)D̃^{-1/2}`); false for SAGE's row-stochastic mean.
    pub fn symmetric_norm(&self) -> bool {
        !matches!(self, FrozenEncoder::Sage(_))
    }

    /// Inference forward pass (allocating).
    pub fn embed(&self, adj: &SparseMatrix, x: &Matrix) -> Matrix {
        match self {
            FrozenEncoder::Gcn(e) => e.embed(adj, x),
            FrozenEncoder::Sgc(e) => e.embed(adj, x),
            FrozenEncoder::Sage(e) => e.embed(adj, x),
        }
    }

    /// A fresh, empty workspace of this family.
    pub fn workspace(&self) -> EncoderWorkspace {
        match self {
            FrozenEncoder::Gcn(_) => EncoderWorkspace::Gcn(GcnWorkspace::new()),
            FrozenEncoder::Sage(_) => EncoderWorkspace::Sage(SageWorkspace::new()),
            FrozenEncoder::Sgc(_) => EncoderWorkspace::Sgc(SgcWorkspace::default()),
        }
    }

    /// Training forward pass into `ws`, bit-identical to [`Self::embed`]
    /// (read the embeddings via [`EncoderWorkspace::output`]); `adj` comes
    /// from [`Self::adjacency`]. A workspace built for a different family is
    /// replaced with a fresh matching one (losing its warm buffers, nothing
    /// else).
    pub fn forward_with(&self, adj: &SparseMatrix, x: &Matrix, ws: &mut EncoderWorkspace) {
        match (self, &mut *ws) {
            (FrozenEncoder::Gcn(e), EncoderWorkspace::Gcn(w)) => e.forward_with(adj, x, w),
            (FrozenEncoder::Sage(e), EncoderWorkspace::Sage(w)) => e.forward_with(adj, x, w),
            (FrozenEncoder::Sgc(e), EncoderWorkspace::Sgc(w)) => e.forward_with(adj, x, w),
            _ => {
                *ws = self.workspace();
                self.forward_with(adj, x, ws);
            }
        }
    }

    /// Backward pass given `d_out = ∂L/∂H`, after [`Self::forward_with`]
    /// with the same `adj`, `x` and `ws`; read the weight gradients via
    /// [`EncoderWorkspace::grads`].
    ///
    /// `ws` must hold this family's forward pass.
    pub fn backward_with(
        &self,
        adj: &SparseMatrix,
        x: &Matrix,
        ws: &mut EncoderWorkspace,
        d_out: &Matrix,
    ) {
        match (self, ws) {
            (FrozenEncoder::Gcn(e), EncoderWorkspace::Gcn(w)) => e.backward_with(adj, w, d_out),
            (FrozenEncoder::Sage(e), EncoderWorkspace::Sage(w)) => {
                e.backward_with(adj, x, w, d_out)
            }
            (FrozenEncoder::Sgc(e), EncoderWorkspace::Sgc(w)) => e.backward_with(w, d_out),
            _ => unreachable!("backward_with runs after this family's forward_with"),
        }
    }

    /// [`Self::forward_with`], returning the embeddings.
    pub fn embed_with<'w>(
        &self,
        adj: &SparseMatrix,
        x: &Matrix,
        ws: &'w mut EncoderWorkspace,
    ) -> &'w Matrix {
        self.forward_with(adj, x, ws);
        ws.output()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use e2gcl_linalg::SeedRng;

    fn graph() -> (CsrGraph, Matrix) {
        let g = CsrGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)]);
        let mut x = Matrix::zeros(5, 3);
        for v in 0..5 {
            for c in 0..3 {
                x.set(v, c, (v * 3 + c) as f32 * 0.1 - 0.5);
            }
        }
        (g, x)
    }

    fn families() -> Vec<FrozenEncoder> {
        let mut rng = SeedRng::new(42);
        vec![
            FrozenEncoder::Gcn(GcnEncoder::new(&[3, 4, 2], &mut rng)),
            FrozenEncoder::Sgc(SgcEncoder::new(3, 2, 2, &mut rng)),
            FrozenEncoder::Sage(SageEncoder::new(&[3, 4, 2], &mut rng)),
        ]
    }

    #[test]
    fn metadata_per_family() {
        for enc in families() {
            assert_eq!(enc.receptive_hops(), 2, "{}", enc.kind());
            assert_eq!(enc.input_dim(), 3, "{}", enc.kind());
            assert_eq!(enc.output_dim(), 2, "{}", enc.kind());
            assert!(!enc.params().is_empty());
        }
        let kinds: Vec<&str> = families().iter().map(|e| e.kind()).collect();
        assert_eq!(kinds, vec!["gcn", "sgc", "sage"]);
    }

    #[test]
    fn embed_with_matches_embed_bitwise() {
        let (g, x) = graph();
        for enc in families() {
            let adj = enc.adjacency(&g);
            let direct = enc.embed(&adj, &x);
            let mut ws = enc.workspace();
            // Cold and warm passes both reproduce the allocating result.
            for _ in 0..2 {
                let out = enc.embed_with(&adj, &x, &mut ws);
                assert_eq!(out, &direct, "{}", enc.kind());
            }
        }
    }

    #[test]
    fn training_passes_dispatch_per_family() {
        let (g, x) = graph();
        let shapes = |m: &[Matrix]| m.iter().map(Matrix::shape).collect::<Vec<_>>();
        for enc in families() {
            let adj = enc.adjacency(&g);
            let mut ws = enc.workspace();
            enc.forward_with(&adj, &x, &mut ws);
            let d_out = ws.output().clone();
            enc.backward_with(&adj, &x, &mut ws, &d_out);
            assert_eq!(shapes(ws.grads()), shapes(enc.params()), "{}", enc.kind());
        }
    }

    #[test]
    fn mismatched_workspace_is_replaced_not_wrong() {
        let (g, x) = graph();
        let encs = families();
        let adj = encs[0].adjacency(&g);
        let direct = encs[0].embed(&adj, &x);
        // Hand the GCN a SGC-family workspace: it must self-heal.
        let mut ws = encs[1].workspace();
        assert_eq!(encs[0].embed_with(&adj, &x, &mut ws), &direct);
        assert!(matches!(ws, EncoderWorkspace::Gcn(_)));
    }
}
