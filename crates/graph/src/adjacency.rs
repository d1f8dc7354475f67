//! Mutable adjacency-list graph used while *editing* graphs.
//!
//! The view generator (Alg. 3) builds each positive view by adding edges one
//! at a time; the augmentation library (Prop. 1) needs delete/add of both
//! edges and nodes. [`AdjacencyList`] supports those edits cheaply and then
//! freezes into a [`CsrGraph`] for the GNN forward pass.

use crate::CsrGraph;
use std::collections::BTreeSet;

/// A mutable undirected graph as per-node sorted neighbour sets.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AdjacencyList {
    adj: Vec<BTreeSet<u32>>,
}

impl AdjacencyList {
    /// An empty graph over `num_nodes` nodes.
    pub fn new(num_nodes: usize) -> Self {
        Self {
            adj: vec![BTreeSet::new(); num_nodes],
        }
    }

    /// Converts from CSR.
    pub fn from_csr(g: &CsrGraph) -> Self {
        let mut out = Self::new(g.num_nodes());
        for v in 0..g.num_nodes() {
            out.adj[v] = g.neighbors(v).iter().copied().collect();
        }
        out
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.adj.len()
    }

    /// Number of undirected edges.
    pub fn num_edges(&self) -> usize {
        self.adj.iter().map(|s| s.len()).sum::<usize>() / 2
    }

    /// Degree of `v`.
    pub fn degree(&self, v: usize) -> usize {
        self.adj[v].len()
    }

    /// True if the undirected edge exists.
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        self.adj[u].contains(&(v as u32))
    }

    /// Adds the undirected edge `(u, v)`. Returns false if it already existed
    /// or is a self-loop.
    pub fn add_edge(&mut self, u: usize, v: usize) -> bool {
        if u == v {
            return false;
        }
        let added = self.adj[u].insert(v as u32);
        if added {
            self.adj[v].insert(u as u32);
        }
        added
    }

    /// Removes the undirected edge `(u, v)`. Returns false if absent.
    pub fn remove_edge(&mut self, u: usize, v: usize) -> bool {
        let removed = self.adj[u].remove(&(v as u32));
        if removed {
            self.adj[v].remove(&(u as u32));
        }
        removed
    }

    /// Removes every edge incident to `v` (node isolation; used by the
    /// node-dropping augmentation, which keeps indices stable).
    pub fn isolate_node(&mut self, v: usize) {
        let ns: Vec<u32> = self.adj[v].iter().copied().collect();
        for u in ns {
            self.remove_edge(v, u as usize);
        }
    }

    /// Neighbour iterator of `v` (ascending).
    pub fn neighbors(&self, v: usize) -> impl Iterator<Item = usize> + '_ {
        self.adj[v].iter().map(|&u| u as usize)
    }

    /// Freezes into an immutable CSR graph.
    pub fn to_csr(&self) -> CsrGraph {
        CsrGraph::from_adjacency(
            self.adj
                .iter()
                .map(|s| s.iter().copied().collect())
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_remove_roundtrip() {
        let mut a = AdjacencyList::new(3);
        assert!(a.add_edge(0, 1));
        assert!(!a.add_edge(0, 1)); // duplicate
        assert!(!a.add_edge(1, 1)); // self loop
        assert!(a.has_edge(1, 0));
        assert_eq!(a.num_edges(), 1);
        assert!(a.remove_edge(1, 0));
        assert!(!a.remove_edge(1, 0));
        assert_eq!(a.num_edges(), 0);
    }

    #[test]
    fn csr_roundtrip() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let a = AdjacencyList::from_csr(&g);
        assert_eq!(a.to_csr(), g);
    }

    #[test]
    fn isolate_node_removes_all_incident() {
        let mut a =
            AdjacencyList::from_csr(&CsrGraph::from_edges(4, &[(0, 1), (0, 2), (0, 3), (1, 2)]));
        a.isolate_node(0);
        assert_eq!(a.degree(0), 0);
        assert_eq!(a.num_edges(), 1);
        assert!(a.has_edge(1, 2));
    }
}
