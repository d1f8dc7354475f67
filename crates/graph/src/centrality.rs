//! Node centrality measures.
//!
//! The paper's edge/feature scores use log-degree centrality
//! `φ_c(u) = log(D_u + 1)` (§IV-C1, following GCA).

use crate::CsrGraph;

/// Log-degree centrality `φ_c(v) = ln(D_v + 1)` for every node.
pub fn degree_centrality(g: &CsrGraph) -> Vec<f32> {
    (0..g.num_nodes())
        .map(|v| ((g.degree(v) + 1) as f32).ln())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degree_centrality_is_log_deg_plus_one() {
        let g = CsrGraph::from_edges(3, &[(0, 1), (0, 2)]);
        let c = degree_centrality(&g);
        assert!((c[0] - 3.0f32.ln()).abs() < 1e-6);
        assert!((c[1] - 2.0f32.ln()).abs() < 1e-6);
    }
}
