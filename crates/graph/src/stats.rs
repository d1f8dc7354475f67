//! Structural graph statistics: triangle counts.
//!
//! Used by the dataset-statistics tooling and by the graph-classification
//! analogs (whose classes differ in motif content by construction).

use crate::CsrGraph;

/// Counts triangles incident to each node (each triangle contributes 1 to
/// each of its three corners).
pub fn triangle_counts(g: &CsrGraph) -> Vec<usize> {
    let n = g.num_nodes();
    let mut counts = vec![0usize; n];
    // For each edge (u, v) with u < v, intersect sorted neighbour lists and
    // count common neighbours w > v so each triangle is found exactly once.
    for u in 0..n {
        for &v in g.neighbors(u) {
            let v = v as usize;
            if v <= u {
                continue;
            }
            let (mut i, mut j) = (0usize, 0usize);
            let nu = g.neighbors(u);
            let nv = g.neighbors(v);
            while i < nu.len() && j < nv.len() {
                let (a, b) = (nu[i], nv[j]);
                match a.cmp(&b) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => {
                        if (a as usize) > v {
                            counts[u] += 1;
                            counts[v] += 1;
                            counts[a as usize] += 1;
                        }
                        i += 1;
                        j += 1;
                    }
                }
            }
        }
    }
    counts
}

/// Total number of distinct triangles.
pub fn total_triangles(g: &CsrGraph) -> usize {
    triangle_counts(g).iter().sum::<usize>() / 3
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle_plus_tail() -> CsrGraph {
        // Triangle 0-1-2 with a tail 2-3.
        CsrGraph::from_edges(4, &[(0, 1), (1, 2), (0, 2), (2, 3)])
    }

    #[test]
    fn triangle_counting() {
        let g = triangle_plus_tail();
        assert_eq!(total_triangles(&g), 1);
        assert_eq!(triangle_counts(&g), vec![1, 1, 1, 0]);
    }

    #[test]
    fn complete_graph_triangles() {
        let k4 = CsrGraph::from_edges(4, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
        assert_eq!(total_triangles(&k4), 4);
    }
}
