//! Structural graph statistics: triangles, clustering, k-cores.
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

/// Local clustering coefficient per node: `2·T(v) / (deg(v)·(deg(v)−1))`,
/// zero for degree < 2.
pub fn clustering_coefficients(g: &CsrGraph) -> Vec<f64> {
    let tri = triangle_counts(g);
    (0..g.num_nodes())
        .map(|v| {
            let d = g.degree(v);
            if d < 2 {
                0.0
            } else {
                2.0 * tri[v] as f64 / (d * (d - 1)) as f64
            }
        })
        .collect()
}

/// Core number of every node (the largest `k` such that the node survives
/// in the `k`-core), via the standard peeling algorithm.
pub fn core_numbers(g: &CsrGraph) -> Vec<usize> {
    let n = g.num_nodes();
    let mut degree: Vec<usize> = (0..n).map(|v| g.degree(v)).collect();
    let max_deg = degree.iter().cloned().max().unwrap_or(0);
    // Bucket queue over degrees.
    let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); max_deg + 1];
    for (v, &d) in degree.iter().enumerate() {
        buckets[d].push(v);
    }
    let mut core = vec![0usize; n];
    let mut removed = vec![false; n];
    let mut current = 0usize;
    for _ in 0..n {
        // Find the lowest non-empty bucket at or above zero.
        let mut d = 0;
        loop {
            while d <= max_deg && buckets[d].is_empty() {
                d += 1;
            }
            if d > max_deg {
                return core; // all removed
            }
            let v = *buckets[d].last().unwrap();
            if removed[v] || degree[v] != d {
                buckets[d].pop();
                continue;
            }
            break;
        }
        let v = buckets[d].pop().unwrap();
        removed[v] = true;
        current = current.max(d);
        core[v] = current;
        for &u in g.neighbors(v) {
            let u = u as usize;
            if !removed[u] && degree[u] > 0 {
                degree[u] -= 1;
                buckets[degree[u]].push(u);
            }
        }
    }
    core
}

/// Degree histogram: `hist[d]` = number of nodes with degree `d`.
pub fn degree_histogram(g: &CsrGraph) -> Vec<usize> {
    let max_deg = (0..g.num_nodes()).map(|v| g.degree(v)).max().unwrap_or(0);
    let mut hist = vec![0usize; max_deg + 1];
    for v in 0..g.num_nodes() {
        hist[g.degree(v)] += 1;
    }
    hist
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
        // Every node in K4 has clustering coefficient 1.
        assert!(clustering_coefficients(&k4)
            .iter()
            .all(|&c| (c - 1.0).abs() < 1e-9));
    }

    #[test]
    fn clustering_coefficient_values() {
        let g = triangle_plus_tail();
        let cc = clustering_coefficients(&g);
        assert!((cc[0] - 1.0).abs() < 1e-9); // deg 2, 1 triangle
        assert!((cc[2] - 1.0 / 3.0).abs() < 1e-9); // deg 3, 1 of 3 pairs
        assert_eq!(cc[3], 0.0); // degree 1
    }

    #[test]
    fn core_numbers_triangle_tail() {
        let g = triangle_plus_tail();
        assert_eq!(core_numbers(&g), vec![2, 2, 2, 1]);
    }

    #[test]
    fn core_numbers_star() {
        let g = CsrGraph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        assert_eq!(core_numbers(&g), vec![1, 1, 1, 1, 1]);
    }

    #[test]
    fn core_numbers_empty_and_k4() {
        let e = CsrGraph::from_edges(3, &[]);
        assert_eq!(core_numbers(&e), vec![0, 0, 0]);
        let k4 = CsrGraph::from_edges(4, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
        assert_eq!(core_numbers(&k4), vec![3, 3, 3, 3]);
    }

    #[test]
    fn degree_histogram_sums_to_n() {
        let g = triangle_plus_tail();
        let h = degree_histogram(&g);
        assert_eq!(h.iter().sum::<usize>(), 4);
        assert_eq!(h[1], 1); // node 3
        assert_eq!(h[2], 2); // nodes 0, 1
        assert_eq!(h[3], 1); // node 2
    }
}
