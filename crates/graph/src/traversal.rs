//! BFS utilities and connected components.

use crate::CsrGraph;
use std::collections::VecDeque;

/// BFS distances from `src`; unreachable nodes get `usize::MAX`.
pub fn bfs_distances(g: &CsrGraph, src: usize) -> Vec<usize> {
    let mut dist = vec![usize::MAX; g.num_nodes()];
    dist[src] = 0;
    let mut q = VecDeque::from([src]);
    while let Some(v) = q.pop_front() {
        for &u in g.neighbors(v) {
            let u = u as usize;
            if dist[u] == usize::MAX {
                dist[u] = dist[v] + 1;
                q.push_back(u);
            }
        }
    }
    dist
}

/// Connected-component labels in `[0, k)`; returns `(labels, k)`.
pub fn connected_components(g: &CsrGraph) -> (Vec<usize>, usize) {
    let n = g.num_nodes();
    let mut label = vec![usize::MAX; n];
    let mut next = 0;
    for s in 0..n {
        if label[s] != usize::MAX {
            continue;
        }
        label[s] = next;
        let mut q = VecDeque::from([s]);
        while let Some(v) = q.pop_front() {
            for &u in g.neighbors(v) {
                let u = u as usize;
                if label[u] == usize::MAX {
                    label[u] = next;
                    q.push_back(u);
                }
            }
        }
        next += 1;
    }
    (label, next)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bfs_on_path() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        assert_eq!(bfs_distances(&g, 0), vec![0, 1, 2, 3]);
    }

    #[test]
    fn bfs_unreachable() {
        let g = CsrGraph::from_edges(3, &[(0, 1)]);
        let d = bfs_distances(&g, 0);
        assert_eq!(d[2], usize::MAX);
    }

    #[test]
    fn components_count() {
        let g = CsrGraph::from_edges(6, &[(0, 1), (1, 2), (3, 4)]);
        let (labels, k) = connected_components(&g);
        assert_eq!(k, 3);
        assert_eq!(labels[0], labels[2]);
        assert_eq!(labels[3], labels[4]);
        assert_ne!(labels[0], labels[3]);
        assert_ne!(labels[5], labels[0]);
    }
}
