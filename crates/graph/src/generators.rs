//! Random-graph generators.
//!
//! These are the structural engines behind the synthetic dataset analogs
//! (see `e2gcl-datasets`): a degree-corrected stochastic block model for the
//! homophilous node-classification graphs and Erdős–Rényi for null models.

use crate::CsrGraph;
use e2gcl_linalg::SeedRng;

/// Erdős–Rényi `G(n, p)`.
pub fn erdos_renyi(n: usize, p: f64, rng: &mut SeedRng) -> CsrGraph {
    let mut edges = Vec::new();
    for u in 0..n {
        for v in (u + 1)..n {
            if f64::from(rng.uniform()) < p {
                edges.push((u, v));
            }
        }
    }
    CsrGraph::from_edges(n, &edges)
}

/// Degree-corrected stochastic block model.
///
/// * `labels[v]` — community of node `v` (values `< num_classes`);
/// * `target_avg_degree` — expected average degree of the output;
/// * `p_in` — probability mass an edge endpoint stays inside its community
///   (homophily level; the citation analogs use 0.7–0.9);
/// * `theta[v]` — relative degree propensity of `v` (pass uniform 1s for a
///   plain SBM; a Pareto draw gives heavy tails);
/// * `adjacent_bias` — probability a *cross*-community edge lands on a
///   ring-adjacent community (`c ± 1 mod k`) instead of a uniform one.
///   Real category systems confuse neighbouring categories, which keeps
///   dense graphs from being trivially separable by majority vote.
///
/// Edges are generated by sampling `n * target_avg_degree / 2` endpoint
/// pairs: pick a source by `theta`, pick the destination community by the
/// homophily mixture, then pick the destination by `theta` restricted to
/// that community. Duplicate edges collapse, so very dense settings come out
/// slightly sparser than the target.
pub fn dc_sbm(
    labels: &[usize],
    num_classes: usize,
    target_avg_degree: f64,
    p_in: f64,
    theta: &[f32],
    rng: &mut SeedRng,
) -> CsrGraph {
    dc_sbm_with_confusion(
        labels,
        num_classes,
        target_avg_degree,
        p_in,
        theta,
        0.0,
        rng,
    )
}

/// [`dc_sbm`] with an explicit adjacent-community confusion level.
#[allow(clippy::too_many_arguments)]
pub fn dc_sbm_with_confusion(
    labels: &[usize],
    num_classes: usize,
    target_avg_degree: f64,
    p_in: f64,
    theta: &[f32],
    adjacent_bias: f64,
    rng: &mut SeedRng,
) -> CsrGraph {
    let n = labels.len();
    assert_eq!(theta.len(), n);
    assert!(num_classes >= 1);
    assert!(labels.iter().all(|&c| c < num_classes));
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); num_classes];
    for (v, &c) in labels.iter().enumerate() {
        members[c].push(v);
    }
    // Per-community theta tables for weighted sampling, each with its
    // weight total summed once rather than on every draw.
    let comm_weights: Vec<(Vec<f32>, f64)> = members
        .iter()
        .map(|ms| {
            let w: Vec<f32> = ms.iter().map(|&v| theta[v].max(1e-6)).collect();
            let total = SeedRng::weight_total(&w);
            (w, total)
        })
        .collect();
    let global_weights: Vec<f32> = theta.iter().map(|&t| t.max(1e-6)).collect();
    let global_total = SeedRng::weight_total(&global_weights);

    let num_draws = ((n as f64) * target_avg_degree / 2.0).round() as usize;
    let mut edges = Vec::with_capacity(num_draws);
    for _ in 0..num_draws {
        let u = rng.weighted_index_with_total(&global_weights, global_total);
        let cu = labels[u];
        let target_comm = if f64::from(rng.uniform()) < p_in || num_classes == 1 {
            cu
        } else if num_classes > 2 && f64::from(rng.uniform()) < adjacent_bias {
            // Ring-adjacent confusion: class c leaks into c ± 1.
            if rng.bernoulli(0.5) {
                (cu + 1) % num_classes
            } else {
                (cu + num_classes - 1) % num_classes
            }
        } else {
            // Uniform over the other communities.
            let mut c = rng.below(num_classes - 1);
            if c >= cu {
                c += 1;
            }
            c
        };
        if members[target_comm].is_empty() {
            continue;
        }
        let (w, total) = &comm_weights[target_comm];
        let vi = rng.weighted_index_with_total(w, *total);
        let v = members[target_comm][vi];
        if u != v {
            edges.push((u, v));
        }
    }
    CsrGraph::from_edges(n, &edges)
}

/// Pareto-like degree propensities (`x^-a` tail) for DC-SBM, normalised to
/// mean 1.
pub fn pareto_theta(n: usize, shape: f32, rng: &mut SeedRng) -> Vec<f32> {
    let mut theta: Vec<f32> = (0..n)
        .map(|_| (1.0 - rng.uniform()).max(1e-6).powf(-1.0 / shape))
        .collect();
    let mean = theta.iter().sum::<f32>() / n as f32;
    for t in &mut theta {
        *t /= mean;
    }
    theta
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn er_density_roughly_p() {
        let mut rng = SeedRng::new(1);
        let n = 200;
        let p = 0.05;
        let g = erdos_renyi(n, p, &mut rng);
        let expect = p * (n * (n - 1) / 2) as f64;
        let got = g.num_edges() as f64;
        assert!(
            (got - expect).abs() < expect * 0.25,
            "got {got} expect {expect}"
        );
    }

    #[test]
    fn dc_sbm_is_homophilous() {
        let mut rng = SeedRng::new(4);
        let n = 400;
        let labels: Vec<usize> = (0..n).map(|v| v % 4).collect();
        let theta = vec![1.0; n];
        let g = dc_sbm(&labels, 4, 8.0, 0.9, &theta, &mut rng);
        let mut intra = 0usize;
        let mut total = 0usize;
        for (u, v) in g.edges() {
            total += 1;
            if labels[u] == labels[v] {
                intra += 1;
            }
        }
        let frac = intra as f64 / total as f64;
        assert!(frac > 0.8, "intra-community fraction {frac}");
    }

    #[test]
    fn dc_sbm_hits_target_degree() {
        let mut rng = SeedRng::new(5);
        let n = 500;
        let labels: Vec<usize> = (0..n).map(|v| v % 5).collect();
        let theta = vec![1.0; n];
        let g = dc_sbm(&labels, 5, 10.0, 0.8, &theta, &mut rng);
        let avg = g.avg_degree();
        assert!((avg - 10.0).abs() < 1.5, "avg degree {avg}");
    }

    #[test]
    fn dc_sbm_theta_skews_degrees() {
        let mut rng = SeedRng::new(6);
        let n = 300;
        let labels = vec![0usize; n];
        let mut theta = vec![1.0f32; n];
        theta[0] = 50.0;
        let g = dc_sbm(&labels, 1, 6.0, 1.0, &theta, &mut rng);
        let avg = g.avg_degree();
        assert!(
            g.degree(0) as f64 > 3.0 * avg,
            "deg0 {} avg {avg}",
            g.degree(0)
        );
    }

    #[test]
    fn pareto_theta_mean_one() {
        let mut rng = SeedRng::new(7);
        let t = pareto_theta(1000, 2.5, &mut rng);
        let mean = t.iter().sum::<f32>() / 1000.0;
        assert!((mean - 1.0).abs() < 1e-3);
        assert!(t.iter().all(|&x| x > 0.0));
    }
}
