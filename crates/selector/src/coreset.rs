//! The Eq. (14) cluster-relaxed representativity objective.
//!
//! For a selected set `V_s`, each node `w` in cluster `C_i` is "covered" at
//! distance
//!
//! ```text
//! d(w, V_s) = min( min_{u ∈ V_s ∩ C_i} ||R[w] − R[u]||,
//!                  min_{u ∈ V_s \ C_i} ||c_i − R[u]|| + d_i^max )
//! ```
//!
//! and the objective (to minimise) is `Σ_w d(w, V_s)`. The key structural
//! fact this module exploits: the *cross-cluster* branch depends on `w` only
//! through its cluster, so the marginal gain of a candidate `u` decomposes
//! into an exact per-member term over `u`'s own cluster plus one threshold
//! query per other cluster — which sorted per-cluster coverage tables answer
//! in `O(log |C_j|)` each.
//!
//! The tables are maintained incrementally. A pick `u` rebuilds only its own
//! cluster's table; every other cluster `j` sees one threshold
//! `t_j = ||c_j − R[u]|| + d_j^max`, and the members it lowers are exactly
//! the table's sorted suffix above `t_j`, which is overwritten with `t_j` in
//! place. The result equals a from-scratch rebuild bit for bit (DESIGN.md
//! §17).

use crate::kmeans::Clustering;
use e2gcl_linalg::{ops, Matrix};

/// Incremental evaluator of the Eq. (14) objective.
#[derive(Clone, Debug)]
pub struct CoresetObjective<'a> {
    repr: &'a Matrix,
    clustering: &'a Clustering,
    /// Coverage distance of an unrepresented node (finite stand-in for ∞ so
    /// marginal gains stay well-defined before the first selection).
    big: f32,
    /// Current coverage distance per node.
    best: Vec<f32>,
    /// Per-cluster sorted copies of `best` + suffix sums, for threshold sums.
    tables: Vec<CoverageTable>,
    /// Precomputed `||c_j − R[u]||` for every node `u` and cluster `j`
    /// (row-major `n x n_c`) — the relaxed branch of Eq. (14) reads this
    /// once per (candidate, cluster) instead of recomputing a `d`-dim
    /// distance on every greedy step.
    center_dist: Vec<f32>,
    selected: Vec<usize>,
}

#[derive(Clone, Debug)]
struct CoverageTable {
    /// Member coverage distances, ascending.
    sorted: Vec<f32>,
    /// `suffix[i] = Σ sorted[i..]`.
    suffix: Vec<f64>,
}

impl CoverageTable {
    fn build(values: impl Iterator<Item = f32>) -> CoverageTable {
        let mut table = CoverageTable {
            sorted: Vec::new(),
            suffix: Vec::new(),
        };
        table.rebuild(values);
        table
    }

    /// Re-sorts the member coverages from scratch, reusing the buffers.
    fn rebuild(&mut self, values: impl Iterator<Item = f32>) {
        self.sorted.clear();
        self.sorted.extend(values);
        self.sorted.sort_unstable_by(|a, b| a.total_cmp(b));
        self.suffix.resize(self.sorted.len() + 1, 0.0);
        self.resum();
    }

    /// Recomputes `suffix` from `sorted` with the reverse recurrence.
    fn resum(&mut self) {
        for i in (0..self.sorted.len()).rev() {
            self.suffix[i] = self.suffix[i + 1] + f64::from(self.sorted[i]);
        }
    }

    /// Largest member coverage; `None` for an empty cluster.
    fn max(&self) -> Option<f32> {
        self.sorted.last().copied()
    }

    /// Lowers every entry above `t` to `t`. Those entries are the sorted
    /// suffix, and a suffix of `t`s after a prefix of values `≤ t` is still
    /// ascending under `total_cmp` (`t` is never `-0.0`: `d_max` starts at
    /// `+0.0`). A `total_cmp`-sorted array depends only on the multiset of
    /// its values, so this equals rebuilding from the lowered coverages.
    fn lower_to(&mut self, t: f32) {
        let idx = self.sorted.partition_point(|&v| v <= t);
        self.sorted[idx..].fill(t);
        self.resum();
    }

    /// `Σ_w max(0, best_w − t)` over this cluster's members.
    fn gain_at(&self, t: f32) -> f64 {
        // First index with sorted[i] > t.
        let idx = self.sorted.partition_point(|&v| v <= t);
        let count = (self.sorted.len() - idx) as f64;
        self.suffix[idx] - f64::from(t) * count
    }
}

impl<'a> CoresetObjective<'a> {
    /// Builds the evaluator over raw aggregates `repr` and a clustering.
    pub fn new(repr: &'a Matrix, clustering: &'a Clustering) -> Self {
        let k = clustering.num_clusters();
        // Upper bound on any Eq. (14) distance: max centre separation plus
        // twice the largest radius.
        let mut max_center_sep = 0.0f32;
        for i in 0..k {
            for j in (i + 1)..k {
                let d = ops::dist(clustering.centers.row(i), clustering.centers.row(j));
                max_center_sep = max_center_sep.max(d);
            }
        }
        let max_radius = clustering.d_max.iter().cloned().fold(0.0f32, f32::max);
        let big = max_center_sep + 2.0 * max_radius + 1.0;
        let best = vec![big; repr.rows()];
        let tables = Self::build_tables(clustering, &best);
        let n = repr.rows();
        let mut center_dist = vec![0.0f32; n * k];
        {
            use rayon::prelude::*;
            center_dist
                .par_chunks_mut(k)
                .enumerate()
                .for_each(|(u, row)| {
                    for (j, slot) in row.iter_mut().enumerate() {
                        *slot = ops::dist(clustering.centers.row(j), repr.row(u));
                    }
                });
        }
        Self {
            repr,
            clustering,
            big,
            best,
            tables,
            center_dist,
            selected: Vec::new(),
        }
    }

    /// Precomputed `||c_j − R[u]||`.
    #[inline]
    fn dist_to_center(&self, u: usize, j: usize) -> f32 {
        self.center_dist[u * self.clustering.num_clusters() + j]
    }

    fn build_tables(clustering: &Clustering, best: &[f32]) -> Vec<CoverageTable> {
        clustering
            .members
            .iter()
            .map(|ms| CoverageTable::build(ms.iter().map(|&w| best[w])))
            .collect()
    }

    /// Currently selected nodes.
    pub fn selected(&self) -> &[usize] {
        &self.selected
    }

    /// Current objective value `RS(V_s) = Σ_w best_w`.
    pub fn objective(&self) -> f64 {
        self.best.iter().map(|&b| f64::from(b)).sum()
    }

    /// The "unrepresented" stand-in distance used before any selection.
    pub fn big(&self) -> f32 {
        self.big
    }

    /// Eq. (14) coverage distance a candidate `u` offers to node `w`:
    /// exact within `u`'s cluster, centre-relaxed across clusters.
    pub fn candidate_distance(&self, u: usize, w: usize) -> f32 {
        let cu = self.clustering.labels[u];
        let cw = self.clustering.labels[w];
        if cu == cw {
            ops::dist(self.repr.row(w), self.repr.row(u))
        } else {
            self.dist_to_center(u, cw) + self.clustering.d_max[cw]
        }
    }

    /// Marginal gain `ΔRS(u | V_s) = RS(V_s) − RS(V_s ∪ {u}) ≥ 0`.
    pub fn gain(&self, u: usize) -> f64 {
        let cu = self.clustering.labels[u];
        let ru = self.repr.row(u);
        let mut gain = 0.0f64;
        let mut add_member = |w: usize, d: f32| {
            if d < self.best[w] {
                gain += f64::from(self.best[w] - d);
            }
        };
        // Exact branch over u's own cluster, four distances at a time; the
        // gain still accumulates in member order.
        let mut quads = self.clustering.members[cu].chunks_exact(4);
        for quad in &mut quads {
            let rows = [0, 1, 2, 3].map(|i| self.repr.row(quad[i]));
            for (&w, d) in quad.iter().zip(dist4(rows, ru)) {
                add_member(w, d);
            }
        }
        for &w in quads.remainder() {
            add_member(w, ops::dist(self.repr.row(w), ru));
        }
        // Relaxed branch for every other cluster.
        for j in 0..self.clustering.num_clusters() {
            if j == cu {
                continue;
            }
            let t = self.dist_to_center(u, j) + self.clustering.d_max[j];
            // `gain_at` is exactly 0.0 when no member lies above `t`.
            if self.tables[j].max().is_some_and(|m| t >= m) {
                continue;
            }
            gain += self.tables[j].gain_at(t);
        }
        gain
    }

    /// Adds `u` to the selection, updating coverage distances and tables.
    pub fn add(&mut self, u: usize) {
        self.selected.push(u);
        let cu = self.clustering.labels[u];
        for &w in &self.clustering.members[cu] {
            let d = ops::dist(self.repr.row(w), self.repr.row(u));
            if d < self.best[w] {
                self.best[w] = d;
            }
        }
        let best = &self.best;
        self.tables[cu].rebuild(self.clustering.members[cu].iter().map(|&w| best[w]));
        for j in 0..self.clustering.num_clusters() {
            if j == cu {
                continue;
            }
            let t = self.dist_to_center(u, j) + self.clustering.d_max[j];
            // No member is covered worse than `t`: nothing moves.
            if !self.tables[j].max().is_some_and(|m| t < m) {
                continue;
            }
            for &w in &self.clustering.members[j] {
                if t < self.best[w] {
                    self.best[w] = t;
                }
            }
            self.tables[j].lower_to(t);
        }
    }
}

/// `ops::dist` from each of four rows to `u`, with four independent
/// accumulators for instruction-level parallelism. Each accumulator sums in
/// `ops::sq_dist`'s element order from the same initial value (its
/// `Iterator::sum` fold starts at the empty sum), so every result is bitwise
/// `ops::dist(row, u)`.
fn dist4(rows: [&[f32]; 4], u: &[f32]) -> [f32; 4] {
    let mut acc = [std::iter::empty::<f32>().sum::<f32>(); 4];
    let [r0, r1, r2, r3] = rows;
    for ((((&y, &a0), &a1), &a2), &a3) in u.iter().zip(r0).zip(r1).zip(r2).zip(r3) {
        for (s, x) in acc.iter_mut().zip([a0, a1, a2, a3]) {
            let d = x - y;
            *s += d * d;
        }
    }
    acc.map(f32::sqrt)
}

/// The exact (unrelaxed) Eq. (12) k-medoid objective — brute force, used by
/// the relaxation-quality ablation and tests.
pub fn exact_kmedoid_objective(repr: &Matrix, selected: &[usize]) -> f64 {
    if selected.is_empty() {
        return f64::INFINITY;
    }
    (0..repr.rows())
        .map(|v| {
            selected
                .iter()
                .map(|&u| f64::from(ops::dist(repr.row(v), repr.row(u))))
                .fold(f64::INFINITY, f64::min)
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kmeans::kmeans;
    use e2gcl_linalg::SeedRng;

    fn two_blobs() -> Matrix {
        let mut rng = SeedRng::new(0);
        let mut x = Matrix::zeros(40, 2);
        for v in 0..40 {
            let c = if v < 20 { 0.0 } else { 8.0 };
            x.set(v, 0, c + 0.3 * rng.normal());
            x.set(v, 1, c + 0.3 * rng.normal());
        }
        x
    }

    #[test]
    fn gain_matches_add_delta() {
        let x = two_blobs();
        let clustering = kmeans(&x, 2, 30, &mut SeedRng::new(1));
        let mut obj = CoresetObjective::new(&x, &clustering);
        for &u in &[3usize, 25, 10] {
            let before = obj.objective();
            let g = obj.gain(u);
            obj.add(u);
            let after = obj.objective();
            assert!(
                (before - after - g).abs() < 1e-3 * (1.0 + g.abs()),
                "gain {g} vs delta {}",
                before - after
            );
        }
    }

    #[test]
    fn gains_are_nonnegative_and_monotone_decreasing() {
        let x = two_blobs();
        let clustering = kmeans(&x, 2, 30, &mut SeedRng::new(2));
        let mut obj = CoresetObjective::new(&x, &clustering);
        let g_before = obj.gain(7);
        obj.add(5);
        let g_after = obj.gain(7);
        assert!(g_before >= 0.0 && g_after >= 0.0);
        // Submodularity: adding an element can only shrink later gains.
        assert!(g_after <= g_before + 1e-6);
    }

    #[test]
    fn covering_both_blobs_beats_one_blob() {
        let x = two_blobs();
        let clustering = kmeans(&x, 2, 30, &mut SeedRng::new(3));
        let mut both = CoresetObjective::new(&x, &clustering);
        both.add(0);
        both.add(30);
        let mut one = CoresetObjective::new(&x, &clustering);
        one.add(0);
        one.add(1);
        assert!(both.objective() < one.objective());
    }

    #[test]
    fn objective_upper_bounds_exact_kmedoid() {
        // Eq. (13): the relaxed objective is an upper bound of Eq. (12).
        let x = two_blobs();
        let clustering = kmeans(&x, 2, 30, &mut SeedRng::new(4));
        let mut obj = CoresetObjective::new(&x, &clustering);
        obj.add(2);
        obj.add(31);
        let exact = exact_kmedoid_objective(&x, obj.selected());
        assert!(obj.objective() >= exact - 1e-3);
    }

    #[test]
    fn coverage_table_threshold_sums() {
        let t = CoverageTable::build([1.0, 3.0, 5.0].into_iter());
        assert!((t.gain_at(0.0) - 9.0).abs() < 1e-6);
        assert!((t.gain_at(2.0) - (1.0 + 3.0)).abs() < 1e-6); // (3-2)+(5-2)
        assert!((t.gain_at(10.0) - 0.0).abs() < 1e-6);
    }

    #[test]
    fn candidate_distance_exact_in_cluster_relaxed_across() {
        let x = two_blobs();
        let clustering = kmeans(&x, 2, 30, &mut SeedRng::new(5));
        let obj = CoresetObjective::new(&x, &clustering);
        // Same-cluster pair: exact Euclidean distance on R.
        let (u, w) = (0usize, 1usize);
        assert_eq!(clustering.labels[u], clustering.labels[w]);
        assert!((obj.candidate_distance(u, w) - ops::dist(x.row(w), x.row(u))).abs() < 1e-6);
        // Cross-cluster pair: centre distance + d_max, an upper bound.
        let v_other = (0..40)
            .find(|&v| clustering.labels[v] != clustering.labels[u])
            .unwrap();
        let relaxed = obj.candidate_distance(u, v_other);
        assert!(relaxed >= ops::dist(x.row(v_other), x.row(u)) - 1e-4);
    }

    /// The selector before incremental tables: `add` rebuilds every table
    /// from the coverages, `gain` scans every member and every table.
    struct Rebuilt {
        best: Vec<f32>,
        tables: Vec<CoverageTable>,
    }

    impl Rebuilt {
        fn new(obj: &CoresetObjective<'_>) -> Rebuilt {
            let best = vec![obj.big(); obj.repr.rows()];
            let tables = CoresetObjective::build_tables(obj.clustering, &best);
            Rebuilt { best, tables }
        }

        fn gain(&self, obj: &CoresetObjective<'_>, u: usize) -> f64 {
            let cu = obj.clustering.labels[u];
            let mut gain = 0.0f64;
            for &w in &obj.clustering.members[cu] {
                let d = ops::dist(obj.repr.row(w), obj.repr.row(u));
                if d < self.best[w] {
                    gain += f64::from(self.best[w] - d);
                }
            }
            for j in 0..obj.clustering.num_clusters() {
                if j != cu {
                    let t = obj.dist_to_center(u, j) + obj.clustering.d_max[j];
                    gain += self.tables[j].gain_at(t);
                }
            }
            gain
        }

        fn add(&mut self, obj: &CoresetObjective<'_>, u: usize) {
            for (w, b) in self.best.iter_mut().enumerate() {
                let d = obj.candidate_distance(u, w);
                if d < *b {
                    *b = d;
                }
            }
            self.tables = CoresetObjective::build_tables(obj.clustering, &self.best);
        }
    }

    fn bits32(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn bits64(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Adds `picks` one by one and checks, after every add, that coverages,
    /// tables and every node's gain equal the rebuild-based reference bit
    /// for bit. Returns how many `(pick, cluster)` thresholds equalled an
    /// entry strictly below the table's largest one.
    fn check_against_rebuild(x: &Matrix, clustering: &Clustering, picks: &[usize]) -> usize {
        let mut obj = CoresetObjective::new(x, clustering);
        let mut reference = Rebuilt::new(&obj);
        let mut interior_ties = 0;
        for &u in picks {
            for j in 0..clustering.num_clusters() {
                let t = obj.dist_to_center(u, j) + clustering.d_max[j];
                let table = &obj.tables[j];
                if j != clustering.labels[u] && table.max().is_some_and(|m| t < m) {
                    interior_ties += usize::from(table.sorted.contains(&t));
                }
            }
            obj.add(u);
            reference.add(&obj, u);
            assert_eq!(
                bits32(&obj.best),
                bits32(&reference.best),
                "coverage after {u}"
            );
            for (j, (got, want)) in obj.tables.iter().zip(&reference.tables).enumerate() {
                assert_eq!(
                    bits32(&got.sorted),
                    bits32(&want.sorted),
                    "table {j} after {u}"
                );
                assert_eq!(
                    bits64(&got.suffix),
                    bits64(&want.suffix),
                    "suffix {j} after {u}"
                );
            }
            for v in 0..x.rows() {
                let (got, want) = (obj.gain(v), reference.gain(&obj, v));
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "gain({v}) after {u}: {got} vs {want}"
                );
            }
        }
        interior_ties
    }

    /// A clustering with the given labels, centres at the members' mean and
    /// `d_max` as `kmeans` computes it.
    fn clustering_from_labels(x: &Matrix, labels: Vec<usize>, k: usize) -> Clustering {
        let mut members = vec![Vec::new(); k];
        for (v, &c) in labels.iter().enumerate() {
            members[c].push(v);
        }
        let mut centers = Matrix::zeros(k, x.cols());
        for (c, ms) in members.iter().enumerate() {
            for &v in ms {
                for (slot, &xv) in centers.row_mut(c).iter_mut().zip(x.row(v)) {
                    *slot += xv / ms.len() as f32;
                }
            }
        }
        let mut d_max = vec![0.0f32; k];
        for (v, &c) in labels.iter().enumerate() {
            d_max[c] = d_max[c].max(ops::dist(x.row(v), centers.row(c)));
        }
        Clustering {
            labels,
            centers,
            d_max,
            members,
        }
    }

    #[test]
    fn incremental_tables_equal_rebuild_on_random_inputs() {
        for seed in 0..12u64 {
            let mut rng = SeedRng::new(100 + seed);
            let n = 30 + rng.below(50);
            // Integer coordinates on a small grid: many duplicate rows and
            // exactly equal distances.
            let dim = 1 + rng.below(3);
            let mut x = Matrix::zeros(n, dim);
            for v in x.as_mut_slice() {
                *v = rng.below(5) as f32;
            }
            // Random labels; the last two clusters hold one member each.
            let k = 3 + rng.below(5);
            let mut labels: Vec<usize> = (0..n).map(|_| rng.below(k - 2)).collect();
            labels[0] = k - 2;
            labels[1] = k - 1;
            let clustering = clustering_from_labels(&x, labels, k);
            let mut picks = rng.sample_without_replacement(n, n / 2);
            // Picking the single-member clusters' nodes exercises their
            // own-cluster rebuild.
            for v in [0, 1] {
                if !picks.contains(&v) {
                    picks.push(v);
                }
            }
            check_against_rebuild(&x, &clustering, &picks);
        }
        // The same check on a real KMeans clustering of Gaussian data.
        let x = two_blobs();
        let clustering = kmeans(&x, 5, 30, &mut SeedRng::new(6));
        let picks = SeedRng::new(7).sample_without_replacement(40, 25);
        check_against_rebuild(&x, &clustering, &picks);
    }

    #[test]
    fn threshold_equal_to_an_interior_entry_keeps_it() {
        // One dimension, exact integer distances. Clusters:
        //   A = {10} (centre 10, d_max 0)
        //   B = {-2, 0, 2} (centre 0, d_max 2)
        //   C = {-9, -11} (centre -10, d_max 1)
        //   D = {0} (centre 0, d_max 0): a duplicate of B's middle row.
        let x = Matrix::from_rows(&[&[10.0], &[-2.0], &[0.0], &[2.0], &[-9.0], &[-11.0], &[0.0]]);
        let clustering = clustering_from_labels(&x, vec![0, 1, 1, 1, 2, 2, 3], 4);
        // Picking 10 lowers B to 12; picking 2 rebuilds B as [0, 2, 4];
        // picking D's 0 gives B the threshold 0 + 2 = 2, equal to the
        // middle entry, which must stay while 4 drops to 2.
        let ties = check_against_rebuild(&x, &clustering, &[0, 3, 6, 2]);
        assert!(ties >= 1, "no threshold hit an interior table entry");
    }

    #[test]
    fn lowering_a_table_equals_rebuilding_it() {
        let values = [0.5f32, 1.0, 1.0, 2.0, 3.0, 3.0, 7.0];
        for t in [0.0f32, 0.5, 1.0, 1.5, 3.0, 6.9, 7.0, 8.0] {
            let mut table = CoverageTable::build(values.iter().copied());
            table.lower_to(t);
            let want = CoverageTable::build(values.iter().map(|&v| v.min(t)));
            assert_eq!(bits32(&table.sorted), bits32(&want.sorted), "t = {t}");
            assert_eq!(bits64(&table.suffix), bits64(&want.suffix), "t = {t}");
        }
    }

    #[test]
    fn dist4_is_bitwise_dist() {
        let mut rng = SeedRng::new(9);
        for dim in [0usize, 1, 3, 4, 7, 33] {
            let rows: Vec<Vec<f32>> = (0..5)
                .map(|_| (0..dim).map(|_| 3.0 * rng.normal()).collect())
                .collect();
            let u = &rows[4];
            let got = dist4([0, 1, 2, 3].map(|i| rows[i].as_slice()), u);
            for (i, g) in got.iter().enumerate() {
                assert_eq!(
                    g.to_bits(),
                    ops::dist(&rows[i], u).to_bits(),
                    "dim {dim} row {i}"
                );
            }
        }
    }

    #[test]
    fn exact_objective_empty_is_infinite() {
        let x = two_blobs();
        assert!(exact_kmedoid_objective(&x, &[]).is_infinite());
    }
}
