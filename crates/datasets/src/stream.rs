//! Streaming, sharded DC-SBM graph construction for the million-node tier.
//!
//! [`e2gcl_graph::generators::dc_sbm_with_confusion`] is the right tool up
//! to ~100k nodes, but it has two costs that explode at a million:
//!
//! * every edge draw picks its source with
//!   `SeedRng::weighted_index_with_total`: the weight totals are summed
//!   once per graph, but each draw still scans the propensities up to the
//!   drawn one — `O(|V|)` *per draw*, so `O(|V|² · d̄)` overall;
//! * the edge list (`Vec<(usize, usize)>`) plus the per-node `Vec<Vec<u32>>`
//!   adjacency of `CsrGraph::from_edges` materialise every duplicate edge
//!   and one heap allocation per node.
//!
//! [`StreamingSbm`] replaces both. Weighted sampling goes through prefix-sum
//! `CumTable`s (one binary search per draw), and the edge stream is never
//! stored: draws are split into shards, each with its own up-front-forked
//! RNG, and the stream is *replayed* — once to count degrees (which sizes
//! the CSR arrays exactly), once to scatter endpoints into place. A final
//! in-place sort/dedup pass per node yields [`CsrGraph::from_csr_parts`]
//! input. Peak memory is three flat arrays (`offsets`, `cursor`,
//! pre-dedup `neighbors`), independent of shard count.
//!
//! The output distribution matches the in-memory generator (same mixture:
//! θ-weighted source, homophily/adjacent-confusion community choice,
//! θ-weighted destination within the community; duplicates collapse), but
//! the bitstreams differ — `CumTable` consumes one `f64` where
//! `weighted_index` consumes one `f64` *plus* a scan whose rounding
//! differs — so graphs built here are deterministic per seed yet not
//! bit-identical to `dc_sbm_with_confusion`. The shard layout
//! (`draws_per_shard`) is part of the deterministic definition: changing it
//! re-partitions the per-shard RNG streams and yields a different (equally
//! valid) graph.

use e2gcl_graph::CsrGraph;
use e2gcl_linalg::SeedRng;

/// Default draws per shard (~4.2M): a million-node, degree-32 graph replays
/// as four shards while anything test-sized stays single-shard.
pub const DEFAULT_SHARD_DRAWS: usize = 1 << 22;

/// Prefix-sum table for O(log n) weighted index sampling.
struct CumTable {
    /// `cum[i]` = total weight of indices `0..=i`.
    cum: Vec<f64>,
    total: f64,
}

impl CumTable {
    /// Builds from weights floored at `1e-6` (mirroring the in-memory
    /// generator, which floors propensities so no node is unreachable).
    fn new(weights: impl Iterator<Item = f32>) -> Self {
        let mut total = 0.0f64;
        let cum: Vec<f64> = weights
            .map(|w| {
                total += f64::from(w.max(1e-6));
                total
            })
            .collect();
        Self { cum, total }
    }

    fn is_empty(&self) -> bool {
        self.cum.is_empty()
    }

    /// Samples an index with probability proportional to its weight.
    /// Consumes exactly one `f64` from `rng`.
    fn sample(&self, rng: &mut SeedRng) -> usize {
        debug_assert!(!self.is_empty());
        let t = rng.uniform_f64() * self.total;
        self.cum.partition_point(|&c| c < t).min(self.cum.len() - 1)
    }
}

/// Community membership and sampling tables shared by every shard.
struct SbmTables {
    /// `members[c]` — node ids of community `c`, in ascending order.
    members: Vec<Vec<usize>>,
    /// θ-weighted sampler over each community's members.
    comm: Vec<CumTable>,
    /// θ-weighted sampler over all nodes.
    global: CumTable,
}

/// A degree-corrected SBM whose CSR adjacency is assembled by sharded
/// stream replay instead of an in-memory edge list (module docs).
///
/// Field semantics match [`e2gcl_graph::generators::dc_sbm_with_confusion`].
pub struct StreamingSbm<'a> {
    /// Community of each node (values `< num_classes`).
    pub labels: &'a [usize],
    /// Number of communities.
    pub num_classes: usize,
    /// Expected average degree of the output (duplicates collapse, so very
    /// dense settings come out slightly sparser).
    pub target_avg_degree: f64,
    /// Probability an edge stays inside its source's community.
    pub p_in: f64,
    /// Per-node degree propensity (mean ~1).
    pub theta: &'a [f32],
    /// Probability a cross-community edge lands ring-adjacent.
    pub adjacent_bias: f64,
    /// Edge draws replayed per shard ([`DEFAULT_SHARD_DRAWS`]).
    pub draws_per_shard: usize,
}

impl StreamingSbm<'_> {
    /// Builds the graph, drawing all randomness from `rng`.
    ///
    /// # Panics
    /// Panics on inconsistent inputs (label out of range, θ length
    /// mismatch, zero `draws_per_shard`).
    pub fn build(&self, rng: &mut SeedRng) -> CsrGraph {
        let n = self.labels.len();
        let tables = self.tables();
        let plans = self.shard_plans(rng);

        // Pass 1 — count endpoint occurrences (duplicates included); the
        // prefix sum sizes every node's pre-dedup neighbour slot range.
        let mut counts = vec![0u32; n];
        self.replay(&tables, &plans, |u, v| {
            counts[u] += 1;
            counts[v] += 1;
        });
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0usize);
        for &c in &counts {
            offsets.push(offsets.last().copied().unwrap_or(0) + c as usize);
        }
        drop(counts);

        // Pass 2 — identical replay scatters endpoints into their slots.
        let mut cursor: Vec<usize> = offsets[..n].to_vec();
        let mut neighbors = vec![0u32; *offsets.last().expect("offsets non-empty")];
        self.replay(&tables, &plans, |u, v| {
            neighbors[cursor[u]] = v as u32;
            cursor[u] += 1;
            neighbors[cursor[v]] = u as u32;
            cursor[v] += 1;
        });
        drop(cursor);

        // Pass 3 — per-node in-place sort + dedup + compaction. The write
        // head never passes the node's read range, so this is allocation-free.
        let mut write = 0usize;
        let mut final_offsets = Vec::with_capacity(n + 1);
        final_offsets.push(0usize);
        for v in 0..n {
            let (lo, hi) = (offsets[v], offsets[v + 1]);
            neighbors[lo..hi].sort_unstable();
            let mut prev = None;
            for i in lo..hi {
                let w = neighbors[i];
                if prev != Some(w) {
                    neighbors[write] = w;
                    write += 1;
                    prev = Some(w);
                }
            }
            final_offsets.push(write);
        }
        neighbors.truncate(write);
        neighbors.shrink_to_fit();
        CsrGraph::from_csr_parts(n, final_offsets, neighbors)
    }

    /// Total edge draws, matching the in-memory generator's budget.
    fn num_draws(&self) -> usize {
        (self.labels.len() as f64 * self.target_avg_degree / 2.0).round() as usize
    }

    /// Forks one RNG per shard *up front*, so both replay passes (and any
    /// external consumer of the same stream) see identical draws.
    fn shard_plans(&self, rng: &mut SeedRng) -> Vec<(usize, SeedRng)> {
        assert!(self.draws_per_shard > 0, "draws_per_shard must be >= 1");
        let mut remaining = self.num_draws();
        let mut plans = Vec::new();
        let mut shard = 0usize;
        while remaining > 0 {
            let draws = remaining.min(self.draws_per_shard);
            plans.push((draws, rng.fork(&format!("shard-{shard}"))));
            remaining -= draws;
            shard += 1;
        }
        plans
    }

    fn tables(&self) -> SbmTables {
        let n = self.labels.len();
        assert_eq!(self.theta.len(), n, "theta length mismatch");
        assert!(self.num_classes >= 1);
        assert!(self.labels.iter().all(|&c| c < self.num_classes));
        let mut members: Vec<Vec<usize>> = vec![Vec::new(); self.num_classes];
        for (v, &c) in self.labels.iter().enumerate() {
            members[c].push(v);
        }
        let comm = members
            .iter()
            .map(|ms| CumTable::new(ms.iter().map(|&v| self.theta[v])))
            .collect();
        SbmTables {
            members,
            comm,
            global: CumTable::new(self.theta.iter().copied()),
        }
    }

    /// Replays every shard's edge stream in order, invoking `emit(u, v)`
    /// for each accepted draw (`u != v`; duplicates are emitted as drawn).
    /// Shard RNGs are cloned, so replaying twice yields the same stream.
    fn replay<F: FnMut(usize, usize)>(
        &self,
        tables: &SbmTables,
        plans: &[(usize, SeedRng)],
        mut emit: F,
    ) {
        let k = self.num_classes;
        for (draws, shard_rng) in plans {
            let mut rng = shard_rng.clone();
            for _ in 0..*draws {
                let u = tables.global.sample(&mut rng);
                let cu = self.labels[u];
                let target_comm = if f64::from(rng.uniform()) < self.p_in || k == 1 {
                    cu
                } else if k > 2 && f64::from(rng.uniform()) < self.adjacent_bias {
                    // Ring-adjacent confusion: class c leaks into c ± 1.
                    if rng.bernoulli(0.5) {
                        (cu + 1) % k
                    } else {
                        (cu + k - 1) % k
                    }
                } else {
                    // Uniform over the other communities.
                    let mut c = rng.below(k - 1);
                    if c >= cu {
                        c += 1;
                    }
                    c
                };
                if tables.comm[target_comm].is_empty() {
                    continue;
                }
                let vi = tables.comm[target_comm].sample(&mut rng);
                let v = tables.members[target_comm][vi];
                if u != v {
                    emit(u, v);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use e2gcl_graph::generators::pareto_theta;

    fn ring_labels(n: usize, k: usize) -> Vec<usize> {
        (0..n).map(|v| v % k).collect()
    }

    fn sbm<'a>(labels: &'a [usize], theta: &'a [f32], draws_per_shard: usize) -> StreamingSbm<'a> {
        StreamingSbm {
            labels,
            num_classes: 5,
            target_avg_degree: 8.0,
            p_in: 0.8,
            theta,
            adjacent_bias: 0.5,
            draws_per_shard,
        }
    }

    /// The CSR assembled by two-pass replay must equal `from_edges` fed the
    /// *identical* per-shard edge stream — pins sharded assembly against
    /// the reference constructor's symmetrise/sort/dedup semantics.
    #[test]
    fn matches_from_edges_on_the_same_stream() {
        let n = 600;
        let labels = ring_labels(n, 5);
        let mut theta_rng = SeedRng::new(11);
        let theta = pareto_theta(n, 2.5, &mut theta_rng);
        // Small shards force multi-shard replay.
        let cfg = sbm(&labels, &theta, 500);

        let streamed = cfg.build(&mut SeedRng::new(9));

        let tables = cfg.tables();
        let plans = cfg.shard_plans(&mut SeedRng::new(9));
        assert!(plans.len() > 1, "test must exercise multiple shards");
        let mut edges = Vec::new();
        cfg.replay(&tables, &plans, |u, v| edges.push((u, v)));
        let naive = CsrGraph::from_edges(n, &edges);

        assert_eq!(streamed, naive);
        streamed.validate().unwrap();
    }

    #[test]
    fn deterministic_per_seed_and_shard_layout() {
        let n = 400;
        let labels = ring_labels(n, 5);
        let theta = vec![1.0f32; n];
        let a = sbm(&labels, &theta, 300).build(&mut SeedRng::new(1));
        let b = sbm(&labels, &theta, 300).build(&mut SeedRng::new(1));
        assert_eq!(a, b);
        let c = sbm(&labels, &theta, 300).build(&mut SeedRng::new(2));
        assert_ne!(a, c, "different seed must change the graph");
        // The shard layout is part of the deterministic definition.
        let d = sbm(&labels, &theta, 128).build(&mut SeedRng::new(1));
        assert_ne!(a, d, "different shard layout must change the stream");
    }

    #[test]
    fn hits_degree_and_homophily_targets() {
        let n = 2000;
        let labels = ring_labels(n, 5);
        let theta = vec![1.0f32; n];
        let g = sbm(&labels, &theta, DEFAULT_SHARD_DRAWS).build(&mut SeedRng::new(3));
        g.validate().unwrap();
        assert_eq!(g.num_nodes(), n);
        let avg = g.avg_degree();
        assert!((avg - 8.0).abs() < 1.5, "avg degree {avg}");
        let mut intra = 0usize;
        let mut total = 0usize;
        for (u, v) in g.edges() {
            total += 1;
            intra += usize::from(labels[u] == labels[v]);
        }
        let frac = intra as f64 / total as f64;
        assert!(frac > 0.7, "intra-community fraction {frac}");
    }

    #[test]
    fn theta_skews_degrees() {
        let n = 500;
        let labels = vec![0usize; n];
        let mut theta = vec![1.0f32; n];
        theta[0] = 50.0;
        let g = StreamingSbm {
            labels: &labels,
            num_classes: 1,
            target_avg_degree: 6.0,
            p_in: 1.0,
            theta: &theta,
            adjacent_bias: 0.0,
            draws_per_shard: DEFAULT_SHARD_DRAWS,
        }
        .build(&mut SeedRng::new(4));
        let avg = g.avg_degree();
        assert!(
            g.degree(0) as f64 > 3.0 * avg,
            "deg0 {} avg {avg}",
            g.degree(0)
        );
    }

    #[test]
    fn cum_table_respects_weights() {
        let t = CumTable::new([0.0f32, 0.0, 1.0, 0.0].into_iter());
        let mut rng = SeedRng::new(5);
        let mut hits = [0usize; 4];
        for _ in 0..200 {
            hits[t.sample(&mut rng)] += 1;
        }
        // Floored weights leave ~1e-6 mass on the zero entries.
        assert!(hits[2] > 190, "{hits:?}");
    }
}
