//! Latency-instrumented, overload-tolerant batch request server.
//!
//! A [`BatchServer`] owns an [`EmbeddingStore`] (and optionally an
//! [`InductiveEngine`]) and answers batches of [`Request`]s. Each batch
//! passes through three phases:
//!
//! 1. **Admission** (sequential, deterministic): requests beyond the
//!    bounded queue capacity are shed as [`RejectCause::Overload`];
//!    requests whose estimated completion — queue-ahead work under the
//!    server's EWMA cost model, plus any fault-plan stall — exceeds their
//!    deadline budget are shed as [`RejectCause::DeadlineExceeded`]
//!    *before* any work is wasted on them. The wait estimate is a
//!    conservative single-worker serialisation of the queue, so admission
//!    decisions do not depend on the worker-pool size.
//! 2. **Execution**: admitted requests fan out over the rayon pool. The
//!    inductive path retries with doubling backoff (mirroring the
//!    trainer's `Backoff` guard) and, on persistent failure, degrades to
//!    the stored-embedding answer, marked `degraded: true`.
//! 3. **Accounting**: the batch's latency lands in a per-batch-size
//!    [`LatencyHistogram`], the EWMA cost model absorbs the observed
//!    per-query cost, and [`ShedStats`] counters advance.
//!
//! All scheduling reads one [`Clock`]; with [`Clock::virtual_at`] every
//! overload behaviour above is exactly reproducible in tests.

use crate::histogram::{LatencyHistogram, LatencySummary};
use crate::index::IvfIndex;
use crate::inductive::InductiveEngine;
use crate::runtime::{Clock, ErrorKind, RejectCause, RuntimeConfig, ServeFaultPlan, ShedStats};
use crate::store::{EmbeddingStore, Hit};
use crate::{Artifact, ServeError};
use e2gcl_graph::CsrGraph;
use e2gcl_linalg::{Matrix, SeedRng};
use rayon::prelude::*;
use serde::Serialize;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One serving query.
#[derive(Clone, Debug)]
pub enum Request {
    /// The stored embedding of a training-graph node.
    Embedding {
        /// Node id.
        node: usize,
    },
    /// Top-`k` cosine neighbours of a stored node's embedding.
    TopK {
        /// Query node id.
        node: usize,
        /// Number of neighbours.
        k: usize,
    },
    /// Top-`k` neighbours of a node embedded *inductively* (ego-subgraph
    /// forward through the frozen encoder instead of the stored row).
    TopKInductive {
        /// Query node id.
        node: usize,
        /// Number of neighbours.
        k: usize,
    },
    /// Linear-probe class of a stored node's embedding.
    Classify {
        /// Query node id.
        node: usize,
    },
}

/// The answer to one [`Request`].
#[derive(Clone, Debug)]
pub enum Response {
    /// An embedding vector.
    Embedding(Vec<f32>),
    /// Ranked `(node, cosine)` hits. `degraded` marks an answer produced by
    /// the stored-embedding fallback after the inductive path failed
    /// persistently — correct rows, but without the inductive freshness the
    /// caller asked for.
    Hits {
        /// The ranked hits.
        hits: Vec<Hit>,
        /// True when answered via graceful degradation.
        degraded: bool,
    },
    /// A predicted class.
    Class(usize),
    /// The request was shed without being executed.
    Rejected(RejectCause),
    /// The query failed (per-query; the batch itself always completes).
    Failed {
        /// Structured failure category.
        kind: ErrorKind,
        /// Human-readable detail.
        message: String,
    },
}

impl Response {
    /// True for answered queries (not [`Response::Failed`] /
    /// [`Response::Rejected`]).
    pub fn is_ok(&self) -> bool {
        !matches!(self, Response::Failed { .. } | Response::Rejected(_))
    }

    /// True when this answer came from the degraded fallback path.
    pub fn is_degraded(&self) -> bool {
        matches!(self, Response::Hits { degraded: true, .. })
    }

    fn from_error(e: &ServeError) -> Response {
        Response::Failed {
            kind: e.kind(),
            message: e.to_string(),
        }
    }
}

/// Per-job execution flags assigned deterministically at admission.
struct Job {
    /// Index into the arriving batch.
    idx: usize,
    /// Lifetime sequence number (keys the fault plan).
    seq: u64,
    /// Synthetic stall before execution, microseconds.
    stall_us: u64,
}

/// What one executed job reports back for stats accounting.
#[derive(Default)]
struct JobOutcome {
    retries: u64,
    degraded: bool,
    failed: bool,
}

/// EWMA weight of the newest per-query cost observation.
const COST_EWMA_ALPHA: f64 = 0.2;

/// Embedding store + optional inductive engine + latency accounting +
/// overload policy.
pub struct BatchServer {
    store: EmbeddingStore,
    index: Option<IvfIndex>,
    inductive: Option<InductiveEngine>,
    histograms: BTreeMap<usize, LatencyHistogram>,
    runtime: RuntimeConfig,
    clock: Clock,
    fault: ServeFaultPlan,
    fault_active: bool,
    artifact_seed: Option<u64>,
    seq: u64,
    stats: ShedStats,
    cost_ewma_us: f64,
    last_depth: usize,
}

impl BatchServer {
    /// A server over a pre-built store (no inductive path), with the
    /// permissive default [`RuntimeConfig`] and a wall clock.
    pub fn new(store: EmbeddingStore) -> Self {
        Self {
            store,
            index: None,
            inductive: None,
            histograms: BTreeMap::new(),
            runtime: RuntimeConfig::default(),
            clock: Clock::wall(),
            fault: ServeFaultPlan::default(),
            fault_active: false,
            artifact_seed: None,
            seq: 0,
            stats: ShedStats::default(),
            cost_ewma_us: 0.0,
            last_depth: 0,
        }
    }

    /// A server over a loaded artifact: stored embeddings answer similarity
    /// queries, the frozen encoder (over `graph`/`features`) answers
    /// inductive ones.
    pub fn from_artifact(
        artifact: &Artifact,
        graph: CsrGraph,
        features: Matrix,
    ) -> Result<Self, ServeError> {
        let store = EmbeddingStore::new(artifact.embeddings.clone());
        let inductive = InductiveEngine::new(artifact.encoder.clone(), graph, features)?;
        let mut server = Self::new(store);
        server.inductive = Some(inductive);
        server.artifact_seed = Some(artifact.meta.seed);
        Ok(server)
    }

    /// Replaces the runtime (admission/deadline/degradation) policy.
    pub fn with_runtime(mut self, runtime: RuntimeConfig) -> Self {
        self.runtime = runtime;
        self
    }

    /// Replaces the scheduling clock (tests pass [`Clock::virtual_at`]).
    pub fn with_clock(mut self, clock: Clock) -> Self {
        self.clock = clock;
        self
    }

    /// Installs a fault plan. Seed-scoped plans only activate when their
    /// `only_seed` matches the served artifact's seed.
    pub fn with_fault_plan(mut self, plan: ServeFaultPlan) -> Self {
        self.fault_active = plan.is_active_for(self.artifact_seed);
        self.fault = plan;
        self
    }

    /// Attaches an [`IvfIndex`]: every top-k (stored *and* inductive)
    /// routes through ANN probe + exact re-rank instead of the brute-force
    /// scan. Fails with [`ServeError::IndexMismatch`] unless the index was
    /// built over byte-for-byte this store ([`IvfIndex::matches`]).
    pub fn with_index(mut self, mut index: IvfIndex) -> Result<Self, ServeError> {
        index.pack(&self.store)?;
        self.index = Some(index);
        Ok(self)
    }

    /// The attached ANN index, if any.
    pub fn index(&self) -> Option<&IvfIndex> {
        self.index.as_ref()
    }

    /// Re-tunes the attached index's `nprobe` (no-op without an index).
    pub fn set_nprobe(&mut self, nprobe: usize) {
        if let Some(index) = self.index.as_mut() {
            index.set_nprobe(nprobe);
        }
    }

    /// The underlying store (e.g. to fit a probe before serving).
    pub fn store_mut(&mut self) -> &mut EmbeddingStore {
        &mut self.store
    }

    /// The underlying store.
    pub fn store(&self) -> &EmbeddingStore {
        &self.store
    }

    /// The inductive engine, when the server has one.
    pub fn inductive(&self) -> Option<&InductiveEngine> {
        self.inductive.as_ref()
    }

    /// The scheduling clock.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// Lifetime shed/degrade/retry counters.
    pub fn stats(&self) -> ShedStats {
        self.stats
    }

    /// High-water backpressure signal: true when the last batch filled the
    /// admitted queue to `high_water` or beyond (or shed for overload).
    /// Load generators should throttle while this holds.
    pub fn backpressure(&self) -> bool {
        self.runtime.high_water > 0 && self.last_depth >= self.runtime.high_water
    }

    /// Answers a batch with each request under the runtime's default
    /// deadline budget. Per-query failures become [`Response::Failed`];
    /// shed requests become [`Response::Rejected`]; the batch's wall time
    /// lands in the histogram for `batch.len()`.
    pub fn serve(&mut self, batch: &[Request]) -> Vec<Response> {
        self.serve_deadline(batch, self.runtime.default_deadline_us)
    }

    /// [`Self::serve`] with an explicit per-request deadline budget
    /// (microseconds from batch arrival) overriding the default.
    pub fn serve_deadline(&mut self, batch: &[Request], deadline_us: Option<u64>) -> Vec<Response> {
        if batch.is_empty() {
            return Vec::new();
        }
        let start_us = self.clock.now_us();

        // Phase 1: admission (sequential — decisions are deterministic).
        let cap = if self.runtime.queue_capacity == 0 {
            batch.len()
        } else {
            self.runtime.queue_capacity
        };
        let mut responses: Vec<Option<Response>> = (0..batch.len()).map(|_| None).collect();
        let mut jobs: Vec<Job> = Vec::with_capacity(batch.len().min(cap));
        let mut est_queue_us = 0.0_f64;
        for (idx, _) in batch.iter().enumerate() {
            if jobs.len() >= cap {
                responses[idx] = Some(Response::Rejected(RejectCause::Overload));
                self.stats.shed_overload += 1;
                continue;
            }
            let seq = self.seq;
            let stall_us = if self.fault_active {
                self.fault.stall_us(seq)
            } else {
                0
            };
            let est_cost_us = self.cost_ewma_us + stall_us as f64;
            if let Some(d) = deadline_us {
                if est_queue_us + est_cost_us > d as f64 {
                    responses[idx] = Some(Response::Rejected(RejectCause::DeadlineExceeded));
                    self.stats.shed_deadline += 1;
                    continue;
                }
            }
            self.seq += 1;
            self.stats.admitted += 1;
            est_queue_us += est_cost_us;
            jobs.push(Job { idx, seq, stall_us });
        }
        self.last_depth = jobs.len();

        // Phase 2: execute admitted jobs on the worker pool. Fault flags
        // were fixed at admission, so parallel order cannot change them.
        let store = &self.store;
        let index = self.index.as_ref();
        let inductive = self.inductive.as_ref();
        let runtime = &self.runtime;
        let clock = &self.clock;
        let fault = if self.fault_active {
            Some(&self.fault)
        } else {
            None
        };
        let executed: Vec<(usize, Response, JobOutcome)> = jobs
            .par_iter()
            .map(|job| {
                if job.stall_us > 0 {
                    clock.advance_us(job.stall_us);
                }
                let (resp, outcome) = handle(
                    store,
                    index,
                    inductive,
                    runtime,
                    clock,
                    fault,
                    job,
                    &batch[job.idx],
                );
                (job.idx, resp, outcome)
            })
            .collect();

        // Phase 3: merge and account.
        let admitted = executed.len();
        for (idx, resp, outcome) in executed {
            self.stats.retries += outcome.retries;
            self.stats.degraded += u64::from(outcome.degraded);
            self.stats.failed += u64::from(outcome.failed);
            responses[idx] = Some(resp);
        }
        let elapsed_us = self.clock.now_us().saturating_sub(start_us);
        self.histograms
            .entry(batch.len())
            .or_default()
            .record(Duration::from_micros(elapsed_us));
        if admitted > 0 {
            let per_query = elapsed_us as f64 / admitted as f64;
            self.cost_ewma_us = if self.cost_ewma_us == 0.0 {
                per_query
            } else {
                (1.0 - COST_EWMA_ALPHA) * self.cost_ewma_us + COST_EWMA_ALPHA * per_query
            };
        }
        responses
            .into_iter()
            .map(|r| r.expect("every slot admitted or shed"))
            .collect()
    }

    /// `(batch size, latency summary)` per observed batch size, ascending.
    pub fn latency_report(&self) -> Vec<(usize, LatencySummary)> {
        self.histograms
            .iter()
            .map(|(&size, h)| (size, h.summary()))
            .collect()
    }
}

/// Exact top-k when no index is attached; ANN probe + exact re-rank when
/// one is. Works for stored rows and freshly-embedded inductive vectors
/// alike — the index only needs the *store* side to match.
fn top_k_route(
    store: &EmbeddingStore,
    index: Option<&IvfIndex>,
    query: &[f32],
    k: usize,
) -> Result<Vec<Hit>, ServeError> {
    match index {
        Some(ix) => ix.search(store, query, k),
        None => store.top_k(query, k),
    }
}

/// Executes one admitted request. The inductive path retries with doubling
/// backoff and degrades to the stored row on persistent failure.
#[allow(clippy::too_many_arguments)]
fn handle(
    store: &EmbeddingStore,
    index: Option<&IvfIndex>,
    inductive: Option<&InductiveEngine>,
    runtime: &RuntimeConfig,
    clock: &Clock,
    fault: Option<&ServeFaultPlan>,
    job: &Job,
    r: &Request,
) -> (Response, JobOutcome) {
    let mut outcome = JobOutcome::default();
    let result = match r {
        Request::Embedding { node } => store
            .embedding(*node)
            .map(|e| Response::Embedding(e.to_vec())),
        Request::TopK { node, k } => store
            .embedding(*node)
            .map(|e| e.to_vec())
            .and_then(|e| top_k_route(store, index, &e, *k))
            .map(|hits| Response::Hits {
                hits,
                degraded: false,
            }),
        Request::TopKInductive { node, k } => inductive_top_k(
            store,
            index,
            inductive,
            runtime,
            clock,
            fault,
            job,
            *node,
            *k,
            &mut outcome,
        ),
        Request::Classify { node } => store
            .embedding(*node)
            .map(|e| e.to_vec())
            .and_then(|e| store.classify(&e))
            .map(Response::Class),
    };
    match result {
        Ok(resp) => (resp, outcome),
        Err(e) => {
            outcome.failed = true;
            (Response::from_error(&e), outcome)
        }
    }
}

/// The resilient inductive path: retry with doubling backoff, then degrade
/// to the stored row (`degraded: true`) if the store still covers the node.
#[allow(clippy::too_many_arguments)]
fn inductive_top_k(
    store: &EmbeddingStore,
    index: Option<&IvfIndex>,
    inductive: Option<&InductiveEngine>,
    runtime: &RuntimeConfig,
    clock: &Clock,
    fault: Option<&ServeFaultPlan>,
    job: &Job,
    node: usize,
    k: usize,
    outcome: &mut JobOutcome,
) -> Result<Response, ServeError> {
    let engine = match inductive {
        Some(e) => e,
        None => return Err(ServeError::NoInductiveEngine),
    };
    let mut attempt = 0usize;
    let embedded = loop {
        let injected = fault.is_some_and(|p| p.inductive_fails(job.seq, attempt));
        let result = if injected {
            Err(ServeError::FaultInjected { seq: job.seq })
        } else {
            engine.embed_node(node)
        };
        match result {
            Ok(e) => break Ok(e),
            // Bad input cannot be retried into a good answer.
            Err(e @ ServeError::NodeOutOfRange { .. }) => break Err(e),
            Err(e) => {
                if attempt >= runtime.inductive_retries {
                    break Err(e);
                }
                clock.advance_us(runtime.retry_backoff_us << attempt.min(16));
                attempt += 1;
                outcome.retries += 1;
            }
        }
    };
    match embedded {
        Ok(e) => top_k_route(store, index, &e, k).map(|hits| Response::Hits {
            hits,
            degraded: false,
        }),
        Err(err) => {
            if runtime.degrade_to_stored {
                if let Ok(row) = store.embedding(node).map(|e| e.to_vec()) {
                    let hits = top_k_route(store, index, &row, k)?;
                    outcome.degraded = true;
                    return Ok(Response::Hits {
                        hits,
                        degraded: true,
                    });
                }
            }
            Err(err)
        }
    }
}

/// Knobs for [`run_latency_bench`].
#[derive(Clone, Debug)]
pub struct BenchOptions {
    /// Batch sizes to measure (one histogram each).
    pub batch_sizes: Vec<usize>,
    /// Batches per batch size.
    pub rounds: usize,
    /// `k` of the top-k queries.
    pub k: usize,
    /// Every `inductive_every`-th query goes through the inductive path
    /// (0 disables inductive queries).
    pub inductive_every: usize,
}

impl Default for BenchOptions {
    fn default() -> Self {
        Self {
            batch_sizes: vec![1, 32, 256],
            rounds: 50,
            k: 10,
            inductive_every: 4,
        }
    }
}

/// Latency/throughput measurements for one batch size.
#[derive(Clone, Debug, Serialize)]
pub struct BatchBenchReport {
    /// Requests per batch.
    pub batch_size: usize,
    /// Batches served.
    pub rounds: usize,
    /// Total requests served.
    pub queries: usize,
    /// Per-batch latency percentiles and moments (µs).
    pub latency: LatencySummary,
    /// Requests per second across the whole run.
    pub throughput_qps: f64,
}

/// Drives deterministic top-k/inductive query batches through the server
/// and reports per-batch-size latency percentiles and throughput.
pub fn run_latency_bench(
    server: &mut BatchServer,
    opts: &BenchOptions,
    rng: &mut SeedRng,
) -> Vec<BatchBenchReport> {
    let n = server.store().len().max(1);
    let mut reports = Vec::with_capacity(opts.batch_sizes.len());
    for &batch_size in &opts.batch_sizes {
        let mut hist = LatencyHistogram::new();
        let mut queries = 0usize;
        let run_start = Instant::now();
        for _ in 0..opts.rounds {
            let batch: Vec<Request> = (0..batch_size)
                .map(|i| {
                    let node = rng.below(n);
                    if opts.inductive_every > 0 && i % opts.inductive_every == 0 {
                        Request::TopKInductive { node, k: opts.k }
                    } else {
                        Request::TopK { node, k: opts.k }
                    }
                })
                .collect();
            let t0 = Instant::now();
            let responses = server.serve(&batch);
            hist.record(t0.elapsed());
            queries += responses.len();
        }
        let total_secs = run_start.elapsed().as_secs_f64().max(1e-9);
        reports.push(BatchBenchReport {
            batch_size,
            rounds: opts.rounds,
            queries,
            latency: hist.summary(),
            throughput_qps: queries as f64 / total_secs,
        });
    }
    reports
}

/// Knobs for [`run_overload_bench`]: a load generator that deliberately
/// offers more work than the admission queue accepts.
#[derive(Clone, Debug)]
pub struct OverloadOptions {
    /// Bursts to offer.
    pub rounds: usize,
    /// Requests per burst at full throttle (set above the server's queue
    /// capacity to saturate it).
    pub burst: usize,
    /// `k` of the top-k queries.
    pub k: usize,
    /// Every `inductive_every`-th query goes inductive (0 disables).
    pub inductive_every: usize,
    /// Per-request deadline budget for the offered load, µs.
    pub deadline_us: Option<u64>,
}

impl Default for OverloadOptions {
    fn default() -> Self {
        Self {
            rounds: 40,
            burst: 64,
            k: 10,
            inductive_every: 4,
            deadline_us: None,
        }
    }
}

/// What the saturated server did under the offered load.
#[derive(Clone, Debug, Serialize)]
pub struct OverloadReport {
    /// Requests offered across all bursts.
    pub offered: u64,
    /// Requests admitted and executed.
    pub admitted: u64,
    /// Requests shed: admission queue full.
    pub shed_overload: u64,
    /// Requests shed: deadline unmeetable at admission.
    pub shed_deadline: u64,
    /// Queries answered via the degraded fallback.
    pub degraded: u64,
    /// Inductive retry attempts.
    pub retries: u64,
    /// Queries that returned `Failed`.
    pub failed: u64,
    /// Bursts during which the backpressure signal was up.
    pub backpressure_rounds: usize,
    /// Bursts the generator throttled (halved) in response.
    pub throttled_rounds: usize,
    /// Per-burst latency under saturation (µs) — p99 is the headline.
    pub latency: LatencySummary,
}

/// Floods `server` with bursts of top-k/inductive queries, throttling to
/// half load whenever the backpressure signal is up, and reports shed
/// counts and saturated-tail latency. Reads the server's own [`Clock`], so
/// a virtual-clock server yields a fully deterministic report.
pub fn run_overload_bench(
    server: &mut BatchServer,
    opts: &OverloadOptions,
    rng: &mut SeedRng,
) -> OverloadReport {
    let n = server.store().len().max(1);
    let before = server.stats();
    let mut hist = LatencyHistogram::new();
    let mut offered = 0u64;
    let mut backpressure_rounds = 0usize;
    let mut throttled_rounds = 0usize;
    for _ in 0..opts.rounds {
        let mut size = opts.burst.max(1);
        if server.backpressure() {
            backpressure_rounds += 1;
            size = (size / 2).max(1);
            throttled_rounds += 1;
        }
        let batch: Vec<Request> = (0..size)
            .map(|i| {
                let node = rng.below(n);
                if opts.inductive_every > 0 && i % opts.inductive_every == 0 {
                    Request::TopKInductive { node, k: opts.k }
                } else {
                    Request::TopK { node, k: opts.k }
                }
            })
            .collect();
        offered += batch.len() as u64;
        let t0 = server.clock().now_us();
        let _ = server.serve_deadline(&batch, opts.deadline_us);
        let elapsed = server.clock().now_us().saturating_sub(t0);
        hist.record(Duration::from_micros(elapsed));
    }
    let after = server.stats();
    OverloadReport {
        offered,
        admitted: after.admitted - before.admitted,
        shed_overload: after.shed_overload - before.shed_overload,
        shed_deadline: after.shed_deadline - before.shed_deadline,
        degraded: after.degraded - before.degraded,
        retries: after.retries - before.retries,
        failed: after.failed - before.failed,
        backpressure_rounds,
        throttled_rounds,
        latency: hist.summary(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn server() -> BatchServer {
        let mut m = Matrix::zeros(16, 4);
        for (i, v) in m.as_mut_slice().iter_mut().enumerate() {
            *v = ((i * 37 + 11) % 23) as f32 / 23.0 - 0.5;
        }
        BatchServer::new(EmbeddingStore::new(m))
    }

    #[test]
    fn serves_mixed_batch_with_per_query_failures() {
        let mut s = server();
        let batch = vec![
            Request::TopK { node: 0, k: 3 },
            Request::Embedding { node: 5 },
            Request::TopK { node: 999, k: 3 }, // out of range
            Request::Classify { node: 1 },     // no probe fitted
            Request::TopKInductive { node: 0, k: 3 }, // no inductive engine
        ];
        let responses = s.serve(&batch);
        assert_eq!(responses.len(), 5);
        assert!(responses[0].is_ok());
        assert!(matches!(&responses[0], Response::Hits { hits, .. } if hits.len() == 3));
        assert!(responses[1].is_ok());
        assert!(matches!(
            &responses[2],
            Response::Failed {
                kind: ErrorKind::NodeOutOfRange,
                ..
            }
        ));
        assert!(matches!(
            &responses[3],
            Response::Failed {
                kind: ErrorKind::NoProbe,
                ..
            }
        ));
        assert!(matches!(
            &responses[4],
            Response::Failed {
                kind: ErrorKind::NoInductiveEngine,
                ..
            }
        ));
        assert_eq!(s.stats().failed, 3);
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let mut s = server();
        assert!(s.serve(&[]).is_empty());
        assert!(s.latency_report().is_empty());
        assert_eq!(s.stats(), ShedStats::default());
    }

    #[test]
    fn k_zero_and_k_beyond_store_are_answered() {
        let mut s = server();
        let n = s.store().len();
        let responses = s.serve(&[
            Request::TopK { node: 0, k: 0 },
            Request::TopK { node: 0, k: n + 50 },
        ]);
        assert!(matches!(&responses[0], Response::Hits { hits, .. } if hits.is_empty()));
        assert!(matches!(&responses[1], Response::Hits { hits, .. } if hits.len() == n));
    }

    #[test]
    fn overload_sheds_typed_rejections_beyond_queue_capacity() {
        let mut s = server().with_runtime(RuntimeConfig {
            queue_capacity: 2,
            high_water: 2,
            ..RuntimeConfig::default()
        });
        let batch = vec![Request::Embedding { node: 0 }; 5];
        let responses = s.serve(&batch);
        let ok = responses.iter().filter(|r| r.is_ok()).count();
        let shed = responses
            .iter()
            .filter(|r| matches!(r, Response::Rejected(RejectCause::Overload)))
            .count();
        assert_eq!((ok, shed), (2, 3));
        // First-come-first-admitted: the head of the batch is served.
        assert!(responses[0].is_ok() && responses[1].is_ok());
        let stats = s.stats();
        assert_eq!(stats.admitted, 2);
        assert_eq!(stats.shed_overload, 3);
        assert!(s.backpressure(), "full queue must raise backpressure");
        // A small batch afterwards drops the signal.
        s.serve(&[Request::Embedding { node: 0 }]);
        assert!(!s.backpressure());
    }

    #[test]
    fn deadline_pressure_sheds_deterministically_on_virtual_clock() {
        let mut s = server()
            .with_clock(Clock::virtual_at(0))
            .with_fault_plan(ServeFaultPlan {
                slow_every: 1, // every query stalls
                slow_us: 1_000,
                ..ServeFaultPlan::default()
            });
        // Prime the cost model: one undeadlined batch of stalled queries
        // teaches the EWMA that a query costs ~1000 µs.
        s.serve(&[
            Request::Embedding { node: 0 },
            Request::Embedding { node: 1 },
        ]);
        assert!(s.cost_ewma_us >= 999.0, "ewma {}", s.cost_ewma_us);
        // A deadline below one query's cost: everything is shed up front.
        let responses = s.serve_deadline(&vec![Request::Embedding { node: 0 }; 4], Some(500));
        assert!(responses
            .iter()
            .all(|r| matches!(r, Response::Rejected(RejectCause::DeadlineExceeded))));
        assert_eq!(s.stats().shed_deadline, 4);
        // A roomy deadline admits the head of the queue and sheds the tail
        // once the estimated queue wait crosses the budget.
        let responses = s.serve_deadline(&vec![Request::Embedding { node: 0 }; 4], Some(2_500));
        let ok = responses.iter().filter(|r| r.is_ok()).count();
        assert!(ok >= 1, "head of queue should fit the budget");
        assert!(
            responses
                .iter()
                .skip(ok)
                .all(|r| matches!(r, Response::Rejected(RejectCause::DeadlineExceeded))),
            "tail should be shed: {responses:?}"
        );
    }

    #[test]
    fn latency_report_tracks_batch_sizes() {
        let mut s = server();
        for _ in 0..3 {
            s.serve(&[Request::Embedding { node: 0 }]);
        }
        s.serve(&vec![Request::Embedding { node: 1 }; 4]);
        let report = s.latency_report();
        assert_eq!(report.len(), 2);
        assert_eq!(report[0].0, 1);
        assert_eq!(report[0].1.count, 3);
        assert_eq!(report[1].0, 4);
        assert_eq!(report[1].1.count, 1);
    }

    #[test]
    fn bench_runner_reports_every_batch_size() {
        let mut s = server();
        let opts = BenchOptions {
            batch_sizes: vec![1, 8],
            rounds: 5,
            k: 3,
            inductive_every: 0, // no engine attached
        };
        let mut rng = SeedRng::new(3);
        let reports = run_latency_bench(&mut s, &opts, &mut rng);
        assert_eq!(reports.len(), 2);
        for r in &reports {
            assert_eq!(r.queries, r.batch_size * r.rounds);
            assert_eq!(r.latency.count, r.rounds);
            assert!(r.throughput_qps > 0.0);
            assert!(r.latency.p99_us >= r.latency.p50_us);
        }
    }

    #[test]
    fn attached_index_serves_top_k_and_rejects_foreign_stores() {
        use crate::index::{IvfConfig, IvfIndex};
        let mut m = Matrix::zeros(64, 4);
        for (i, v) in m.as_mut_slice().iter_mut().enumerate() {
            *v = ((i * 41 + 3) % 17) as f32 / 17.0 - 0.5;
        }
        let store = EmbeddingStore::new(m);
        let cfg = IvfConfig {
            nlist: 8,
            nprobe: 8, // full probe → answers must equal brute force
            train_sample: 64,
            kmeans_iters: 3,
            seed: 1,
        };
        let index = IvfIndex::build(&store, cfg).unwrap();

        // An index built over a *different* store is refused at attach.
        let other = EmbeddingStore::new(Matrix::zeros(64, 4));
        let err = match BatchServer::new(other).with_index(index.clone()) {
            Err(e) => e,
            Ok(_) => panic!("foreign store must be rejected at attach"),
        };
        assert!(matches!(err, ServeError::IndexMismatch { .. }), "{err}");

        let mut brute = BatchServer::new(EmbeddingStore::new(Matrix::from_rows(
            &(0..64)
                .map(|r| store.embedding(r).unwrap())
                .collect::<Vec<_>>(),
        )));
        let mut indexed = BatchServer::new(EmbeddingStore::new(Matrix::from_rows(
            &(0..64)
                .map(|r| store.embedding(r).unwrap())
                .collect::<Vec<_>>(),
        )))
        .with_index(index)
        .unwrap();
        assert!(indexed.index().is_some());
        let batch = vec![
            Request::TopK { node: 0, k: 5 },
            Request::TopK { node: 31, k: 5 },
            Request::TopK { node: 63, k: 5 },
        ];
        let a = brute.serve(&batch);
        let b = indexed.serve(&batch);
        for (x, y) in a.iter().zip(&b) {
            match (x, y) {
                (Response::Hits { hits: hx, .. }, Response::Hits { hits: hy, .. }) => {
                    assert_eq!(hx, hy, "full-probe ANN must equal brute force");
                }
                other => panic!("unexpected responses {other:?}"),
            }
        }
        // nprobe can be re-tuned in place.
        indexed.set_nprobe(2);
        assert_eq!(indexed.index().unwrap().nprobe(), 2);
    }

    #[test]
    fn overload_bench_saturates_and_throttles() {
        let mut s = server()
            .with_clock(Clock::virtual_at(0))
            .with_runtime(RuntimeConfig {
                queue_capacity: 4,
                high_water: 4,
                ..RuntimeConfig::default()
            })
            .with_fault_plan(ServeFaultPlan {
                slow_every: 2,
                slow_us: 200,
                ..ServeFaultPlan::default()
            });
        let opts = OverloadOptions {
            rounds: 10,
            burst: 16,
            k: 3,
            inductive_every: 0,
            deadline_us: None,
        };
        let mut rng = SeedRng::new(9);
        let report = run_overload_bench(&mut s, &opts, &mut rng);
        assert!(report.shed_overload > 0, "{report:?}");
        assert_eq!(report.offered, report.admitted + report.shed_overload);
        assert!(report.throttled_rounds > 0, "backpressure must throttle");
        assert!(report.latency.p99_us > 0.0);
        // Virtual clock + seeded rng → byte-identical re-run.
        let mut s2 = server()
            .with_clock(Clock::virtual_at(0))
            .with_runtime(RuntimeConfig {
                queue_capacity: 4,
                high_water: 4,
                ..RuntimeConfig::default()
            })
            .with_fault_plan(ServeFaultPlan {
                slow_every: 2,
                slow_us: 200,
                ..ServeFaultPlan::default()
            });
        let report2 = run_overload_bench(&mut s2, &opts, &mut SeedRng::new(9));
        assert_eq!(
            serde_json::to_string(&report).unwrap(),
            serde_json::to_string(&report2).unwrap(),
            "overload bench must be deterministic on a virtual clock"
        );
    }
}
