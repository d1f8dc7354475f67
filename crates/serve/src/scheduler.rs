//! Dynamic micro-batching in front of [`BatchServer`].
//!
//! A [`BatchServer`] amortises per-batch overhead (admission, histogram,
//! pool dispatch) across a batch, but something has to *form* batches out
//! of an arrival stream. [`MicroBatcher`] coalesces requests under a
//! latency budget: a batch flushes as soon as it reaches
//! [`SchedulerConfig::max_batch`] requests **or** the oldest pending
//! request has waited [`SchedulerConfig::max_wait_us`] — whichever comes
//! first. Under load, batches fill up and throughput wins; when traffic
//! is sparse, the deadline bounds the latency a lone request pays for
//! batching to `max_wait_us`.
//!
//! The batcher never reads time itself: callers pass `now` readings from
//! the server's [`Clock`](crate::Clock), so a virtual clock replays any
//! traffic trace deterministically (the loadgen and scheduler tests rely
//! on this). Flushing drains FIFO through [`BatchServer::serve`], which
//! keeps the PR 6 pipeline — bounded admission, deadline shedding,
//! degradation — governing every coalesced batch unchanged.

use crate::server::{BatchServer, Request, Response};
use serde::Serialize;
use std::collections::VecDeque;

/// Micro-batching policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub struct SchedulerConfig {
    /// Flush as soon as this many requests are pending (min 1).
    pub max_batch: usize,
    /// Flush once the oldest pending request is this old, microseconds.
    /// `0` disables coalescing: every request flushes immediately.
    pub max_wait_us: u64,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        Self {
            max_batch: 64,
            max_wait_us: 500,
        }
    }
}

/// One request waiting for its batch.
#[derive(Clone, Debug)]
struct Pending {
    id: u64,
    arrival_us: u64,
    request: Request,
}

/// A served request: identity, timing and the server's answer.
#[derive(Clone, Debug)]
pub struct Completed {
    /// Submission id (monotonic per batcher).
    pub id: u64,
    /// When the request was submitted, clock microseconds.
    pub arrival_us: u64,
    /// When its batch finished, clock microseconds. Per-request latency is
    /// `completed_us - arrival_us`: queueing wait *plus* service time.
    pub completed_us: u64,
    /// The server's answer.
    pub response: Response,
}

/// Lifetime coalescing counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize)]
pub struct SchedulerStats {
    /// Requests accepted by [`MicroBatcher::submit`].
    pub submitted: u64,
    /// Batches flushed to the server.
    pub batches: u64,
    /// Requests flushed (equals `submitted` once drained).
    pub flushed: u64,
    /// Largest batch flushed so far.
    pub max_batch_seen: usize,
}

impl SchedulerStats {
    /// Mean requests per flushed batch (0.0 before the first flush).
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.flushed as f64 / self.batches as f64
        }
    }
}

/// Deadline-window request coalescer (module docs).
#[derive(Debug)]
pub struct MicroBatcher {
    config: SchedulerConfig,
    queue: VecDeque<Pending>,
    next_id: u64,
    stats: SchedulerStats,
}

impl MicroBatcher {
    /// A batcher with `config` (`max_batch` is clamped to at least 1).
    pub fn new(config: SchedulerConfig) -> Self {
        Self {
            config: SchedulerConfig {
                max_batch: config.max_batch.max(1),
                max_wait_us: config.max_wait_us,
            },
            queue: VecDeque::new(),
            next_id: 0,
            stats: SchedulerStats::default(),
        }
    }

    /// The effective configuration.
    pub fn config(&self) -> SchedulerConfig {
        self.config
    }

    /// Enqueues a request that arrived at `now_us`; returns its id.
    pub fn submit(&mut self, request: Request, now_us: u64) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.stats.submitted += 1;
        self.queue.push_back(Pending {
            id,
            arrival_us: now_us,
            request,
        });
        id
    }

    /// Requests currently waiting.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Lifetime coalescing counters.
    pub fn stats(&self) -> SchedulerStats {
        self.stats
    }

    /// When the oldest pending request's wait budget expires (`None` when
    /// idle). Callers sleep/advance at most until this instant.
    pub fn next_deadline_us(&self) -> Option<u64> {
        self.queue
            .front()
            .map(|p| p.arrival_us.saturating_add(self.config.max_wait_us))
    }

    /// True when a batch should flush at `now_us`: the queue holds a full
    /// `max_batch`, or the oldest request's deadline window has closed.
    pub fn ready(&self, now_us: u64) -> bool {
        if self.queue.len() >= self.config.max_batch {
            return true;
        }
        match self.next_deadline_us() {
            Some(deadline) => now_us >= deadline,
            None => false,
        }
    }

    /// Drains up to `max_batch` requests FIFO through `server.serve` and
    /// stamps each completion with the server clock. Empty when idle.
    pub fn flush(&mut self, server: &mut BatchServer) -> Vec<Completed> {
        let n = self.queue.len().min(self.config.max_batch);
        if n == 0 {
            return Vec::new();
        }
        let drained: Vec<Pending> = self.queue.drain(..n).collect();
        let requests: Vec<Request> = drained.iter().map(|p| p.request.clone()).collect();
        let responses = server.serve(&requests);
        let completed_us = server.clock().now_us();
        self.stats.batches += 1;
        self.stats.flushed += n as u64;
        self.stats.max_batch_seen = self.stats.max_batch_seen.max(n);
        drained
            .into_iter()
            .zip(responses)
            .map(|(p, response)| Completed {
                id: p.id,
                arrival_us: p.arrival_us,
                completed_us,
                response,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::Clock;
    use crate::store::EmbeddingStore;
    use e2gcl_linalg::Matrix;

    fn server() -> BatchServer {
        let mut m = Matrix::zeros(32, 4);
        for (i, v) in m.as_mut_slice().iter_mut().enumerate() {
            *v = ((i * 31 + 7) % 19) as f32 / 19.0 - 0.5;
        }
        BatchServer::new(EmbeddingStore::new(m)).with_clock(Clock::virtual_at(0))
    }

    /// Flushes `b` if its window has closed at the server clock's now.
    fn flush_if_ready(b: &mut MicroBatcher, s: &mut BatchServer) -> Vec<Completed> {
        if b.ready(s.clock().now_us()) {
            b.flush(s)
        } else {
            Vec::new()
        }
    }

    fn cfg(max_batch: usize, max_wait_us: u64) -> SchedulerConfig {
        SchedulerConfig {
            max_batch,
            max_wait_us,
        }
    }

    #[test]
    fn fills_to_max_batch_under_load() {
        let mut s = server();
        let mut b = MicroBatcher::new(cfg(4, 1_000));
        for i in 0..4 {
            b.submit(Request::TopK { node: i, k: 3 }, 0);
        }
        assert!(b.ready(0), "full queue must be ready immediately");
        let done = b.flush(&mut s);
        assert_eq!(done.len(), 4);
        assert!(done.iter().all(|c| c.response.is_ok()));
        assert_eq!(b.pending(), 0);
        assert_eq!(b.stats().max_batch_seen, 4);
    }

    #[test]
    fn lone_request_waits_out_its_window_then_flushes() {
        let mut s = server();
        let mut b = MicroBatcher::new(cfg(64, 500));
        let id = b.submit(Request::TopK { node: 1, k: 3 }, 100);
        assert!(!b.ready(100));
        assert!(!b.ready(599), "window is [arrival, arrival + max_wait]");
        assert_eq!(b.next_deadline_us(), Some(600));
        assert!(b.ready(600));
        s.clock().advance_us(600);
        let done = b.flush(&mut s);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].id, id);
        assert_eq!(done[0].arrival_us, 100);
        assert!(done[0].completed_us >= 600);
    }

    #[test]
    fn oversize_queue_drains_in_fifo_chunks() {
        let mut s = server();
        let mut b = MicroBatcher::new(cfg(3, 100));
        let ids: Vec<u64> = (0..7)
            .map(|i| b.submit(Request::Embedding { node: i }, i as u64))
            .collect();
        let first = b.flush(&mut s);
        assert_eq!(
            first.iter().map(|c| c.id).collect::<Vec<_>>(),
            ids[..3],
            "flush must be FIFO"
        );
        assert_eq!(b.pending(), 4);
        let second = b.flush(&mut s);
        assert_eq!(second.iter().map(|c| c.id).collect::<Vec<_>>(), ids[3..6]);
        let third = b.flush(&mut s);
        assert_eq!(third.len(), 1);
        assert_eq!(b.flush(&mut s).len(), 0, "empty flush is a no-op");
        let st = b.stats();
        assert_eq!((st.submitted, st.batches, st.flushed), (7, 3, 7));
        assert!((st.mean_batch() - 7.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn zero_wait_flushes_each_request_immediately() {
        let mut b = MicroBatcher::new(cfg(64, 0));
        b.submit(Request::Embedding { node: 0 }, 42);
        assert!(b.ready(42), "max_wait_us 0 means no coalescing delay");
    }

    #[test]
    fn zero_max_batch_is_clamped_to_one() {
        let mut s = server();
        let mut b = MicroBatcher::new(cfg(0, 100));
        assert_eq!(b.config().max_batch, 1);
        b.submit(Request::Embedding { node: 0 }, 0);
        assert!(b.ready(0));
        assert_eq!(b.flush(&mut s).len(), 1);
    }

    #[test]
    fn composes_with_admission_queue_shedding() {
        use crate::runtime::RuntimeConfig;
        let mut s = server().with_runtime(RuntimeConfig {
            queue_capacity: 2,
            high_water: 2,
            ..RuntimeConfig::default()
        });
        let mut b = MicroBatcher::new(cfg(5, 100));
        for i in 0..5 {
            b.submit(Request::Embedding { node: i }, 0);
        }
        let done = b.flush(&mut s);
        let ok = done.iter().filter(|c| c.response.is_ok()).count();
        let shed = done
            .iter()
            .filter(|c| matches!(c.response, Response::Rejected(_)))
            .count();
        assert_eq!((ok, shed), (2, 3), "PR 6 admission must govern the batch");
        assert!(s.backpressure());
    }

    #[test]
    fn replay_on_virtual_clock_is_deterministic() {
        let run = || {
            let mut s = server();
            let mut b = MicroBatcher::new(cfg(4, 250));
            let mut trace = Vec::new();
            for i in 0..10usize {
                let now = (i as u64) * 100;
                let clock_now = s.clock().now_us();
                s.clock().advance_us(now.saturating_sub(clock_now));
                b.submit(Request::TopK { node: i % 8, k: 5 }, now);
                for c in flush_if_ready(&mut b, &mut s) {
                    trace.push((c.id, c.arrival_us, c.completed_us));
                }
            }
            while b.pending() > 0 {
                let deadline = b.next_deadline_us().unwrap();
                let now = s.clock().now_us();
                s.clock().advance_us(deadline.saturating_sub(now));
                for c in flush_if_ready(&mut b, &mut s) {
                    trace.push((c.id, c.arrival_us, c.completed_us));
                }
            }
            trace
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same trace + virtual clock → identical completions");
        assert_eq!(a.len(), 10);
    }
}
