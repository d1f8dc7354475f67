//! Overload-tolerance plumbing for the batch server: clocks, admission
//! control, shed accounting, and deterministic serve-side fault injection.
//!
//! The design splits *time* from *policy* so every resilience behaviour is
//! testable without flakiness:
//!
//! * [`Clock`] — microsecond time the server schedules against. Production
//!   uses [`Clock::wall`]; tests use [`Clock::virtual_at`], where injected
//!   slowness and retry backoff *advance* the clock instead of sleeping, so
//!   deadline expiry is exact and deterministic.
//! * [`RuntimeConfig`] — bounded admission queue, per-request deadline
//!   budget, high-water backpressure threshold, and the retry/degradation
//!   policy for the inductive path.
//! * [`ServeFaultPlan`] — a seed-scoped, query-sequence-keyed description of
//!   serve-side faults (slow queries, inductive-engine failures). The same
//!   plan always injects the same faults into the same queries.
//! * [`ShedStats`] — lifetime counters for every shed/degrade/retry cause.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Microsecond clock behind the serving runtime.
///
/// The wall variant measures real time (and really sleeps on
/// [`Clock::advance_us`], making injected slowness and retry backoff
/// honest); the virtual variant only moves when advanced, which makes
/// deadline and backoff behaviour bit-reproducible in tests and benches.
#[derive(Clone, Debug)]
pub enum Clock {
    /// Real time, measured from the instant the clock was created.
    Wall(Instant),
    /// Manually-advanced time (shared, so parallel workers see one clock).
    Virtual(Arc<AtomicU64>),
}

impl Clock {
    /// A wall clock starting at zero now.
    pub fn wall() -> Self {
        Clock::Wall(Instant::now())
    }

    /// A virtual clock reading `start_us`.
    pub fn virtual_at(start_us: u64) -> Self {
        Clock::Virtual(Arc::new(AtomicU64::new(start_us)))
    }

    /// Current reading in microseconds.
    pub fn now_us(&self) -> u64 {
        match self {
            Clock::Wall(epoch) => epoch.elapsed().as_micros().min(u64::MAX as u128) as u64,
            Clock::Virtual(t) => t.load(Ordering::SeqCst),
        }
    }

    /// Lets `us` microseconds pass: real time on the wall clock, an atomic
    /// addition on the virtual one.
    ///
    /// Wall waits are precise, not just lower-bounded: `thread::sleep`
    /// routinely overshoots sub-millisecond requests by whole milliseconds
    /// (timer slack + scheduler wakeup), which at micro-batching
    /// granularity would charge the *host's* jitter to every request's
    /// latency. So the final stretch of every wait is a spin on the clock;
    /// only the part beyond `SPIN_US` is delegated to the OS.
    pub fn advance_us(&self, us: u64) {
        /// Wall waits at or under this spin instead of sleeping.
        const SPIN_US: u64 = 1_000;
        match self {
            Clock::Wall(_) => {
                if us == 0 {
                    return;
                }
                let target = self.now_us() + us;
                if us > SPIN_US {
                    std::thread::sleep(Duration::from_micros(us - SPIN_US));
                }
                while self.now_us() < target {
                    std::hint::spin_loop();
                }
            }
            Clock::Virtual(t) => {
                t.fetch_add(us, Ordering::SeqCst);
            }
        }
    }
}

/// Why a request was shed instead of answered.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum RejectCause {
    /// The bounded admission queue was full.
    Overload,
    /// The request could not finish inside its deadline budget, so the
    /// scheduler refused to start it (shedding beats wasted work).
    DeadlineExceeded,
}

impl fmt::Display for RejectCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RejectCause::Overload => write!(f, "overload (admission queue full)"),
            RejectCause::DeadlineExceeded => write!(f, "deadline exceeded before start"),
        }
    }
}

/// Structured failure category of a [`crate::Response::Failed`] — stable
/// across message-text changes, so callers can branch without parsing.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ErrorKind {
    /// Node id outside the stored graph.
    NodeOutOfRange,
    /// Query/embedding dimensionality mismatch.
    DimensionMismatch,
    /// Classification without a fitted probe.
    NoProbe,
    /// Inductive query on a server without an inductive engine.
    NoInductiveEngine,
    /// Artifact I/O or decode failure.
    Artifact,
    /// A deterministic fault injected by the active [`ServeFaultPlan`].
    FaultInjected,
    /// An ANN index that does not match the store it was used against.
    IndexMismatch,
}

impl fmt::Display for ErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ErrorKind::NodeOutOfRange => "node-out-of-range",
            ErrorKind::DimensionMismatch => "dimension-mismatch",
            ErrorKind::NoProbe => "no-probe",
            ErrorKind::NoInductiveEngine => "no-inductive-engine",
            ErrorKind::Artifact => "artifact",
            ErrorKind::FaultInjected => "fault-injected",
            ErrorKind::IndexMismatch => "index-mismatch",
        };
        write!(f, "{s}")
    }
}

/// Admission, deadline and degradation policy for a [`crate::BatchServer`].
///
/// The default is fully permissive — unbounded queue, no deadlines — so a
/// server without explicit configuration behaves exactly like the
/// pre-resilience one.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RuntimeConfig {
    /// Maximum requests admitted from one arriving batch (the bounded
    /// queue); the rest are shed as [`RejectCause::Overload`]. `0` means
    /// unbounded.
    pub queue_capacity: usize,
    /// Default per-request deadline budget in microseconds, measured from
    /// batch arrival. `None` disables deadline scheduling.
    pub default_deadline_us: Option<u64>,
    /// Admitted-queue depth at or above which [`crate::BatchServer::backpressure`]
    /// reports true. `0` disables the signal.
    pub high_water: usize,
    /// Retries after the first inductive-engine failure before the query
    /// degrades (or fails).
    pub inductive_retries: usize,
    /// Backoff before the first retry, microseconds; doubles per retry
    /// (mirrors the trainer's `Backoff` guard policy). Advanced on the
    /// server's [`Clock`].
    pub retry_backoff_us: u64,
    /// After persistent inductive failure, answer from the *stored*
    /// embedding row (marked `degraded: true`) instead of failing.
    pub degrade_to_stored: bool,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        Self {
            queue_capacity: 0,
            default_deadline_us: None,
            high_water: 0,
            inductive_retries: 2,
            retry_backoff_us: 100,
            degrade_to_stored: true,
        }
    }
}

/// Deterministic serve-side fault plan, keyed on the server's lifetime
/// query sequence number (each admitted query gets the next number).
///
/// `only_seed` scopes the plan to artifacts of one training seed: a plan
/// carried around in shared bench configs cannot accidentally perturb
/// servers for other runs. All injection sites use modular arithmetic on
/// the sequence number, so a plan replays identically.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServeFaultPlan {
    /// When set, the plan only fires on servers whose artifact seed equals
    /// this value; on any other server it is inert.
    #[serde(default)]
    pub only_seed: Option<u64>,
    /// Every `slow_every`-th admitted query (seq % n == 0) stalls for
    /// [`Self::slow_us`] before executing. `0` disables.
    #[serde(default)]
    pub slow_every: usize,
    /// Synthetic stall added to a slow query, microseconds.
    #[serde(default)]
    pub slow_us: u64,
    /// Every `inductive_fail_every`-th admitted query (seq % n == 0), if it
    /// takes the inductive path, has its engine call fail. `0` disables.
    #[serde(default)]
    pub inductive_fail_every: usize,
    /// How many consecutive attempts of an injected inductive failure fail:
    /// `0` means *every* attempt (a persistent fault that exhausts retries
    /// and exercises degradation); `n > 0` means the first `n` attempts
    /// fail and attempt `n + 1` succeeds (exercises retry).
    #[serde(default)]
    pub inductive_fail_attempts: usize,
}

impl ServeFaultPlan {
    /// True when the plan applies to a server holding `artifact_seed`.
    pub fn is_active_for(&self, artifact_seed: Option<u64>) -> bool {
        match self.only_seed {
            None => true,
            Some(s) => artifact_seed == Some(s),
        }
    }

    /// True when nothing is injected.
    pub fn is_empty(&self) -> bool {
        self.slow_every == 0 && self.inductive_fail_every == 0
    }

    /// Synthetic stall for query `seq`, microseconds (0 = none).
    pub fn stall_us(&self, seq: u64) -> u64 {
        if self.slow_every > 0 && seq.is_multiple_of(self.slow_every as u64) {
            self.slow_us
        } else {
            0
        }
    }

    /// Whether attempt `attempt` (0-based) of query `seq`'s inductive call
    /// should fail.
    pub fn inductive_fails(&self, seq: u64, attempt: usize) -> bool {
        if self.inductive_fail_every == 0 || !seq.is_multiple_of(self.inductive_fail_every as u64) {
            return false;
        }
        self.inductive_fail_attempts == 0 || attempt < self.inductive_fail_attempts
    }
}

/// Lifetime overload/degradation counters of one server.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShedStats {
    /// Queries admitted and executed.
    pub admitted: u64,
    /// Queries shed because the admission queue was full.
    pub shed_overload: u64,
    /// Queries shed because they could not meet their deadline.
    pub shed_deadline: u64,
    /// Queries answered from the degraded (stored-embedding) path.
    pub degraded: u64,
    /// Inductive retry attempts performed.
    pub retries: u64,
    /// Queries that returned [`crate::Response::Failed`].
    pub failed: u64,
}

impl ShedStats {
    /// Total queries offered (admitted + shed).
    pub fn offered(&self) -> u64 {
        self.admitted + self.shed_overload + self.shed_deadline
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virtual_clock_only_moves_when_advanced() {
        let c = Clock::virtual_at(100);
        assert_eq!(c.now_us(), 100);
        c.advance_us(50);
        assert_eq!(c.now_us(), 150);
        let c2 = c.clone();
        c2.advance_us(7); // clones share the underlying clock
        assert_eq!(c.now_us(), 157);
    }

    #[test]
    fn wall_clock_moves_on_its_own() {
        let c = Clock::wall();
        let a = c.now_us();
        c.advance_us(2_000);
        assert!(c.now_us() >= a + 2_000);
    }

    #[test]
    fn fault_plan_keys_on_sequence_number() {
        let plan = ServeFaultPlan {
            slow_every: 3,
            slow_us: 500,
            inductive_fail_every: 2,
            inductive_fail_attempts: 1,
            ..ServeFaultPlan::default()
        };
        assert_eq!(plan.stall_us(0), 500);
        assert_eq!(plan.stall_us(1), 0);
        assert_eq!(plan.stall_us(3), 500);
        assert!(plan.inductive_fails(2, 0));
        assert!(!plan.inductive_fails(2, 1)); // attempt 1 succeeds
        assert!(!plan.inductive_fails(3, 0)); // seq not selected
        let persistent = ServeFaultPlan {
            inductive_fail_every: 1,
            inductive_fail_attempts: 0,
            ..ServeFaultPlan::default()
        };
        for attempt in 0..10 {
            assert!(persistent.inductive_fails(4, attempt));
        }
    }

    #[test]
    fn fault_plan_seed_scoping() {
        let plan = ServeFaultPlan {
            only_seed: Some(42),
            slow_every: 1,
            slow_us: 10,
            ..ServeFaultPlan::default()
        };
        assert!(plan.is_active_for(Some(42)));
        assert!(!plan.is_active_for(Some(7)));
        assert!(!plan.is_active_for(None));
        let unscoped = ServeFaultPlan {
            slow_every: 1,
            ..ServeFaultPlan::default()
        };
        assert!(unscoped.is_active_for(None));
        assert!(unscoped.is_active_for(Some(7)));
    }

    #[test]
    fn fault_plan_serde_round_trips() {
        let plan = ServeFaultPlan {
            only_seed: Some(3),
            slow_every: 4,
            slow_us: 250,
            inductive_fail_every: 5,
            inductive_fail_attempts: 2,
        };
        let json = serde_json::to_string(&plan).unwrap();
        let back: ServeFaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(plan, back);
        // Old / sparse configs deserialise to an inert plan.
        let sparse: ServeFaultPlan = serde_json::from_str("{}").unwrap();
        assert!(sparse.is_empty());
    }

    #[test]
    fn shed_stats_offered_totals() {
        let s = ShedStats {
            admitted: 10,
            shed_overload: 3,
            shed_deadline: 2,
            ..ShedStats::default()
        };
        assert_eq!(s.offered(), 15);
    }
}
