//! Admission control for the concurrent read path.
//!
//! The paper's serving story — answer queries *while* the column
//! reorganizes itself — says nothing about what happens when queries
//! arrive faster than they complete. Without a bound, overload turns into
//! unbounded queueing and the tail latency of open-loop arrivals inflates
//! without limit. An [`AdmissionGate`] bounds the damage at the door: a
//! fixed number of in-flight permits, a bounded wait queue with a
//! per-query deadline, and a typed [`QueryError`] for everything that
//! does not get served, so callers distinguish "the system said no"
//! (shed) and "the system said not-in-time" (deadline) from an actual
//! result.
//!
//! One over-capacity policy: an arrival that finds every permit taken
//! waits in the bounded queue until a permit frees (admitted) or its
//! deadline passes (deadline exceeded), and is shed on the spot when the
//! queue itself is full. A queue bound of 0 is the shed-immediately
//! contract: every admitted query runs at once.
//!
//! The gate is strategy-agnostic: it hands out permits, it does not run
//! queries. [`crate::ConcurrentColumn::select_count_gated`] ties a
//! permit's lifetime to one query.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Why a query was not served normally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryError {
    /// Load shedding: the gate refused the query outright (permits and
    /// the wait queue were full).
    Shed,
    /// The query waited for a permit past its deadline.
    DeadlineExceeded,
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::Shed => write!(f, "query shed by admission control"),
            QueryError::DeadlineExceeded => write!(f, "query deadline exceeded while queued"),
        }
    }
}

impl std::error::Error for QueryError {}

/// Gate sizing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Queries allowed to execute concurrently.
    pub max_in_flight: usize,
    /// Arrivals allowed to wait for a permit; 0 sheds every arrival that
    /// finds the permits taken.
    pub max_queue: usize,
    /// How long a queued arrival may wait before `DeadlineExceeded`.
    pub deadline: Duration,
}

impl Default for AdmissionConfig {
    /// In-flight matched to the machine's parallelism, a queue twice as
    /// deep, and a 50 ms deadline — a serving default, not a benchmark
    /// tuning.
    fn default() -> Self {
        let cores = std::thread::available_parallelism().map_or(2, |n| n.get());
        AdmissionConfig {
            max_in_flight: cores,
            max_queue: cores * 2,
            deadline: Duration::from_millis(50),
        }
    }
}

impl AdmissionConfig {
    /// A config with the given permit count and the defaults elsewhere.
    pub fn with_in_flight(max_in_flight: usize) -> Self {
        AdmissionConfig {
            max_in_flight: max_in_flight.max(1),
            ..AdmissionConfig::default()
        }
    }
}

/// Counter snapshot of everything the gate decided so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionStats {
    /// Queries that received a permit (immediately or after queueing).
    pub admitted: u64,
    /// Queries refused outright.
    pub shed: u64,
    /// Queries that timed out waiting for a permit.
    pub deadline_exceeded: u64,
    /// Admitted queries that had to wait in the queue first.
    pub queued_waits: u64,
}

impl AdmissionStats {
    /// Arrivals the gate saw, over every outcome.
    pub(crate) fn arrivals(&self) -> u64 {
        self.admitted + self.shed + self.deadline_exceeded
    }

    /// Fraction of arrivals refused (shed or deadline-exceeded); 0 when
    /// nothing arrived.
    pub fn shed_rate(&self) -> f64 {
        let refused = self.shed + self.deadline_exceeded;
        let total = self.arrivals();
        if total == 0 {
            0.0
        } else {
            refused as f64 / total as f64
        }
    }
}

#[derive(Debug, Default)]
struct GateState {
    in_flight: usize,
    queued: usize,
}

#[derive(Debug)]
struct GateInner {
    cfg: AdmissionConfig,
    state: Mutex<GateState>,
    freed: Condvar,
    admitted: AtomicU64,
    shed: AtomicU64,
    deadline_exceeded: AtomicU64,
    queued_waits: AtomicU64,
}

/// Lock acquisition that shrugs off poisoning: the gate state is a pair
/// of counters, valid after any panic unwinds through a waiter.
fn lock_clean<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A bounded-concurrency admission gate. Cloning shares the gate.
///
/// ```
/// use soc_core::{AdmissionConfig, AdmissionGate};
///
/// let gate = AdmissionGate::new(AdmissionConfig {
///     max_queue: 0,
///     ..AdmissionConfig::with_in_flight(1)
/// });
/// let permit = gate.admit().expect("first query admitted");
/// assert!(gate.admit().is_err(), "no permit and no queue: shed");
/// drop(permit);
/// assert!(gate.admit().is_ok(), "freed permit re-admits");
/// assert_eq!(gate.stats().shed, 1);
/// ```
#[derive(Debug, Clone)]
pub struct AdmissionGate {
    inner: Arc<GateInner>,
}

impl AdmissionGate {
    /// A gate over `cfg` (permit count is clamped to at least 1).
    pub fn new(cfg: AdmissionConfig) -> Self {
        let cfg = AdmissionConfig {
            max_in_flight: cfg.max_in_flight.max(1),
            ..cfg
        };
        AdmissionGate {
            inner: Arc::new(GateInner {
                cfg,
                state: Mutex::new(GateState::default()),
                freed: Condvar::new(),
                admitted: AtomicU64::new(0),
                shed: AtomicU64::new(0),
                deadline_exceeded: AtomicU64::new(0),
                queued_waits: AtomicU64::new(0),
            }),
        }
    }

    /// Requests a permit for one query.
    ///
    /// Returns the permit, or the typed reason the query must not run.
    /// Blocks at most [`AdmissionConfig::deadline`], and only when every
    /// permit is taken and the queue has room.
    ///
    /// # Errors
    /// `QueryError::Shed` when refused, `QueryError::DeadlineExceeded`
    /// when the queued wait timed out.
    pub fn admit(&self) -> Result<Permit, QueryError> {
        let inner = &self.inner;
        let mut st = lock_clean(&inner.state);
        if st.in_flight < inner.cfg.max_in_flight {
            st.in_flight += 1;
            drop(st);
            inner.admitted.fetch_add(1, Ordering::Relaxed);
            return Ok(Permit {
                inner: Arc::clone(inner),
            });
        }
        if st.queued >= inner.cfg.max_queue {
            drop(st);
            inner.shed.fetch_add(1, Ordering::Relaxed);
            return Err(QueryError::Shed);
        }
        st.queued += 1;
        inner.queued_waits.fetch_add(1, Ordering::Relaxed);
        let deadline = Instant::now() + inner.cfg.deadline;
        loop {
            if st.in_flight < inner.cfg.max_in_flight {
                st.queued -= 1;
                st.in_flight += 1;
                drop(st);
                inner.admitted.fetch_add(1, Ordering::Relaxed);
                return Ok(Permit {
                    inner: Arc::clone(inner),
                });
            }
            let now = Instant::now();
            if now >= deadline {
                st.queued -= 1;
                drop(st);
                inner.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
                return Err(QueryError::DeadlineExceeded);
            }
            st = inner
                .freed
                .wait_timeout(st, deadline - now)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }

    /// Permits currently held.
    #[cfg(test)]
    pub(crate) fn in_flight(&self) -> usize {
        lock_clean(&self.inner.state).in_flight
    }

    /// A snapshot of every decision counter.
    pub fn stats(&self) -> AdmissionStats {
        let inner = &self.inner;
        AdmissionStats {
            admitted: inner.admitted.load(Ordering::Relaxed),
            shed: inner.shed.load(Ordering::Relaxed),
            deadline_exceeded: inner.deadline_exceeded.load(Ordering::Relaxed),
            queued_waits: inner.queued_waits.load(Ordering::Relaxed),
        }
    }
}

/// One admitted query's slot; dropping it frees the permit and wakes one
/// queued waiter, if there is one.
#[derive(Debug)]
pub struct Permit {
    inner: Arc<GateInner>,
}

impl Drop for Permit {
    /// Notifies only when someone is queued: the condvar's wake is a
    /// syscall whether or not anyone waits. No wakeup is lost, because a
    /// waiter counts itself in `queued` and checks `in_flight` under the
    /// same lock it holds until `wait_timeout` releases it.
    fn drop(&mut self) {
        let mut st = lock_clean(&self.inner.state);
        st.in_flight = st.in_flight.saturating_sub(1);
        let waiters = st.queued > 0;
        drop(st);
        if waiters {
            self.inner.freed.notify_one();
        }
    }
}

/// An answer served under an admission permit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Admitted<T> {
    /// The query result.
    pub value: T,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    fn gate(in_flight: usize, queue: usize, ms: u64) -> AdmissionGate {
        AdmissionGate::new(AdmissionConfig {
            max_queue: queue,
            deadline: Duration::from_millis(ms),
            ..AdmissionConfig::with_in_flight(in_flight)
        })
    }

    #[test]
    fn permits_free_on_drop() {
        let g = gate(2, 0, 10);
        let a = g.admit().unwrap();
        let b = g.admit().unwrap();
        assert_eq!(g.in_flight(), 2);
        assert_eq!(g.admit().unwrap_err(), QueryError::Shed);
        drop(a);
        let c = g.admit().unwrap();
        drop(b);
        drop(c);
        assert_eq!(g.in_flight(), 0);
        let s = g.stats();
        assert_eq!((s.admitted, s.shed), (3, 1));
        assert_eq!(s.arrivals(), 4);
    }

    #[test]
    fn queue_then_shed_times_out_with_a_deadline_error() {
        let g = gate(1, 4, 20);
        let _p = g.admit().unwrap();
        let t0 = Instant::now();
        assert_eq!(g.admit().unwrap_err(), QueryError::DeadlineExceeded);
        assert!(t0.elapsed() >= Duration::from_millis(20));
        assert_eq!(g.stats().deadline_exceeded, 1);
    }

    #[test]
    fn full_queue_sheds_immediately() {
        let g = gate(1, 0, 1_000);
        let _p = g.admit().unwrap();
        let t0 = Instant::now();
        assert_eq!(g.admit().unwrap_err(), QueryError::Shed);
        assert!(
            t0.elapsed() < Duration::from_millis(500),
            "a full queue must not wait out the deadline"
        );
    }

    #[test]
    fn queued_waiter_wakes_when_a_permit_frees() {
        let g = gate(1, 4, 5_000);
        let p = g.admit().unwrap();
        let g2 = g.clone();
        let waiter = thread::spawn(move || g2.admit().map(drop));
        // Give the waiter time to enter the queue, then free the permit.
        thread::sleep(Duration::from_millis(30));
        drop(p);
        waiter.join().unwrap().expect("queued waiter admitted");
        let s = g.stats();
        assert_eq!(s.admitted, 2);
        assert_eq!(s.queued_waits, 1);
        assert_eq!(g.in_flight(), 0);
    }

    /// Four threads contend for one permit, 10 000 times each, yielding
    /// while they hold it so the others queue: a permit drop that skipped
    /// a needed wakeup would leave a waiter asleep past the 5 s deadline.
    #[test]
    fn contended_permits_never_strand_a_waiter() {
        const THREADS: usize = 4;
        const ADMITS: usize = 10_000;
        let g = gate(1, THREADS, 5_000);
        let start = std::sync::Barrier::new(THREADS);
        thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    start.wait();
                    for _ in 0..ADMITS {
                        let permit = g.admit().expect("a queued waiter is woken");
                        thread::yield_now();
                        drop(permit);
                    }
                });
            }
        });
        let st = g.stats();
        assert_eq!(st.admitted, (THREADS * ADMITS) as u64);
        assert_eq!((st.shed, st.deadline_exceeded), (0, 0));
        assert!(st.queued_waits > 0, "the permit was contended");
        assert_eq!(g.in_flight(), 0);
    }

    #[test]
    fn shed_rate_counts_refusals_only() {
        let s = AdmissionStats {
            admitted: 6,
            shed: 2,
            deadline_exceeded: 2,
            queued_waits: 3,
        };
        assert_eq!(s.arrivals(), 10);
        assert!((s.shed_rate() - 0.4).abs() < 1e-12);
        assert_eq!(AdmissionStats::default().shed_rate(), 0.0);
    }
}
