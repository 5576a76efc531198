//! Admission batching of Boolean closure requests onto the packed engine.
//!
//! A long-running reachability server produces closure work in dribbles:
//! one delete-fallback recompute here, a tenant's refresh there. Running
//! each through [`crate::PackedEngine`] alone wastes 63 of the 64 lanes
//! of its narrowest word. [`AdmissionBatcher`] is the admission queue in
//! front of the engine: callers [`submit`](AdmissionBatcher::submit)
//! independent closure requests and receive a [`Ticket`]; a
//! [`flush`](AdmissionBatcher::flush) groups everything pending by problem
//! size and drives each group through the packed engine, so up to 256
//! same-size requests share one simulated run on the memoized
//! single-instance plan. Results are claimed by ticket with
//! [`take`](AdmissionBatcher::take).
//!
//! The batcher also proves the "warm server never recompiles" property:
//! each flush records, per size group, whether the plan was already
//! compiled ([`PackedEngine::has_plan`]) — after the first flush of a
//! size, every later flush of that size must be warm.

use crate::engine::EngineError;
use crate::packed::PackedEngine;
use std::collections::{BTreeMap, HashMap};
use std::sync::Mutex;
use systolic_semiring::{Bool, DenseMatrix};

/// Claim check for a submitted closure request.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ticket(u64);

/// Cumulative batcher counters (monotone across flushes).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AdmissionStats {
    /// Requests accepted by `submit`.
    pub submitted: u64,
    /// `flush` calls that ran at least one group.
    pub flushes: u64,
    /// Closure instances executed.
    pub executed: u64,
    /// Simulations the packed engine ran (one per group of up to 256
    /// instances).
    pub lane_runs: u64,
    /// Size groups whose plan was already compiled when flushed.
    pub warm_groups: u64,
    /// Size groups that had to compile their plan (first sight of a size).
    pub cold_groups: u64,
}

/// What one [`AdmissionBatcher::flush`] did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FlushReport {
    /// Instances executed by this flush.
    pub executed: usize,
    /// Distinct problem sizes (one `closure_many` call each).
    pub groups: usize,
    /// Simulations the packed engine ran across all groups, as it
    /// counted them.
    pub lane_runs: usize,
    /// Groups that ran on an already-compiled plan.
    pub warm_groups: usize,
}

struct Inner {
    next: u64,
    queue: Vec<(Ticket, DenseMatrix<Bool>)>,
    done: HashMap<Ticket, DenseMatrix<Bool>>,
    stats: AdmissionStats,
}

/// Packs pending Boolean closure requests into shared [`PackedEngine`]
/// simulations. Thread-safe: submissions and flushes may interleave freely
/// (a flush drains only what was pending when it started).
pub struct AdmissionBatcher {
    engine: PackedEngine,
    capacity: Option<usize>,
    inner: Mutex<Inner>,
}

impl AdmissionBatcher {
    /// Wraps a packed engine (keeping its plan cache — a batcher handed a
    /// pre-warmed engine starts warm). The queue is unbounded; see
    /// [`AdmissionBatcher::with_capacity`] for overload shedding.
    pub fn new(engine: PackedEngine) -> Self {
        Self::with_capacity(engine, None)
    }

    /// Like [`AdmissionBatcher::new`], but bounds the pending queue:
    /// `submit` past `cap` requests fails with [`EngineError::Busy`]
    /// instead of growing without limit — the backpressure signal a
    /// server turns into `ERR BUSY`.
    pub fn with_capacity(engine: PackedEngine, capacity: Option<usize>) -> Self {
        Self {
            engine,
            capacity,
            inner: Mutex::new(Inner {
                next: 0,
                queue: Vec::new(),
                done: HashMap::new(),
                stats: AdmissionStats::default(),
            }),
        }
    }

    /// The pending-queue bound, if any.
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// The wrapped engine.
    pub fn engine(&self) -> &PackedEngine {
        &self.engine
    }

    /// Queues one closure request (a square Boolean adjacency matrix,
    /// `n ≥ 2`) and returns its claim ticket.
    ///
    /// # Errors
    /// [`EngineError::BadInput`] when the matrix is not square or too
    /// small for the engines; [`EngineError::Busy`] when a bounded queue
    /// is at capacity (shed the request, retry after a flush).
    pub fn submit(&self, a: DenseMatrix<Bool>) -> Result<Ticket, EngineError> {
        if !a.is_square() {
            return Err(EngineError::BadInput(format!(
                "closure request must be square, got {}x{}",
                a.rows(),
                a.cols()
            )));
        }
        if a.rows() < 2 {
            return Err(EngineError::BadInput(format!(
                "closure request size n={} must be ≥ 2",
                a.rows()
            )));
        }
        let mut inner = self.inner.lock().expect("admission queue poisoned");
        if let Some(cap) = self.capacity {
            if inner.queue.len() >= cap {
                return Err(EngineError::Busy {
                    pending: inner.queue.len(),
                    cap,
                });
            }
        }
        let t = Ticket(inner.next);
        inner.next += 1;
        inner.stats.submitted += 1;
        inner.queue.push((t, a));
        Ok(t)
    }

    /// Number of requests waiting for the next flush.
    pub fn pending(&self) -> usize {
        self.inner
            .lock()
            .expect("admission queue poisoned")
            .queue
            .len()
    }

    /// Cumulative counters.
    pub fn stats(&self) -> AdmissionStats {
        self.inner.lock().expect("admission queue poisoned").stats
    }

    /// Runs everything pending: groups by problem size, one packed batch
    /// per size (the engine cuts each into simulations of up to 256
    /// instances), and files the results for
    /// [`take`](AdmissionBatcher::take).
    ///
    /// # Errors
    /// Propagates the engine's error; the failed flush's requests are
    /// dropped (their tickets will never resolve) — a server treats that
    /// as a fatal backend fault.
    pub fn flush(&self) -> Result<FlushReport, EngineError> {
        let drained = {
            let mut inner = self.inner.lock().expect("admission queue poisoned");
            std::mem::take(&mut inner.queue)
        };
        if drained.is_empty() {
            return Ok(FlushReport::default());
        }
        let mut by_size: BTreeMap<usize, Vec<(Ticket, DenseMatrix<Bool>)>> = BTreeMap::new();
        for (t, a) in drained {
            by_size.entry(a.rows()).or_default().push((t, a));
        }
        let mut report = FlushReport {
            groups: by_size.len(),
            ..FlushReport::default()
        };
        let mut finished: Vec<(Ticket, DenseMatrix<Bool>)> = Vec::new();
        for (n, group) in by_size {
            let warm = self.engine.has_plan(n);
            let mats: Vec<DenseMatrix<Bool>> = group.iter().map(|(_, a)| a.clone()).collect();
            let (closed, _stats, simulations) = self.engine.closure_many_counted(&mats)?;
            report.executed += group.len();
            report.lane_runs += simulations;
            report.warm_groups += usize::from(warm);
            finished.extend(group.into_iter().map(|(t, _)| t).zip(closed));
        }
        let mut inner = self.inner.lock().expect("admission queue poisoned");
        inner.stats.flushes += 1;
        inner.stats.executed += report.executed as u64;
        inner.stats.lane_runs += report.lane_runs as u64;
        inner.stats.warm_groups += report.warm_groups as u64;
        inner.stats.cold_groups += (report.groups - report.warm_groups) as u64;
        inner.done.extend(finished);
        Ok(report)
    }

    /// Claims a flushed result; `None` while still pending (or unknown).
    pub fn take(&self, ticket: Ticket) -> Option<DenseMatrix<Bool>> {
        self.inner
            .lock()
            .expect("admission queue poisoned")
            .done
            .remove(&ticket)
    }

    /// Withdraws a request: removes it from the pending queue (if not yet
    /// flushed) or drops its filed result. Returns whether anything was
    /// removed. Lets a caller that gave up on a ticket (e.g. falling back
    /// to a software recompute) avoid leaking queue slots and results.
    pub fn cancel(&self, ticket: Ticket) -> bool {
        let mut inner = self.inner.lock().expect("admission queue poisoned");
        if let Some(pos) = inner.queue.iter().position(|(t, _)| *t == ticket) {
            inner.queue.remove(pos);
            return true;
        }
        inner.done.remove(&ticket).is_some()
    }
}

impl std::fmt::Debug for AdmissionBatcher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock().expect("admission queue poisoned");
        write!(
            f,
            "AdmissionBatcher(pending: {}, done: {}, {:?})",
            inner.queue.len(),
            inner.done.len(),
            inner.stats
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use systolic_semiring::warshall;
    use systolic_util::Rng;

    fn random_bool(n: usize, rng: &mut Rng) -> DenseMatrix<Bool> {
        DenseMatrix::from_fn(n, n, |i, j| i != j && rng.gen_bool(0.3))
    }

    #[test]
    fn results_match_warshall_per_ticket() {
        let mut rng = Rng::seed_from_u64(3);
        let b = AdmissionBatcher::new(PackedEngine::new(2));
        // Mixed sizes interleaved; the batcher regroups them.
        let reqs: Vec<_> = (0..10)
            .map(|i| random_bool(if i % 2 == 0 { 4 } else { 6 }, &mut rng))
            .collect();
        let tickets: Vec<_> = reqs.iter().map(|a| b.submit(a.clone()).unwrap()).collect();
        assert_eq!(b.pending(), 10);
        let report = b.flush().unwrap();
        assert_eq!(report.executed, 10);
        assert_eq!(report.groups, 2);
        assert_eq!(report.lane_runs, 2);
        assert_eq!(b.pending(), 0);
        for (t, a) in tickets.iter().zip(&reqs) {
            assert_eq!(b.take(*t).unwrap(), warshall(a));
            assert!(b.take(*t).is_none(), "take is once");
        }
    }

    #[test]
    fn second_flush_of_a_size_is_warm() {
        let mut rng = Rng::seed_from_u64(8);
        let b = AdmissionBatcher::new(PackedEngine::new(2));
        b.submit(random_bool(5, &mut rng)).unwrap();
        let first = b.flush().unwrap();
        assert_eq!(first.warm_groups, 0, "first sight of n=5 compiles");
        b.submit(random_bool(5, &mut rng)).unwrap();
        b.submit(random_bool(5, &mut rng)).unwrap();
        let second = b.flush().unwrap();
        assert_eq!(second.warm_groups, 1, "n=5 plan is cached now");
        assert_eq!(second.lane_runs, 1, "two requests share one lane run");
        let s = b.stats();
        assert_eq!(s.cold_groups, 1);
        assert_eq!(s.warm_groups, 1);
        assert_eq!(s.executed, 3);
    }

    #[test]
    fn spillover_past_256_lanes_splits_runs() {
        let mut rng = Rng::seed_from_u64(13);
        let b = AdmissionBatcher::new(PackedEngine::new(2));
        for _ in 0..70 {
            b.submit(random_bool(3, &mut rng)).unwrap();
        }
        let report = b.flush().unwrap();
        assert_eq!(report.groups, 1);
        assert_eq!(report.lane_runs, 1, "70 requests share one 128-lane run");
        for _ in 0..300 {
            b.submit(random_bool(3, &mut rng)).unwrap();
        }
        let report = b.flush().unwrap();
        assert_eq!(report.lane_runs, 2, "300 requests = 256 + 44 lanes");
        assert_eq!(b.stats().lane_runs, 3);
    }

    #[test]
    fn rejects_malformed_requests() {
        let b = AdmissionBatcher::new(PackedEngine::new(2));
        let tall = DenseMatrix::<Bool>::zeros(3, 2);
        assert!(matches!(b.submit(tall), Err(EngineError::BadInput(_))));
        let tiny = DenseMatrix::<Bool>::zeros(1, 1);
        assert!(matches!(b.submit(tiny), Err(EngineError::BadInput(_))));
    }

    #[test]
    fn bounded_queue_sheds_load_and_recovers_after_flush() {
        let mut rng = Rng::seed_from_u64(21);
        let b = AdmissionBatcher::with_capacity(PackedEngine::new(2), Some(2));
        assert_eq!(b.capacity(), Some(2));
        let t0 = b.submit(random_bool(4, &mut rng)).unwrap();
        let t1 = b.submit(random_bool(4, &mut rng)).unwrap();
        match b.submit(random_bool(4, &mut rng)) {
            Err(EngineError::Busy { pending, cap }) => {
                assert_eq!((pending, cap), (2, 2));
            }
            other => panic!("expected Busy, got {other:?}"),
        }
        b.flush().unwrap();
        assert!(b.take(t0).is_some() && b.take(t1).is_some());
        // The queue drained; admission opens again.
        b.submit(random_bool(4, &mut rng)).unwrap();
        assert_eq!(b.pending(), 1);
    }

    #[test]
    fn empty_flush_is_a_no_op() {
        let b = AdmissionBatcher::new(PackedEngine::new(2));
        let report = b.flush().unwrap();
        assert_eq!(report, FlushReport::default());
        assert_eq!(b.stats().flushes, 0);
    }
}
