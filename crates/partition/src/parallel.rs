//! Host-side batch parallelism over any closure engine.
//!
//! The paper's arrays process a *batch* of problem instances by chaining
//! them through one simulated array. [`ParallelEngine`] instead shards the
//! batch across replicas of the wrapped engine, one replica per worker of a
//! persistent thread pool, with workers stealing slices of
//! [`ClosureEngine::preferred_chunk`] instances from a shared index (one
//! instance at a time for scalar engines; one whole simulation, up to 256
//! instances, for [`crate::PackedEngine`], which would otherwise spend a
//! simulation on every single-instance steal). Each chunk still runs
//! exactly as the wrapped engine would run it, so results are
//! bit-identical to the serial engine for any thread count; only host
//! wall-clock time changes.
//!
//! Merged [`RunStats`] are folded in chunk order (not completion order) —
//! instance order when the chunk is 1 — so every measured counter is
//! deterministic and independent of the worker count. `wall_nanos` is the
//! end-to-end batch wall time.
//!
//! Engine replicas are created by `Clone`, which shares the wrapped
//! engine's compiled-plan cache (see [`crate::plan::CompiledPlan`]): the
//! single-instance schedule is compiled once and every shard replays it.
//! Each replica still owns its private simulator (cloning never shares
//! one), so workers run without synchronizing on anything but the cache's
//! one-time fill.

use crate::engine::{validate_batch, ClosureEngine, EngineError};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use systolic_arraysim::RunStats;
use systolic_semiring::{DenseMatrix, PathSemiring};
use systolic_util::WorkerPool;

/// Runs a wrapped [`ClosureEngine`] on batch instances in parallel.
///
/// The pool is created once in [`ParallelEngine::new`] and reused across
/// every [`ClosureEngine::closure_many`] call; workers are joined when the
/// engine is dropped.
///
/// ```
/// use systolic_partition::{ClosureEngine, LinearEngine, ParallelEngine};
/// use systolic_semiring::{warshall, Bool, DenseMatrix};
///
/// let mut a = DenseMatrix::<Bool>::zeros(5, 5);
/// a.set(0, 3, true);
/// a.set(3, 1, true);
/// let batch = vec![a.clone(), a.clone(), a.clone()];
/// let par = ParallelEngine::new(LinearEngine::new(2), 2);
/// let (closed, _stats) = par.closure_many(&batch).unwrap();
/// assert_eq!(closed[2], warshall(&a));
/// ```
pub struct ParallelEngine<E> {
    inner: E,
    pool: WorkerPool,
}

impl<E> ParallelEngine<E> {
    /// Wraps `inner`, spawning a persistent pool of `threads` workers.
    ///
    /// # Panics
    /// Panics if `threads == 0`.
    pub fn new(inner: E, threads: usize) -> Self {
        Self {
            inner,
            pool: WorkerPool::new(threads),
        }
    }

    /// Number of pool workers.
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// The wrapped serial engine.
    pub fn inner(&self) -> &E {
        &self.inner
    }
}

type ChunkResult<S> = Result<(Vec<DenseMatrix<S>>, RunStats), EngineError>;

/// Rebases a chunk-relative [`EngineError::Corrupt`] instance index onto
/// the full batch, so callers see the same coordinates the serial engine
/// would report.
fn offset_instance(e: EngineError, base: usize) -> EngineError {
    match e {
        EngineError::Corrupt { instance, detail } => EngineError::Corrupt {
            instance: base + instance,
            detail,
        },
        other => other,
    }
}

impl<S, E> ClosureEngine<S> for ParallelEngine<E>
where
    S: PathSemiring,
    E: ClosureEngine<S> + Clone + Send + 'static,
{
    fn name(&self) -> &'static str {
        "parallel"
    }

    fn cells(&self) -> usize {
        // One engine replica per worker.
        self.inner.cells() * self.pool.threads()
    }

    fn closure_many(
        &self,
        mats: &[DenseMatrix<S>],
    ) -> Result<(Vec<DenseMatrix<S>>, RunStats), EngineError> {
        validate_batch(mats)?;
        let started = std::time::Instant::now();
        let chunk = self.inner.preferred_chunk().max(1);
        let batch: Arc<Vec<DenseMatrix<S>>> = Arc::new(mats.to_vec());
        let chunks = batch.len().div_ceil(chunk);
        let slots: Arc<Mutex<Vec<Option<ChunkResult<S>>>>> =
            Arc::new(Mutex::new(vec![None; chunks]));
        let next = Arc::new(AtomicUsize::new(0));

        let workers = self.pool.threads().min(chunks);
        let run = self.pool.scoped_run(workers, |_| {
            let engine = self.inner.clone();
            let batch = Arc::clone(&batch);
            let slots = Arc::clone(&slots);
            let next = Arc::clone(&next);
            Box::new(move || loop {
                let ci = next.fetch_add(1, Ordering::Relaxed);
                if ci >= chunks {
                    break;
                }
                let lo = ci * chunk;
                let hi = (lo + chunk).min(batch.len());
                let r = engine.closure_many(&batch[lo..hi]);
                slots.lock().expect("result store poisoned")[ci] = Some(r);
            })
        });
        // Engine panics are bugs, not recoverable failures: re-raise with
        // the worker's payload now that every sibling has finished.
        if let Err(p) = run {
            panic!("{p}");
        }

        let slots = Arc::into_inner(slots)
            .expect("all workers joined")
            .into_inner()
            .expect("result store poisoned");
        let mut results = Vec::with_capacity(batch.len());
        let mut merged: Option<RunStats> = None;
        for (ci, slot) in slots.into_iter().enumerate() {
            // Propagate the lowest-chunk failure, matching the serial
            // engine, which would have failed on that slice first.
            let r = slot.unwrap_or_else(|| panic!("chunk {ci} never ran"));
            let (ms, stats) = match r {
                Ok(ok) => ok,
                Err(e) => return Err(offset_instance(e, ci * chunk)),
            };
            match &mut merged {
                None => merged = Some(stats),
                Some(acc) => acc.merge(&stats),
            }
            results.extend(ms);
        }
        let mut merged = merged.expect("validated batch is non-empty");
        merged.wall_nanos = started.elapsed().as_nanos() as u64;
        Ok((results, merged))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixed::FixedLinearEngine;
    use crate::linear::LinearEngine;
    use systolic_semiring::{warshall, Bool};
    use systolic_util::Rng;

    fn random_bool(n: usize, rng: &mut Rng) -> DenseMatrix<Bool> {
        DenseMatrix::from_fn(n, n, |i, j| i != j && rng.gen_bool(0.2))
    }

    #[test]
    fn matches_serial_engine_bit_for_bit() {
        let mut rng = Rng::seed_from_u64(17);
        let batch: Vec<_> = (0..6).map(|_| random_bool(7, &mut rng)).collect();
        let serial = LinearEngine::new(3);
        let expected: Vec<_> = batch.iter().map(|a| serial.closure(a).unwrap().0).collect();
        for threads in [1, 2, 4] {
            let par = ParallelEngine::new(LinearEngine::new(3), threads);
            let (got, _) = par.closure_many(&batch).unwrap();
            assert_eq!(got, expected, "threads={threads}");
        }
    }

    #[test]
    fn merged_stats_are_thread_count_invariant() {
        let mut rng = Rng::seed_from_u64(23);
        let batch: Vec<_> = (0..5).map(|_| random_bool(6, &mut rng)).collect();
        let one = ParallelEngine::new(FixedLinearEngine::new(), 1);
        let (_, s1) = one.closure_many(&batch).unwrap();
        for threads in [2, 3, 4] {
            let par = ParallelEngine::new(FixedLinearEngine::new(), threads);
            let (_, s) = par.closure_many(&batch).unwrap();
            // PartialEq on RunStats ignores wall_nanos by design.
            assert_eq!(s, s1, "threads={threads}");
        }
    }

    #[test]
    fn merged_stats_aggregate_per_instance_runs() {
        let mut rng = Rng::seed_from_u64(31);
        let batch: Vec<_> = (0..4).map(|_| random_bool(5, &mut rng)).collect();
        let serial = LinearEngine::new(2);
        let mut expect_ops = 0;
        for a in &batch {
            expect_ops += serial.closure(a).unwrap().1.useful_ops;
        }
        let par = ParallelEngine::new(LinearEngine::new(2), 2);
        let (_, s) = par.closure_many(&batch).unwrap();
        assert_eq!(s.useful_ops, expect_ops);
        assert_eq!(s.phases.total(), s.cycles);
    }

    #[test]
    fn result_is_the_transitive_closure() {
        let mut rng = Rng::seed_from_u64(41);
        let batch: Vec<_> = (0..3).map(|_| random_bool(8, &mut rng)).collect();
        let par = ParallelEngine::new(LinearEngine::new(4), 3);
        let (got, _) = par.closure_many(&batch).unwrap();
        for (a, c) in batch.iter().zip(&got) {
            assert_eq!(*c, warshall(a));
        }
    }

    #[test]
    fn bad_batches_are_rejected() {
        let par = ParallelEngine::new(LinearEngine::new(2), 2);
        let empty: Vec<DenseMatrix<Bool>> = vec![];
        assert!(matches!(
            par.closure_many(&empty),
            Err(EngineError::BadInput(_))
        ));
        let mixed = vec![
            DenseMatrix::<Bool>::zeros(3, 3),
            DenseMatrix::<Bool>::zeros(4, 4),
        ];
        assert!(matches!(
            par.closure_many(&mixed),
            Err(EngineError::BadInput(_))
        ));
    }

    #[test]
    fn pool_survives_repeated_batches() {
        let par = ParallelEngine::new(LinearEngine::new(2), 4);
        let mut rng = Rng::seed_from_u64(53);
        for _ in 0..5 {
            let batch: Vec<_> = (0..8).map(|_| random_bool(5, &mut rng)).collect();
            let (got, _) = par.closure_many(&batch).unwrap();
            for (a, c) in batch.iter().zip(&got) {
                assert_eq!(*c, warshall(a));
            }
        }
        assert_eq!(par.threads(), 4);
    }
}
