//! A persistent worker pool over `std::thread`.
//!
//! Workers are spawned once and live until the pool is dropped; jobs are
//! boxed closures drained FIFO from a shared queue. This is the substrate
//! for host-side batch parallelism (`systolic-partition::ParallelEngine`).

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A job submitted through [`WorkerPool::scoped_run`] panicked.
///
/// The panic is contained: the worker thread survives (the pool does not
/// shrink), every sibling job still runs to completion, and the first
/// panic's payload is surfaced here.
#[derive(Clone, Debug)]
pub struct JobPanic {
    /// The panic payload, stringified (`&str`/`String` payloads verbatim).
    pub message: String,
}

impl std::fmt::Display for JobPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "pool job panicked: {}", self.message)
    }
}

impl std::error::Error for JobPanic {}

fn payload_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

struct Queue {
    jobs: Mutex<(VecDeque<Job>, bool)>, // (pending jobs, shutting down)
    ready: Condvar,
}

/// A fixed-size pool of persistent worker threads executing boxed jobs.
pub struct WorkerPool {
    queue: Arc<Queue>,
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `threads ≥ 1` workers.
    ///
    /// # Panics
    /// Panics if `threads == 0`.
    pub fn new(threads: usize) -> Self {
        assert!(threads >= 1, "worker pool needs at least one thread");
        let queue = Arc::new(Queue {
            jobs: Mutex::new((VecDeque::new(), false)),
            ready: Condvar::new(),
        });
        let handles = (0..threads)
            .map(|_| {
                let q = Arc::clone(&queue);
                std::thread::spawn(move || loop {
                    let job = {
                        let mut guard = q.jobs.lock().expect("pool queue poisoned");
                        loop {
                            if let Some(job) = guard.0.pop_front() {
                                break job;
                            }
                            if guard.1 {
                                return;
                            }
                            guard = q.ready.wait(guard).expect("pool queue poisoned");
                        }
                    };
                    // A panicking job must not kill the worker — a dead
                    // thread would silently shrink the pool for every
                    // later caller. `scoped_run` reports the panic; bare
                    // `execute` panics are contained and dropped.
                    let _ = catch_unwind(AssertUnwindSafe(job));
                })
            })
            .collect();
        Self { queue, handles }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.handles.len()
    }

    /// Enqueues a job; some worker will run it.
    pub fn execute(&self, job: impl FnOnce() + Send + 'static) {
        let mut guard = self.queue.jobs.lock().expect("pool queue poisoned");
        guard.0.push_back(Box::new(job));
        drop(guard);
        self.queue.ready.notify_one();
    }

    /// Enqueues `count` jobs produced by `make(worker_slot)` and blocks
    /// until all of them finish. The slot index is purely informational
    /// (jobs are work-stealing over the shared queue).
    ///
    /// # Errors
    /// [`JobPanic`] with the first panic's payload if any job panicked.
    /// The wait group is signalled on the unwind path too, so a panicking
    /// job neither hangs the caller nor shrinks the pool; sibling jobs
    /// run to completion before this returns.
    pub fn scoped_run(&self, count: usize, make: impl Fn(usize) -> Job) -> Result<(), JobPanic> {
        let wg = WaitGroup::new(count);
        let first_panic: Arc<Mutex<Option<String>>> = Arc::new(Mutex::new(None));
        for i in 0..count {
            let job = make(i);
            let wg = wg.clone();
            let first_panic = Arc::clone(&first_panic);
            self.execute(move || {
                let outcome = catch_unwind(AssertUnwindSafe(job));
                if let Err(payload) = outcome {
                    let msg = payload_message(payload);
                    first_panic
                        .lock()
                        .expect("panic slot poisoned")
                        .get_or_insert(msg);
                }
                wg.done();
            });
        }
        wg.wait();
        let msg = first_panic.lock().expect("panic slot poisoned").take();
        match msg {
            Some(message) => Err(JobPanic { message }),
            None => Ok(()),
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut guard = self.queue.jobs.lock().expect("pool queue poisoned");
            guard.1 = true;
        }
        self.queue.ready.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// A counting barrier: `done()` decrements, `wait()` blocks until zero.
#[derive(Clone)]
pub struct WaitGroup {
    inner: Arc<(Mutex<usize>, Condvar)>,
}

impl WaitGroup {
    /// Creates a group awaiting `count` completions.
    pub fn new(count: usize) -> Self {
        Self {
            inner: Arc::new((Mutex::new(count), Condvar::new())),
        }
    }

    /// Records one completion.
    pub fn done(&self) {
        let (lock, cv) = &*self.inner;
        let mut n = lock.lock().expect("waitgroup poisoned");
        *n = n.checked_sub(1).expect("waitgroup overflow");
        if *n == 0 {
            cv.notify_all();
        }
    }

    /// Blocks until every completion has been recorded.
    pub fn wait(&self) {
        let (lock, cv) = &*self.inner;
        let mut n = lock.lock().expect("waitgroup poisoned");
        while *n > 0 {
            n = cv.wait(n).expect("waitgroup poisoned");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn pool_runs_all_jobs() {
        let pool = WorkerPool::new(4);
        let hits = Arc::new(AtomicUsize::new(0));
        let wg = WaitGroup::new(100);
        for _ in 0..100 {
            let hits = Arc::clone(&hits);
            let wg = wg.clone();
            pool.execute(move || {
                hits.fetch_add(1, Ordering::Relaxed);
                wg.done();
            });
        }
        wg.wait();
        assert_eq!(hits.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn scoped_run_blocks_until_done() {
        let pool = WorkerPool::new(3);
        let sum = Arc::new(AtomicUsize::new(0));
        let s2 = Arc::clone(&sum);
        pool.scoped_run(10, move |i| {
            let s = Arc::clone(&s2);
            Box::new(move || {
                s.fetch_add(i + 1, Ordering::Relaxed);
            })
        })
        .unwrap();
        assert_eq!(sum.load(Ordering::Relaxed), 55);
    }

    #[test]
    fn panicking_job_neither_hangs_nor_shrinks_the_pool() {
        let pool = WorkerPool::new(2);
        let done = Arc::new(AtomicUsize::new(0));
        let d2 = Arc::clone(&done);
        // More jobs than threads, one of them panicking: scoped_run must
        // return (not hang), report the panic, and run every sibling.
        let err = pool
            .scoped_run(6, move |i| {
                let d = Arc::clone(&d2);
                Box::new(move || {
                    if i == 3 {
                        panic!("job {i} exploded");
                    }
                    d.fetch_add(1, Ordering::Relaxed);
                })
            })
            .unwrap_err();
        assert!(err.message.contains("job 3 exploded"), "{err}");
        assert_eq!(done.load(Ordering::Relaxed), 5, "siblings completed");
        assert_eq!(pool.threads(), 2);

        // The pool is still fully functional afterwards.
        let sum = Arc::new(AtomicUsize::new(0));
        let s2 = Arc::clone(&sum);
        pool.scoped_run(8, move |_| {
            let s = Arc::clone(&s2);
            Box::new(move || {
                s.fetch_add(1, Ordering::Relaxed);
            })
        })
        .unwrap();
        assert_eq!(sum.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn first_panic_wins_when_several_jobs_panic() {
        let pool = WorkerPool::new(1); // serial: job 0 panics first
        let err = pool
            .scoped_run(3, |i| Box::new(move || panic!("boom {i}")))
            .unwrap_err();
        assert_eq!(err.message, "boom 0");
        assert_eq!(pool.threads(), 1);
    }

    #[test]
    fn drop_joins_workers() {
        let pool = WorkerPool::new(2);
        assert_eq!(pool.threads(), 2);
        drop(pool); // must not hang
    }

    #[test]
    fn pool_survives_many_rounds() {
        // The point of a persistent pool: many dispatch rounds, zero
        // re-spawns. 200 rounds of 4 jobs each.
        let pool = WorkerPool::new(4);
        let total = Arc::new(AtomicUsize::new(0));
        for _ in 0..200 {
            let t = Arc::clone(&total);
            pool.scoped_run(4, move |_| {
                let t = Arc::clone(&t);
                Box::new(move || {
                    t.fetch_add(1, Ordering::Relaxed);
                })
            })
            .unwrap();
        }
        assert_eq!(total.load(Ordering::Relaxed), 800);
    }
}
