//! Compile-once G-set schedules.
//!
//! Building an engine's schedule — task programs for every cell, the host
//! demand order, the stream wiring — depends only on the G-graph being run
//! (the closure's of size `n`, or an elimination trapezoid) and the batch
//! length plus the engine's own geometry, never on the matrix entries.
//! [`CompiledPlan`] captures that shape-dependent work once: engines
//! memoize plans per `(G-graph, batch_len)` (see `PlanCache`), instantiate
//! a simulator from a plan, and on later calls [`ArraySim::reset`] the
//! cached simulator (see `SimSlot`) and merely re-[`load`](CompiledPlan::load)
//! the new matrices, entering the hot loop with zero schedule rebuilding.
//!
//! At compile time every logical stream `stream_key(inst, k, h)` gets a
//! dense slot index, numbered per bank (or per cell's host R-block) in the
//! order streams are first written, so the simulator's banks and host
//! R-blocks are Vec-backed slot tables and the per-cycle
//! `can_read`/`read`/`write` path never hashes. Bank slots carry their
//! original `u64` key as a sort key, preserving `corrupt_resident`'s
//! deterministic sorted-key visit order for fault injection.

use std::any::{Any, TypeId};
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex};
use systolic_arraysim::{ArraySim, Task};
use systolic_semiring::{DenseMatrix, Semiring};
use systolic_transform::GenericGGraph;

/// One input-stream binding: which column of which batch instance enters
/// the array where. Feeds replay in recorded order, which for host feeds
/// *is* the demand order of the schedule.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Feed {
    /// Host-injected stream: `mats[inst].col(col)` queued for `cell`.
    Host {
        cell: usize,
        slot: usize,
        inst: u32,
        col: u32,
    },
    /// Boundary-port preload: `mats[inst].col(col)` preloaded into `bank`.
    Preload {
        bank: usize,
        slot: usize,
        inst: u32,
        col: u32,
    },
}

/// A fully compiled schedule for one `(n, batch_len)` shape: array
/// geometry, per-cell task programs (shared, never copied per run), input
/// feed order and the cycle budget. Independent of the semiring — one plan
/// serves runs over any element type. Only the plan compiler builds one.
#[derive(Clone, Debug)]
pub struct CompiledPlan {
    pub(crate) n: usize,
    pub(crate) batch_len: usize,
    pub(crate) cells: usize,
    pub(crate) link_delays: Vec<u64>,
    /// Per bank: the original stream keys, indexed by slot.
    pub(crate) bank_slots: Vec<Vec<u64>>,
    pub(crate) outputs: usize,
    pub(crate) memory_connections: usize,
    pub(crate) max_cycles: u64,
    pub(crate) feeds: Vec<Feed>,
    pub(crate) programs: Vec<Arc<[Task]>>,
}

impl CompiledPlan {
    /// Problem size this plan was compiled for.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Batch length this plan was compiled for.
    pub fn batch_len(&self) -> usize {
        self.batch_len
    }

    /// Number of cells in the planned array.
    pub fn cells(&self) -> usize {
        self.cells
    }

    /// Builds a fresh simulator with this plan's structure and programs
    /// installed (no input data yet — see [`CompiledPlan::load`]).
    pub fn instantiate<S: Semiring>(&self, trace: bool) -> ArraySim<S> {
        let mut sim = ArraySim::<S>::new(self.cells);
        for &d in &self.link_delays {
            sim.add_link_with_delay(d);
        }
        for keys in &self.bank_slots {
            sim.add_bank_with_slots(keys.clone());
        }
        sim.add_outputs(self.outputs);
        sim.set_memory_connections(self.memory_connections);
        sim.set_max_cycles(self.max_cycles);
        for (cell, prog) in self.programs.iter().enumerate() {
            sim.set_cell_program(cell, Arc::clone(prog));
        }
        if trace {
            sim.enable_trace();
        }
        sim
    }

    /// Returns a copy of this plan whose task durations are overridden per
    /// G-graph row: the task labelled `k` gets duration `durs[k]` — the
    /// §4.3 varying-computation-time knob, applicable to any mapping's
    /// plan. With all durations `1` the copy is identical to the original
    /// (the classical single-cycle G-node).
    ///
    /// # Panics
    /// When a task's row label is not covered by `durs` or a duration is 0.
    #[must_use]
    pub fn with_row_durations(&self, durs: &[u32]) -> CompiledPlan {
        assert!(durs.iter().all(|&d| d >= 1), "durations must be ≥ 1");
        let mut plan = self.clone();
        plan.programs = self
            .programs
            .iter()
            .map(|prog| {
                prog.iter()
                    .map(|t| {
                        let mut t = t.clone();
                        t.duration = durs[t.label.k as usize];
                        t
                    })
                    .collect::<Vec<_>>()
                    .into()
            })
            .collect();
        plan
    }

    /// Feeds a batch's matrices into a (fresh or reset) simulator, in the
    /// order the plan recorded — for host streams that is the schedule's
    /// demand order.
    pub fn load<S: Semiring>(&self, sim: &mut ArraySim<S>, batch: &[DenseMatrix<S>]) {
        debug_assert_eq!(batch.len(), self.batch_len);
        for feed in &self.feeds {
            match *feed {
                Feed::Host {
                    cell,
                    slot,
                    inst,
                    col,
                } => {
                    sim.host_mut().enqueue_stream(
                        cell,
                        slot,
                        batch[inst as usize].col(col as usize),
                    );
                }
                Feed::Preload {
                    bank,
                    slot,
                    inst,
                    col,
                } => {
                    let b = sim.bank_mut(bank);
                    for v in batch[inst as usize].col(col as usize) {
                        b.preload(slot, v);
                    }
                }
            }
        }
    }
}

/// Plans memoized by the G-graph they compile and the batch length.
type PlanMap = HashMap<(GenericGGraph, usize), Arc<CompiledPlan>>;

/// Plan memo keyed by `(G-graph, batch_len)`, shared (via `Arc`) across
/// engine clones — every `ParallelEngine` shard reuses the one compiled
/// plan per key. Keying by the graph, not by `n`, keeps a closure plan
/// and an LU or Faddeev plan of the same `n` apart.
#[derive(Clone, Default)]
pub(crate) struct PlanCache {
    plans: Arc<Mutex<PlanMap>>,
}

impl PlanCache {
    /// Returns the memoized plan for `(gg, batch_len)`, building it under
    /// the lock on first use (concurrent shards wait and then share it).
    pub(crate) fn get_or_build(
        &self,
        gg: &GenericGGraph,
        batch_len: usize,
        build: impl FnOnce() -> CompiledPlan,
    ) -> Arc<CompiledPlan> {
        let mut plans = self.plans.lock().expect("plan cache poisoned");
        Arc::clone(
            plans
                .entry((gg.clone(), batch_len))
                .or_insert_with(|| Arc::new(build())),
        )
    }

    pub(crate) fn clear(&self) {
        self.plans.lock().expect("plan cache poisoned").clear();
    }

    /// True when a plan for `(gg, batch_len)` is already memoized.
    pub(crate) fn contains(&self, gg: &GenericGGraph, batch_len: usize) -> bool {
        self.plans
            .lock()
            .expect("plan cache poisoned")
            .contains_key(&(gg.clone(), batch_len))
    }
}

impl fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let n = self.plans.lock().map(|p| p.len()).unwrap_or(0);
        write!(f, "PlanCache({n} plans)")
    }
}

/// A cached, reusable simulator paired with the plan that built it.
struct CachedSim<S: Semiring> {
    plan: Arc<CompiledPlan>,
    sim: ArraySim<S>,
}

/// Per-engine-value simulator cache (NOT shared across clones — a simulator
/// is single-threaded state). Type-erased so non-generic engines can cache
/// one simulator per element type: the Boolean packed engine moves between
/// 64-, 128- and 256-lane words from call to call, and a scalar or
/// min-plus run in between must not evict them.
#[derive(Default)]
pub(crate) struct SimSlot {
    slots: Mutex<HashMap<TypeId, Box<dyn Any + Send>>>,
}

impl SimSlot {
    /// Takes the cached simulator of element type `S` if it was built from
    /// exactly `plan` (by `Arc` identity), reset and ready to reload.
    pub(crate) fn take<S: Semiring>(&self, plan: &Arc<CompiledPlan>) -> Option<ArraySim<S>> {
        let boxed = self
            .slots
            .lock()
            .expect("sim cache poisoned")
            .remove(&TypeId::of::<S>())?;
        let cached = boxed.downcast::<CachedSim<S>>().ok()?;
        if Arc::ptr_eq(&cached.plan, plan) {
            let mut sim = cached.sim;
            sim.reset();
            Some(sim)
        } else {
            None
        }
    }

    /// Stores a simulator for reuse by the next same-shape call over `S`,
    /// replacing only the one cached for `S`.
    pub(crate) fn store<S: Semiring>(&self, plan: Arc<CompiledPlan>, sim: ArraySim<S>) {
        self.slots
            .lock()
            .expect("sim cache poisoned")
            .insert(TypeId::of::<S>(), Box::new(CachedSim { plan, sim }));
    }

    pub(crate) fn clear(&self) {
        self.slots.lock().expect("sim cache poisoned").clear();
    }
}

/// Clones start with an empty cache: simulators are per-value state.
impl Clone for SimSlot {
    fn clone(&self) -> Self {
        Self::default()
    }
}

impl fmt::Debug for SimSlot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let cached = self.slots.lock().map(|s| s.len()).unwrap_or(0);
        write!(f, "SimSlot(cached: {cached})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use systolic_arraysim::{StreamDst, StreamSrc, TaskKind, TaskLabel};
    use systolic_semiring::{Bool, MinPlus};

    /// One cell passing a preloaded column straight to the output.
    fn trivial_plan() -> CompiledPlan {
        let pass = Task {
            kind: TaskKind::Pass,
            len: 2,
            col_in: Some(StreamSrc::Bank { bank: 0, slot: 0 }),
            pivot_in: None,
            col_out: Some(StreamDst::Output { stream: 0 }),
            pivot_out: None,
            head_out: None,
            duration: 1,
            useful_ops: 0,
            label: TaskLabel::default(),
        };
        CompiledPlan {
            n: 2,
            batch_len: 1,
            cells: 1,
            link_delays: Vec::new(),
            bank_slots: vec![vec![0xdead_beef]],
            outputs: 1,
            memory_connections: 0,
            max_cycles: u64::MAX,
            feeds: vec![Feed::Preload {
                bank: 0,
                slot: 0,
                inst: 0,
                col: 0,
            }],
            programs: vec![vec![pass].into()],
        }
    }

    #[test]
    fn instantiate_load_run_round_trips() {
        let plan = trivial_plan();
        let mut a = DenseMatrix::<MinPlus>::zeros(2, 2);
        a.set(0, 0, 7);
        a.set(1, 0, 8);
        let mut sim = plan.instantiate::<MinPlus>(false);
        plan.load(&mut sim, std::slice::from_ref(&a));
        sim.run().unwrap();
        assert_eq!(sim.outputs()[0], vec![7, 8]);
        // Reset + reload reruns identically on the same simulator.
        sim.reset();
        plan.load(&mut sim, std::slice::from_ref(&a));
        sim.run().unwrap();
        assert_eq!(sim.outputs()[0], vec![7, 8]);
    }

    #[test]
    fn sim_slot_matches_on_plan_identity_and_semiring() {
        let plan = Arc::new(trivial_plan());
        let other = Arc::new(trivial_plan());
        let slot = SimSlot::default();
        slot.store::<MinPlus>(Arc::clone(&plan), plan.instantiate(false));
        // Identical shape but different Arc: no match.
        assert!(slot.take::<MinPlus>(&other).is_none());
        slot.store::<MinPlus>(Arc::clone(&plan), plan.instantiate(false));
        // Different semiring: no match, and the min-plus simulator stays.
        assert!(slot.take::<Bool>(&plan).is_none());
        // Each element type keeps its own simulator.
        slot.store::<Bool>(Arc::clone(&plan), plan.instantiate(false));
        assert_eq!(format!("{slot:?}"), "SimSlot(cached: 2)");
        assert!(slot.take::<MinPlus>(&plan).is_some());
        assert!(slot.take::<Bool>(&plan).is_some());
        // Take empties the slot.
        assert!(slot.take::<MinPlus>(&plan).is_none());
        assert_eq!(format!("{slot:?}"), "SimSlot(cached: 0)");
    }

    #[test]
    fn plan_cache_memoizes_per_shape() {
        let cache = PlanCache::default();
        let closure = GenericGGraph::closure(2);
        let p1 = cache.get_or_build(&closure, 1, trivial_plan);
        let p2 = cache.get_or_build(&closure, 1, || panic!("must be memoized"));
        assert!(Arc::ptr_eq(&p1, &p2));
        let p3 = cache.get_or_build(&closure, 2, trivial_plan);
        assert!(!Arc::ptr_eq(&p1, &p3));
        // Another graph of the same n is another key.
        let lu = cache.get_or_build(&GenericGGraph::lu(2), 1, trivial_plan);
        assert!(!Arc::ptr_eq(&p1, &lu));
        assert!(cache.contains(&closure, 1) && !cache.contains(&closure, 3));
        cache.clear();
        let p4 = cache.get_or_build(&closure, 1, trivial_plan);
        assert!(!Arc::ptr_eq(&p1, &p4));
    }
}
