//! The mapping layer: pluggable G-set-to-array mappings behind one
//! generic executor.
//!
//! The paper's contribution is a *family* of mappings from the skewed
//! G-graph onto fixed-size arrays — cut-and-pile (LPGS) onto a chain or a
//! grid, the fixed-size arrays of §3.2, coalescing (LSGP, §2). What a
//! mapping actually decides is small: how many cells, which cell runs
//! which G-node, and how the pivot/column streams travel between them.
//!
//! [`Mapping`] captures exactly those decisions: a name, the cell count,
//! and the [`CompiledPlan`] for a closure shape — a G-set assignment (the
//! schedule with every G-node placed on a cell, links, boundary banks)
//! handed to the one plan compiler (`compile`). A [`GraphMapping`] places
//! any G-graph, which is how the LPGS chain and the grid run the §4.3
//! elimination trapezoids ([`crate::algo`]). [`MappedEngine`] owns
//! everything else once, in one private runner that closure batches and
//! elimination runs share: plan cache keyed by `(G-graph, batch_len)`,
//! recycled simulator, load, fault arming, run, fault log, and one unload
//! through the plan's output layout. The concrete engines
//! ([`crate::LinearEngine`], [`crate::FixedArrayEngine`],
//! [`crate::FixedLinearEngine`], [`crate::GridEngine`],
//! [`crate::LsgpEngine`]) are type aliases `MappedEngine<SomeMapping>`
//! plus inherent constructors.

use crate::compile::OutputLayout;
use crate::engine::{prepare_batch, ClosureEngine, EngineError};
use crate::plan::{CompiledPlan, PlanCache, SimSlot};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use systolic_arraysim::{ArraySim, FaultEvent, FaultPlan, RunStats};
use systolic_semiring::{DenseMatrix, PathSemiring, Semiring};
use systolic_transform::GenericGGraph;

/// How G-sets land on cells: the per-mapping third of an engine.
///
/// A mapping is pure geometry/schedule — it never touches matrix values,
/// so one implementation serves every semiring, and the compiled plan it
/// returns may be memoized per `(G-graph, batch_len)` and shared across
/// engine clones.
pub trait Mapping: Clone + std::fmt::Debug + Send + Sync + 'static {
    /// Engine name for reports (the [`ClosureEngine::name`] of the
    /// executor).
    fn name(&self) -> &'static str;

    /// Number of processing cells, or 0 when the array size depends on
    /// the problem size (the fixed-size mappings).
    fn cells(&self) -> usize;

    /// Checks the mapping's own parameters (e.g. a positive cell count).
    ///
    /// Called by the executor before any plan is built; a mapping with
    /// impossible geometry reports [`EngineError::BadInput`] instead of
    /// panicking mid-compile. The default accepts everything.
    ///
    /// # Errors
    /// [`EngineError::BadInput`] describing the bad parameter.
    fn validate(&self) -> Result<(), EngineError> {
        Ok(())
    }

    /// Compiles the full schedule for one `(n, batch_len)` shape: cell
    /// programs, stream wiring, host demand order, cycle budget — the
    /// mapping's G-set assignment run through the plan compiler.
    fn build_plan(&self, n: usize, batch_len: usize) -> CompiledPlan;

    /// Smallest batch slice processed at full efficiency (see
    /// [`ClosureEngine::preferred_chunk`]).
    fn preferred_chunk(&self) -> usize {
        1
    }
}

/// A mapping whose G-set assignment places any [`GenericGGraph`], not
/// just the closure's (§4.3); [`crate::run_elimination`] runs on it.
pub trait GraphMapping: Mapping {
    /// Compiles `batch_len` instances of `gg`, with a cycle budget sized
    /// from the graph's total G-node time (the closure's own plan and
    /// budget stay [`Mapping::build_plan`]).
    fn graph_plan(&self, gg: &GenericGGraph, batch_len: usize) -> CompiledPlan;
}

/// The one generic executor: runs any [`Mapping`]'s compiled plans on the
/// cycle-level simulator with plan memoization, simulator recycling,
/// fault-plan arming and trace capture.
#[derive(Debug)]
pub struct MappedEngine<M: Mapping> {
    mapping: M,
    trace: bool,
    /// Transient-fault plan armed on every run (None = clean array).
    plan: Option<FaultPlan>,
    /// Per-run reseed nonce: consecutive runs (closure batches and
    /// elimination runs alike) on the same engine see decorrelated fault
    /// sequences (a retry must not replay the identical fault), while a
    /// fresh engine with the same plan reproduces the same sequence of
    /// sequences.
    nonce: AtomicU64,
    /// Faults applied during the most recent run (success or failure).
    last_faults: Mutex<Vec<FaultEvent>>,
    /// Compiled schedules per `(G-graph, batch_len)`, shared across clones.
    plans: PlanCache,
    /// Reusable simulators from previous runs, one per element type (per
    /// engine value).
    sims: SimSlot,
}

impl<M: Mapping> Clone for MappedEngine<M> {
    fn clone(&self) -> Self {
        Self {
            mapping: self.mapping.clone(),
            trace: self.trace,
            plan: self.plan.clone(),
            nonce: AtomicU64::new(self.nonce.load(Ordering::Relaxed)),
            last_faults: Mutex::new(Vec::new()),
            plans: self.plans.clone(),
            sims: SimSlot::default(),
        }
    }
}

impl<M: Mapping + Default> Default for MappedEngine<M> {
    fn default() -> Self {
        Self::from_mapping(M::default())
    }
}

impl<M: Mapping> MappedEngine<M> {
    /// Creates an executor over the given mapping.
    pub fn from_mapping(mapping: M) -> Self {
        Self {
            mapping,
            trace: false,
            plan: None,
            nonce: AtomicU64::new(0),
            last_faults: Mutex::new(Vec::new()),
            plans: PlanCache::default(),
            sims: SimSlot::default(),
        }
    }

    /// The mapping this executor runs.
    pub fn mapping(&self) -> &M {
        &self.mapping
    }

    /// Enables task-span tracing; the run's `RunStats::spans` then holds
    /// the full schedule for Gantt rendering (Fig. 20 visualization).
    pub fn with_trace(mut self) -> Self {
        self.trace = true;
        self.sims.clear(); // a cached simulator would lack span buffers
        self
    }

    /// Arms a transient-fault plan: every subsequent run injects faults
    /// from a fresh reseeding of `plan` (see the `nonce` field docs).
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.plan = Some(plan);
        self
    }

    /// The armed fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.plan.as_ref()
    }

    /// Faults applied during the most recent run on this engine value
    /// (empty without a plan). Recorded on both success and error, so a
    /// deadlocked or corrupt run can still be blamed.
    pub fn recent_fault_events(&self) -> Vec<FaultEvent> {
        self.last_faults.lock().expect("fault log poisoned").clone()
    }

    /// Takes the most recent run's fault events without cloning them.
    pub(crate) fn take_recent_fault_events(&self) -> Vec<FaultEvent> {
        std::mem::take(&mut self.last_faults.lock().expect("fault log poisoned"))
    }

    /// Drops the memoized plans and the cached simulators, forcing the next
    /// call to compile from scratch (the fault-nonce sequence continues
    /// unchanged). Mainly for cache-vs-fresh equivalence tests.
    pub fn clear_caches(&self) {
        self.plans.clear();
        self.sims.clear();
    }

    /// True when the closure plan for the `(n, batch_len)` shape is
    /// already compiled — the next same-shape closure batch is *warm* (no
    /// schedule rebuild). The admission batcher uses this to prove a
    /// settled server never recompiles.
    pub fn has_plan(&self, n: usize, batch_len: usize) -> bool {
        n >= 2 && self.plans.contains(&GenericGGraph::closure(n), batch_len)
    }

    /// The fault plan the next run arms: a fresh reseeding of this engine's
    /// plan, or `None` on a clean array. Closure batches and elimination
    /// runs draw from the one nonce sequence.
    fn next_armed(&self) -> Option<FaultPlan> {
        self.plan
            .as_ref()
            .map(|p| p.reseeded(self.nonce.fetch_add(1, Ordering::Relaxed)))
    }

    /// The one run path: runs `batch` through the plan memoized for
    /// `(gg, batch.len())` (compiled by `build` on first use) on a recycled
    /// simulator, arming `armed` verbatim when given, and reassembles every
    /// instance's result through the plan's output layout. The fault log is
    /// recorded into `last_faults` iff a plan was armed.
    fn run<S: Semiring>(
        &self,
        gg: &GenericGGraph,
        batch: &[DenseMatrix<S>],
        armed: Option<FaultPlan>,
        build: impl FnOnce() -> CompiledPlan,
    ) -> Result<(Vec<DenseMatrix<S>>, RunStats), EngineError> {
        self.mapping.validate()?;
        let plan = self.plans.get_or_build(gg, batch.len(), build);
        let mut sim: ArraySim<S> = self
            .sims
            .take(&plan)
            .unwrap_or_else(|| plan.instantiate(self.trace));
        plan.load(&mut sim, batch);

        let record = armed.is_some();
        if let Some(fp) = armed {
            sim.set_fault_plan(fp);
        }
        let run = sim.run();
        if record {
            // Record what was injected even when the run failed — blame
            // attribution needs the sites of a deadlocked attempt too.
            *self.last_faults.lock().expect("fault log poisoned") = sim.take_fault_events();
        }
        let stats = run?;
        let layout = OutputLayout::new(gg);
        let results = (0..batch.len())
            .map(|inst| layout.unload(sim.outputs(), inst))
            .collect::<Result<_, _>>()?;
        self.sims.store(plan, sim);
        Ok((results, stats))
    }

    /// Closes a prepared (reflexive) batch of size-`n` instances.
    fn run_closure<S: PathSemiring>(
        &self,
        n: usize,
        batch: &[DenseMatrix<S>],
        armed: Option<FaultPlan>,
    ) -> Result<(Vec<DenseMatrix<S>>, RunStats), EngineError> {
        self.run(&GenericGGraph::closure(n), batch, armed, || {
            self.mapping.build_plan(n, batch.len())
        })
    }

    /// [`ClosureEngine::closure_many`] with an explicit pre-reseeded fault
    /// plan, bypassing this engine's own plan/nonce. Lets the degraded
    /// array wrapper reuse a persistent inner engine (and its caches) while
    /// reproducing its historical reseeding chain exactly.
    pub(crate) fn closure_many_with_plan<S: PathSemiring>(
        &self,
        mats: &[DenseMatrix<S>],
        armed: Option<FaultPlan>,
    ) -> Result<(Vec<DenseMatrix<S>>, RunStats), EngineError> {
        let (n, batch) = prepare_batch(mats)?;
        self.run_closure(n, &batch, armed)
    }
}

impl<M: GraphMapping> MappedEngine<M> {
    /// Runs one instance of `gg` on the runner `closure_many` uses, arming
    /// the engine's fault plan by the same rule, and returns the instance's
    /// reassembled `msize × msize` result.
    pub(crate) fn run_graph<S: Semiring>(
        &self,
        gg: &GenericGGraph,
        a: &DenseMatrix<S>,
    ) -> Result<(DenseMatrix<S>, RunStats), EngineError> {
        let armed = self.next_armed();
        let (mut out, stats) = self.run(gg, std::slice::from_ref(a), armed, || {
            self.mapping.graph_plan(gg, 1)
        })?;
        Ok((out.pop().expect("one instance in, one out"), stats))
    }
}

impl<M: Mapping, S: PathSemiring> ClosureEngine<S> for MappedEngine<M> {
    fn name(&self) -> &'static str {
        self.mapping.name()
    }

    fn cells(&self) -> usize {
        self.mapping.cells()
    }

    fn preferred_chunk(&self) -> usize {
        self.mapping.preferred_chunk()
    }

    fn closure_many(
        &self,
        mats: &[DenseMatrix<S>],
    ) -> Result<(Vec<DenseMatrix<S>>, RunStats), EngineError> {
        let (n, batch) = prepare_batch(mats)?;
        self.run_closure(n, &batch, self.next_armed())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::{
        elimination_input, level_durations, run_elimination, run_elimination_timed, Algo,
    };
    use crate::{GridEngine, LinearEngine};
    use std::sync::Arc;
    use systolic_semiring::Bool;

    /// Step `i` of the mixed sequence on `engine`: LU n = 6, Faddeev n = 3,
    /// a Boolean closure at n = 6, timed LU n = 6, then LU n = 6 twice (the
    /// last run reloads the simulator the one before it left). Returns the
    /// result's entries, spelled exactly, and the run's stats.
    fn step<M: GraphMapping>(engine: &MappedEngine<M>, i: usize) -> (String, RunStats) {
        let lu = elimination_input(6, 1);
        let entries =
            |(f, stats): (DenseMatrix<_>, RunStats)| (format!("{:?}", f.as_slice()), stats);
        match i {
            0 | 4 | 5 => entries(run_elimination(engine, Algo::Lu, &lu).unwrap()),
            1 => entries(run_elimination(engine, Algo::Faddeev, &elimination_input(6, 2)).unwrap()),
            2 => {
                let a = DenseMatrix::<Bool>::from_fn(6, 6, |i, j| (i * 5 + j * 3) % 7 == 1);
                let (c, stats) = ClosureEngine::<Bool>::closure(engine, &a).unwrap();
                (format!("{:?}", c.as_slice()), stats)
            }
            3 => {
                let durs = level_durations(Algo::Lu, 6);
                entries(run_elimination_timed(engine, Algo::Lu, &lu, &durs).unwrap())
            }
            _ => unreachable!("six steps"),
        }
    }

    /// One engine runs closure and elimination graphs back to back: every
    /// step equals the same call on a fresh engine, the plan cache keeps
    /// the four graphs apart, and the repeated LU runs reuse its plan.
    fn one_engine_many_graphs<M: GraphMapping>(engine: MappedEngine<M>) {
        let lu_plan = || {
            engine
                .plans
                .get_or_build(&Algo::Lu.graph(6), 1, || panic!("the LU plan is cached"))
        };
        let mut first = None;
        for i in 0..6 {
            let fresh = MappedEngine::from_mapping(engine.mapping().clone());
            assert_eq!(step(&engine, i), step(&fresh, i), "step {i}");
            if i == 0 {
                first = Some(lu_plan());
            }
        }
        assert!(Arc::ptr_eq(&first.unwrap(), &lu_plan()), "LU recompiled");
        assert_eq!(format!("{:?}", engine.plans), "PlanCache(4 plans)");
    }

    #[test]
    fn one_engine_runs_closure_and_elimination_graphs() {
        one_engine_many_graphs(LinearEngine::new(3));
        one_engine_many_graphs(GridEngine::new(2));
    }
}
