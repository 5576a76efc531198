//! The mapping layer: pluggable G-set-to-array mappings behind one
//! generic executor.
//!
//! The paper's contribution is a *family* of mappings from the skewed
//! G-graph onto fixed-size arrays — cut-and-pile (LPGS) onto a chain or a
//! grid, the fixed-size arrays of §3.2, coalescing (LSGP, §2). What a
//! mapping actually decides is small: how many cells, which cell runs
//! which G-node, and how the pivot/column streams travel between them.
//! Everything else — batch validation, plan memoization, simulator
//! recycling, fault-plan arming, trace capture, output-column reassembly —
//! is identical machinery.
//!
//! [`Mapping`] captures exactly the per-mapping decisions: a name, the
//! cell count, and the [`CompiledPlan`] for a problem shape. Each
//! mapping's plan is a G-set assignment — its schedule with every G-node
//! placed on a cell, its links and its boundary banks — handed to the one
//! plan compiler (`compile`), which derives every stream from it.
//! [`MappedEngine`] owns the shared machinery exactly once. The concrete
//! engines ([`crate::LinearEngine`], [`crate::FixedArrayEngine`],
//! [`crate::FixedLinearEngine`], [`crate::GridEngine`],
//! [`crate::LsgpEngine`]) are type aliases `MappedEngine<SomeMapping>`
//! plus inherent constructors — their run-time behavior is byte-identical
//! to the pre-refactor engines because the executor below *is* the old
//! `LinearEngine` run path, verbatim.

use crate::engine::{prepare_batch, ClosureEngine, EngineError};
use crate::plan::{CompiledPlan, PlanCache, SimSlot};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use systolic_arraysim::{ArraySim, FaultEvent, FaultPlan, RunStats};
use systolic_semiring::{DenseMatrix, PathSemiring};

/// How G-sets land on cells: the per-mapping third of an engine.
///
/// A mapping is pure geometry/schedule — it never touches matrix values,
/// so one implementation serves every semiring, and the compiled plan it
/// returns may be memoized per `(n, batch_len)` shape and shared across
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

/// The one generic executor: runs any [`Mapping`]'s compiled plans on the
/// cycle-level simulator with plan memoization, simulator recycling,
/// fault-plan arming and trace capture.
#[derive(Debug)]
pub struct MappedEngine<M: Mapping> {
    mapping: M,
    trace: bool,
    /// Transient-fault plan armed on every run (None = clean array).
    plan: Option<FaultPlan>,
    /// Per-run reseed nonce: consecutive `closure_many` calls on the same
    /// engine see decorrelated fault sequences (a retry must not replay the
    /// identical fault), while a fresh engine with the same plan reproduces
    /// the same sequence of sequences.
    nonce: AtomicU64,
    /// Faults applied during the most recent run (success or failure).
    last_faults: Mutex<Vec<FaultEvent>>,
    /// Compiled schedules per `(n, batch_len)`, shared across clones.
    plans: PlanCache,
    /// Reusable simulator from the previous run (per engine value).
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

    /// Drops the memoized plans and the cached simulator, forcing the next
    /// call to compile from scratch (the fault-nonce sequence continues
    /// unchanged). Mainly for cache-vs-fresh equivalence tests.
    pub fn clear_caches(&self) {
        self.plans.clear();
        self.sims.clear();
    }

    /// True when a plan for the `(n, batch_len)` shape is already compiled
    /// — the next same-shape run is *warm* (no schedule rebuild). The
    /// admission batcher uses this to prove a settled server never
    /// recompiles.
    pub fn has_plan(&self, n: usize, batch_len: usize) -> bool {
        self.plans.contains(n, batch_len)
    }

    /// Runs a prepared (reflexive) batch through the cached plan/simulator,
    /// arming `armed` verbatim when given. The fault log is recorded into
    /// `last_faults` iff a plan was armed.
    fn run_batch<S: PathSemiring>(
        &self,
        n: usize,
        batch: &[DenseMatrix<S>],
        armed: Option<FaultPlan>,
    ) -> Result<(Vec<DenseMatrix<S>>, RunStats), EngineError> {
        self.mapping.validate()?;
        let plan = self
            .plans
            .get_or_build(n, batch.len(), || self.mapping.build_plan(n, batch.len()));
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
        let outs = sim.outputs();
        let out0 = 0;
        let mut results = Vec::with_capacity(batch.len());
        for inst in 0..batch.len() {
            let mut r = DenseMatrix::<S>::zeros(n, n);
            for j in 0..n {
                let col = &outs[out0 + inst * n + j];
                if col.len() != n {
                    // A dropped/duplicated stream word that still drained:
                    // structurally corrupt output, not a simulator bug.
                    return Err(EngineError::Corrupt {
                        instance: inst,
                        detail: format!("output column {j} has {} of {n} words", col.len()),
                    });
                }
                r.set_col(j, col);
            }
            results.push(r);
        }
        self.sims.store(plan, sim);
        Ok((results, stats))
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
        self.run_batch(n, &batch, armed)
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
        let armed = self
            .plan
            .as_ref()
            .map(|p| p.reseeded(self.nonce.fetch_add(1, Ordering::Relaxed)));
        self.run_batch(n, &batch, armed)
    }
}
