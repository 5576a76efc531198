//! Lane-packed batch execution: one simulated run per group of instances.
//!
//! The linear array's schedule is a pure function of the problem shape
//! (that is why [`crate::plan::CompiledPlan`] exists), so over any
//! [`LaneSemiring`] the *data* of a whole group of same-`n` instances fits
//! in the lanes of one element word ([`systolic_semiring::lanes`],
//! [`systolic_semiring::swar`]). A `closure_many` batch need not chain its
//! instances through the array one scalar element per stream event:
//! [`PackedEngine`] cuts the batch, in batch order, into groups of at most
//! [`PackedPlane::GROUP`] instances, transposes each group into a single
//! lane matrix, runs the wrapped [`LinearEngine`]'s simulator **once** per
//! group against the cached single-instance plan, and transposes the result
//! back — the same simulated events now carry one result per lane.
//!
//! `PackedEngine` (no type argument) is the one Boolean packed engine. A
//! group takes up to 256 instances and runs on the narrowest lane word that
//! holds it: [`BoolLanes`] (64 lanes) up to 64 instances, `BoolLanes<2>` up
//! to 128 and `BoolLanes<4>` above that. The narrowest word matters for
//! small groups: one instance closes in less time on 64 lanes than on 256,
//! while a full 256-instance group costs one simulation instead of four
//! (DESIGN §16). `PackedEngine<MinPlusSwar8>`/`<MinPlusSwar16>` give
//! weighted (min-plus) batches the packed path with 8×u8 / 4×u16 saturating
//! tropical lanes, one word width each.
//!
//! Results are bit-identical to the scalar engine whenever
//! [`LaneSemiring::batch_exact`] holds (always for Boolean lanes; on the
//! value-bounded exact domain for SWAR min-plus — outside it the batch
//! transparently takes the wrapped engine's scalar path). Merged
//! [`RunStats`] keep the scalar per-instance contract: a group's stats are
//! [`RunStats::scaled`] by its lane count, which equals the instance-order
//! merge of the per-instance scalar runs — so packed, scalar and
//! thread-parallel batch stats all agree under `PartialEq`, whatever the
//! group sizes.
//!
//! **Faults.** A whole-element value corruption is meaningless across
//! superimposed instances (one flipped word would fault all lanes at once,
//! breaking per-instance blame and the replay contract), so an armed
//! [`FaultPlan`] *without* a target lane routes the batch to the wrapped
//! engine's scalar path unchanged — the scalar inject/verify/recover
//! semantics are untouched. A plan *with* [`FaultPlan::target_lane`] stays
//! packed, in groups of one plane word (64 instances on the Boolean plane):
//! the simulator corrupts only that lane (via `Semiring::corrupt_lane`), so
//! the blast radius is the single resident instance
//! `group_base + target_lane % LANE_COUNT`, and the engine records that
//! attribution in [`PackedEngine::take_lane_blame`] for campaign audits.
//! `RecoveringEngine` campaigns over a lane-targeted plan therefore never
//! leave the packed path (see DESIGN §16).
//!
//! [`FaultPlan`]: systolic_arraysim::FaultPlan
//! [`FaultPlan::target_lane`]: systolic_arraysim::FaultPlan::target_lane

use crate::engine::{validate_batch, ClosureEngine, EngineError};
use crate::linear::LinearEngine;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use systolic_arraysim::{FaultEvent, RunStats};
use systolic_semiring::{
    pack_into_lanes, unpack_from_lanes, Bool, BoolLanes, DenseMatrix, LaneSemiring, MinPlusSwar16,
    MinPlusSwar8, Semiring,
};

/// Closed matrices of a group or a batch, in order, with their merged
/// stats.
type Closed<S> = (Vec<DenseMatrix<S>>, RunStats);

/// A packed batch's closed matrices in batch order, its merged stats, and
/// the number of simulations that produced them.
pub type Counted<S> = (Vec<DenseMatrix<S>>, RunStats, usize);

/// A lane plane [`PackedEngine`] runs: its engine name, the most instances
/// one simulation carries, and how one group is packed, run and unpacked.
///
/// The planes are [`BoolLanes`] (the Boolean engine, whose groups pick
/// their lane word), [`MinPlusSwar8`] and [`MinPlusSwar16`].
pub trait PackedPlane: LaneSemiring {
    /// Engine name the packed engine reports over this plane.
    const ENGINE_NAME: &'static str;

    /// Most instances one simulation of a clean batch carries; a plane
    /// whose `GROUP` exceeds its `LANE_COUNT` overrides
    /// [`PackedPlane::run_group`] to pick a wider word.
    const GROUP: usize = Self::LANE_COUNT;

    /// Closes `group` (`1..=GROUP` instances) in one simulation on `inner`.
    ///
    /// # Errors
    /// The wrapped engine's error for the group's run.
    fn run_group(
        inner: &LinearEngine,
        group: &[DenseMatrix<Self::Scalar>],
    ) -> Result<Closed<Self::Scalar>, EngineError> {
        run_on::<Self>(inner, group)
    }
}

/// The Boolean plane: groups of up to 256 instances, each on the narrowest
/// lane word that holds it.
impl PackedPlane for BoolLanes {
    const ENGINE_NAME: &'static str = "linear-packed";
    const GROUP: usize = <BoolLanes<4> as Semiring>::LANE_COUNT;

    fn run_group(
        inner: &LinearEngine,
        group: &[DenseMatrix<Bool>],
    ) -> Result<Closed<Bool>, EngineError> {
        if group.len() <= <BoolLanes<1> as Semiring>::LANE_COUNT {
            run_on::<BoolLanes<1>>(inner, group)
        } else if group.len() <= <BoolLanes<2> as Semiring>::LANE_COUNT {
            run_on::<BoolLanes<2>>(inner, group)
        } else {
            run_on::<BoolLanes<4>>(inner, group)
        }
    }
}

impl PackedPlane for MinPlusSwar8 {
    const ENGINE_NAME: &'static str = "linear-packed-minplus8";
}

impl PackedPlane for MinPlusSwar16 {
    const ENGINE_NAME: &'static str = "linear-packed-minplus16";
}

/// One simulation on lane word `L`: packs `group`, closes the lane matrix
/// on the wrapped engine's cached single-instance plan, and unpacks.
fn run_on<L: LaneSemiring>(
    inner: &LinearEngine,
    group: &[DenseMatrix<L::Scalar>],
) -> Result<Closed<L::Scalar>, EngineError> {
    let packed = pack_into_lanes::<L>(group);
    let (closed, stats) = ClosureEngine::<L>::closure(inner, &packed)?;
    Ok((unpack_from_lanes::<L>(&closed, group.len()), stats))
}

/// Lane-packed executor over a [`LinearEngine`], generic in the lane
/// plane. The default type parameter is the Boolean engine.
///
/// ```
/// use systolic_partition::{ClosureEngine, PackedEngine};
/// use systolic_semiring::{warshall, Bool, DenseMatrix};
///
/// let mut a = DenseMatrix::<Bool>::zeros(5, 5);
/// a.set(0, 3, true);
/// a.set(3, 1, true);
/// let batch = vec![a.clone(); 300]; // a 256-lane group and a 64-lane one
/// let eng = PackedEngine::new(4);
/// let (closed, _stats, simulations) = eng.closure_many_counted(&batch).unwrap();
/// assert_eq!(closed[299], warshall(&a));
/// assert_eq!(simulations, 2);
/// ```
///
/// The weighted planes are explicit instantiations:
///
/// ```
/// use systolic_partition::{ClosureEngine, PackedEngine};
/// use systolic_semiring::instances::INF;
/// use systolic_semiring::{DenseMatrix, MinPlus, MinPlusSwar8};
///
/// let mut d = DenseMatrix::<MinPlus>::from_fn(4, 4, |i, j| if i == j { 0 } else { INF });
/// d.set(0, 2, 7);
/// let weighted = PackedEngine::<MinPlusSwar8>::over(2); // 8 tropical lanes
/// let (c, _) = weighted.closure_many(&[d]).unwrap();
/// assert_eq!(*c[0].get(0, 2), 7);
/// ```
#[derive(Debug)]
pub struct PackedEngine<L: PackedPlane = BoolLanes> {
    inner: LinearEngine,
    /// Per-instance blame from the last packed armed run: for every
    /// value-corrupting fault event, the batch index of the one instance
    /// the lane mask confined it to.
    lane_blame: Mutex<Vec<(usize, FaultEvent)>>,
    /// Batches executed on the packed path.
    packed_runs: AtomicU64,
    /// Batches routed to the wrapped engine's scalar path (untargeted
    /// armed plan, or outside the lane plane's exact domain).
    fallback_runs: AtomicU64,
    _lane: PhantomData<L>,
}

impl<L: PackedPlane> Clone for PackedEngine<L> {
    fn clone(&self) -> Self {
        // Run diagnostics (blame, path counters) describe *this* engine's
        // history; a clone starts with a clean slate, like the caches.
        Self::wrapping(self.inner.clone())
    }
}

impl PackedEngine {
    /// Creates the Boolean packed engine over a fresh `m`-cell
    /// [`LinearEngine`].
    pub fn new(m: usize) -> Self {
        Self::from_engine(LinearEngine::new(m))
    }

    /// Wraps an existing engine (keeping its plan cache, link delays and
    /// any armed fault plan) in the Boolean packed engine.
    pub fn from_engine(inner: LinearEngine) -> Self {
        Self::wrapping(inner)
    }
}

impl<L: PackedPlane> PackedEngine<L> {
    /// Creates a packed engine in lane plane `L` over a fresh `m`-cell
    /// [`LinearEngine`] (e.g. `PackedEngine::<MinPlusSwar8>::over(4)`).
    pub fn over(m: usize) -> Self {
        Self::wrapping(LinearEngine::new(m))
    }

    /// Wraps an existing engine in lane plane `L`, keeping its plan
    /// cache, link delays and any armed fault plan.
    pub fn wrapping(inner: LinearEngine) -> Self {
        Self {
            inner,
            lane_blame: Mutex::new(Vec::new()),
            packed_runs: AtomicU64::new(0),
            fallback_runs: AtomicU64::new(0),
            _lane: PhantomData,
        }
    }

    /// The wrapped scalar engine.
    pub fn inner(&self) -> &LinearEngine {
        &self.inner
    }

    /// Drops the wrapped engine's memoized plans and cached simulators.
    pub fn clear_caches(&self) {
        self.inner.clear_caches();
    }

    /// True when the single-instance plan a packed lane group of size `n`
    /// runs on is already compiled — the next such group is warm.
    pub fn has_plan(&self, n: usize) -> bool {
        self.inner.has_plan(n, 1)
    }

    /// Takes the per-instance fault attributions of the last armed packed
    /// batch: `(batch_index, event)` for every value-corrupting fault,
    /// where `batch_index` is the one instance the plan's target lane
    /// confined the corruption to. Empty for clean runs, scalar-fallback
    /// runs, and faults that landed in an unoccupied lane.
    pub fn take_lane_blame(&self) -> Vec<(usize, FaultEvent)> {
        std::mem::take(&mut self.lane_blame.lock().expect("blame lock poisoned"))
    }

    /// Number of batches this engine executed on the packed path.
    pub fn packed_runs(&self) -> u64 {
        self.packed_runs.load(Ordering::Relaxed)
    }

    /// Number of batches this engine routed to the scalar path.
    pub fn fallback_runs(&self) -> u64 {
        self.fallback_runs.load(Ordering::Relaxed)
    }

    /// Most instances one simulation of the next batch carries:
    /// [`PackedPlane::GROUP`], or one plane word (`L::LANE_COUNT`) under a
    /// lane-targeted fault plan, whose mask names lane
    /// `target_lane % LANE_COUNT` of every group.
    fn group_cap(&self) -> usize {
        match self.inner.fault_plan() {
            Some(p) if p.target_lane.is_some() => L::LANE_COUNT,
            _ => L::GROUP,
        }
    }

    /// [`ClosureEngine::closure_many`], also returning the number of
    /// simulations the packed path ran: one per group of at most
    /// [`PackedPlane::GROUP`] instances (one plane word under a
    /// lane-targeted fault plan), 0 when the batch took the scalar path.
    ///
    /// # Errors
    /// As [`ClosureEngine::closure_many`].
    pub fn closure_many_counted(
        &self,
        mats: &[DenseMatrix<L::Scalar>],
    ) -> Result<Counted<L::Scalar>, EngineError> {
        let armed_lane = self.inner.fault_plan().and_then(|p| p.target_lane);
        let untargeted_plan = self.inner.fault_plan().is_some() && armed_lane.is_none();
        if untargeted_plan || !L::batch_exact(mats) {
            // Scalar fallback: whole-element value faults don't compose
            // across lanes, and out-of-domain values don't fit them.
            self.fallback_runs.fetch_add(1, Ordering::Relaxed);
            let (results, stats) = self.inner.closure_many(mats)?;
            return Ok((results, stats, 0));
        }
        validate_batch(mats)?;
        self.packed_runs.fetch_add(1, Ordering::Relaxed);
        self.lane_blame.lock().expect("blame lock poisoned").clear();
        let cap = self.group_cap();
        let started = std::time::Instant::now();
        let mut results = Vec::with_capacity(mats.len());
        let mut merged: Option<RunStats> = None;
        let mut simulations = 0;
        for (gi, group) in mats.chunks(cap).enumerate() {
            let base = gi * cap;
            let run = L::run_group(&self.inner, group);
            simulations += 1;
            if let Some(target) = armed_lane {
                // The lane mask confines every value fault of this group's
                // run to one batch instance; record the attribution (runs
                // that error still log their faults before failing).
                let instance = base + target % L::LANE_COUNT;
                if instance < mats.len() {
                    let mut blame = self.lane_blame.lock().expect("blame lock poisoned");
                    blame.extend(
                        self.inner
                            .recent_fault_events()
                            .into_iter()
                            .filter(|e| e.kind.is_value_corrupting())
                            .map(|e| (instance, e)),
                    );
                }
            }
            let (closed, stats) = run.map_err(|e| {
                match e {
                    // A packed structural corruption has no single lane;
                    // charge the group's first instance.
                    EngineError::Corrupt { detail, .. } => EngineError::Corrupt {
                        instance: base,
                        detail: format!("lane group of {}: {detail}", group.len()),
                    },
                    other => other,
                }
            })?;
            results.extend(closed);
            let stats = stats.scaled(group.len() as u64);
            match &mut merged {
                None => merged = Some(stats),
                Some(acc) => acc.merge(&stats),
            }
        }
        let mut merged = merged.expect("validated batch is non-empty");
        merged.wall_nanos = started.elapsed().as_nanos() as u64;
        Ok((results, merged, simulations))
    }
}

impl<L: PackedPlane> ClosureEngine<L::Scalar> for PackedEngine<L> {
    fn name(&self) -> &'static str {
        L::ENGINE_NAME
    }

    fn cells(&self) -> usize {
        ClosureEngine::<L::Scalar>::cells(&self.inner)
    }

    /// One whole simulation: [`PackedPlane::GROUP`] instances, or one
    /// plane word under a lane-targeted fault plan.
    fn preferred_chunk(&self) -> usize {
        self.group_cap()
    }

    fn closure_many(
        &self,
        mats: &[DenseMatrix<L::Scalar>],
    ) -> Result<Closed<L::Scalar>, EngineError> {
        let (results, stats, _) = self.closure_many_counted(mats)?;
        Ok((results, stats))
    }
}

impl<L: PackedPlane> crate::recover::FaultAware<L::Scalar> for PackedEngine<L> {
    fn recent_faults(&self) -> Vec<FaultEvent> {
        // Both paths run on the wrapped engine, which records the events
        // of the most recent batch whether it was packed or scalar.
        self.inner.recent_fault_events()
    }

    fn blame_cell(&self, event: &FaultEvent) -> Option<usize> {
        crate::recover::FaultAware::<L::Scalar>::blame_cell(&self.inner, event)
    }

    fn bypass_plan(&self, faulty: &[usize]) -> Option<crate::fault::FaultyLinearEngine> {
        crate::recover::FaultAware::<L::Scalar>::bypass_plan(&self.inner, faulty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use systolic_arraysim::FaultPlan;
    use systolic_semiring::instances::INF;
    use systolic_semiring::{warshall, Bool, MinPlus, MinPlusSwar8};
    use systolic_util::Rng;

    fn random_bool(n: usize, rng: &mut Rng) -> DenseMatrix<Bool> {
        DenseMatrix::from_fn(n, n, |i, j| i != j && rng.gen_bool(0.25))
    }

    fn random_minplus(n: usize, rng: &mut Rng) -> DenseMatrix<MinPlus> {
        DenseMatrix::from_fn(n, n, |i, j| {
            if i == j {
                0
            } else if rng.gen_bool(0.4) {
                rng.gen_usize(12) as u64 + 1
            } else {
                INF
            }
        })
    }

    #[test]
    fn packed_equals_scalar_and_warshall() {
        let mut rng = Rng::seed_from_u64(9);
        let batch: Vec<_> = (0..67).map(|_| random_bool(6, &mut rng)).collect();
        let eng = PackedEngine::new(3);
        let scalar = LinearEngine::new(3);
        let (got, _, simulations) = eng.closure_many_counted(&batch).unwrap();
        assert_eq!(simulations, 1, "67 instances fit one 128-lane word");
        assert_eq!(got.len(), batch.len());
        for (a, c) in batch.iter().zip(&got) {
            assert_eq!(*c, warshall(a));
            assert_eq!(*c, scalar.closure(a).unwrap().0);
        }
        assert_eq!((eng.packed_runs(), eng.fallback_runs()), (1, 0));
    }

    #[test]
    fn wide_planes_equal_scalar_across_group_boundaries() {
        let mut rng = Rng::seed_from_u64(10);
        let batch: Vec<_> = (0..300).map(|_| random_bool(5, &mut rng)).collect();
        let eng = PackedEngine::new(3);
        // 130 instances run on the 256-lane word, 300 as 256 + 44 lanes.
        for (len, simulations) in [(130, 1), (300, 2)] {
            let (got, _, ran) = eng.closure_many_counted(&batch[..len]).unwrap();
            assert_eq!(ran, simulations, "len={len}");
            for (a, c) in batch.iter().zip(&got) {
                assert_eq!(*c, warshall(a));
            }
        }
        assert_eq!(
            ClosureEngine::<Bool>::preferred_chunk(&eng),
            256,
            "the Boolean engine advertises one 256-instance simulation"
        );
    }

    #[test]
    fn minplus_packed_equals_scalar_and_falls_back_out_of_domain() {
        let mut rng = Rng::seed_from_u64(11);
        let batch: Vec<_> = (0..9).map(|_| random_minplus(6, &mut rng)).collect();
        let eng = PackedEngine::<MinPlusSwar8>::over(3);
        let scalar = LinearEngine::new(3);
        let (got, _) = eng.closure_many(&batch).unwrap();
        for (a, c) in batch.iter().zip(&got) {
            assert_eq!(*c, warshall(a));
            assert_eq!(*c, ClosureEngine::<MinPlus>::closure(&scalar, a).unwrap().0);
        }
        assert_eq!((eng.packed_runs(), eng.fallback_runs()), (1, 0));
        assert_eq!(ClosureEngine::<MinPlus>::preferred_chunk(&eng), 8);
        // Heavy weights leave the u8 lanes' exact domain: scalar fallback,
        // same results.
        let heavy: Vec<_> = (0..3)
            .map(|_| {
                DenseMatrix::<MinPlus>::from_fn(5, 5, |i, j| {
                    if i == j {
                        0
                    } else {
                        200 + rng.gen_usize(100) as u64
                    }
                })
            })
            .collect();
        let (got, _) = eng.closure_many(&heavy).unwrap();
        for (a, c) in heavy.iter().zip(&got) {
            assert_eq!(*c, warshall(a));
        }
        assert_eq!((eng.packed_runs(), eng.fallback_runs()), (1, 1));
    }

    #[test]
    fn merged_stats_keep_the_per_instance_contract() {
        let mut rng = Rng::seed_from_u64(15);
        let batch: Vec<_> = (0..5).map(|_| random_bool(5, &mut rng)).collect();
        let scalar = LinearEngine::new(2);
        let mut expect: Option<RunStats> = None;
        for a in &batch {
            let (_, s) = scalar.closure(a).unwrap();
            match &mut expect {
                None => expect = Some(s),
                Some(acc) => acc.merge(&s),
            }
        }
        let eng = PackedEngine::new(2);
        let (_, got) = eng.closure_many(&batch).unwrap();
        assert_eq!(got, expect.unwrap());
    }

    #[test]
    fn armed_fault_plan_takes_the_scalar_path() {
        let plan = FaultPlan::transients(77, 1e-3);
        let mut rng = Rng::seed_from_u64(21);
        let batch: Vec<_> = (0..3).map(|_| random_bool(5, &mut rng)).collect();
        let packed = PackedEngine::from_engine(LinearEngine::new(2).with_fault_plan(plan.clone()));
        let scalar = LinearEngine::new(2).with_fault_plan(plan);
        // Same plan, same nonce sequence: byte-identical behavior, faults
        // included — the packed wrapper is invisible under armed faults.
        let p = packed.closure_many(&batch);
        let s = ClosureEngine::<Bool>::closure_many(&scalar, &batch);
        assert_eq!(p, s);
        assert_eq!(
            crate::recover::FaultAware::<Bool>::recent_faults(&packed),
            scalar.recent_fault_events()
        );
        assert_eq!((packed.packed_runs(), packed.fallback_runs()), (0, 1));
    }

    #[test]
    fn lane_targeted_plan_stays_packed_and_blames_one_instance() {
        let mut rng = Rng::seed_from_u64(33);
        let batch: Vec<_> = (0..80).map(|_| random_bool(6, &mut rng)).collect();
        let target = 5usize;
        // Value faults only: structural drop/dup faults tear the shared
        // stream for the whole group, which is not what this test pins.
        let plan = FaultPlan {
            emit_corrupt: 8e-3,
            bank_flip: 8e-3,
            ..FaultPlan::none(0xFA11)
        }
        .with_target_lane(target);
        let eng = PackedEngine::from_engine(LinearEngine::new(2).with_fault_plan(plan));
        assert_eq!(ClosureEngine::<Bool>::preferred_chunk(&eng), 64);
        let (got, stats, simulations) = eng.closure_many_counted(&batch).unwrap();
        assert_eq!(
            (eng.packed_runs(), eng.fallback_runs()),
            (1, 0),
            "targeted plan must not force the scalar path"
        );
        assert_eq!(simulations, 2, "a targeted batch keeps 64-lane groups");
        assert!(
            stats.fault.injected > 0,
            "the pinned seed injects at least one fault"
        );
        // Only instances ≡ target (mod 64) may differ from the reference;
        // every other lane is untouched by construction.
        let mut mismatched = Vec::new();
        for (i, (a, c)) in batch.iter().zip(&got).enumerate() {
            if *c != warshall(a) {
                mismatched.push(i);
            }
        }
        for i in &mismatched {
            assert_eq!(i % 64, target, "corruption leaked out of the target lane");
        }
        // Every blame record points at a target-lane instance.
        let blame = eng.take_lane_blame();
        for (inst, ev) in &blame {
            assert_eq!(inst % 64, target);
            assert!(ev.kind.is_value_corrupting());
        }
        // Any actual mismatch must be explained by a recorded blame.
        for i in &mismatched {
            assert!(
                blame.iter().any(|(inst, _)| inst == i),
                "mismatched instance {i} has no blame record"
            );
        }
    }

    #[test]
    fn recovering_campaign_stays_packed_under_a_targeted_plan() {
        let mut rng = Rng::seed_from_u64(44);
        let batch: Vec<_> = (0..6).map(|_| random_bool(6, &mut rng)).collect();
        // Target lane 0: the campaign's per-instance retries run groups of
        // one, whose single occupied lane is lane 0.
        let plan = FaultPlan {
            emit_corrupt: 3e-2,
            ..FaultPlan::none(0xBEEF)
        }
        .with_target_lane(0);
        let packed = PackedEngine::from_engine(LinearEngine::new(2).with_fault_plan(plan));
        let eng = crate::recover::RecoveringEngine::new(packed);
        let (got, stats) = ClosureEngine::<Bool>::closure_many(&eng, &batch).unwrap();
        for (a, c) in batch.iter().zip(&got) {
            assert_eq!(*c, warshall(a), "recovered outputs are verified-correct");
        }
        assert!(
            stats.fault.retries > 0,
            "the pinned seed forces at least one verifier rejection"
        );
        let inner = eng.inner();
        assert!(inner.packed_runs() > 0);
        assert_eq!(
            inner.fallback_runs(),
            0,
            "a lane-targeted campaign never leaves the packed path"
        );
    }

    #[test]
    fn rejects_bad_batches_like_the_scalar_engine() {
        let eng = PackedEngine::new(2);
        let empty: Vec<DenseMatrix<Bool>> = vec![];
        assert!(matches!(
            eng.closure_many(&empty),
            Err(EngineError::BadInput(_))
        ));
        let mixed = vec![
            DenseMatrix::<Bool>::zeros(3, 3),
            DenseMatrix::<Bool>::zeros(4, 4),
        ];
        assert!(matches!(
            eng.closure_many(&mixed),
            Err(EngineError::BadInput(_))
        ));
    }
}
