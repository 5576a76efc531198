//! Lane-packed batch execution: up to `LANE_COUNT` instances per run.
//!
//! The linear array's schedule is a pure function of the problem shape
//! (that is why [`crate::plan::CompiledPlan`] exists), so over any
//! [`LaneSemiring`] the *data* of a whole group of same-`n` instances fits
//! in the lanes of one element word ([`systolic_semiring::lanes`],
//! [`systolic_semiring::swar`]). A `closure_many` batch need not chain its
//! instances through the array one scalar element per stream event:
//! [`PackedEngine`] transposes each group of `≤ LANE_COUNT` instances into
//! a single lane matrix, runs the wrapped [`LinearEngine`]'s simulator
//! **once** per group against the cached single-instance plan, and transposes the result back — the same
//! simulated events now carry one result per lane.
//!
//! `PackedEngine` (no type argument) is the original 64-lane Boolean
//! plane; `PackedEngine<BoolLanes<2>>`/`<BoolLanes<4>>` run 128/256
//! Boolean lanes, and `PackedEngine<MinPlusSwar8>`/`<MinPlusSwar16>` give
//! weighted (min-plus) batches the packed path with 8×u8 / 4×u16
//! saturating tropical lanes.
//!
//! Results are bit-identical to the scalar engine whenever
//! [`LaneSemiring::batch_exact`] holds (always for Boolean lanes; on the
//! value-bounded exact domain for SWAR min-plus — outside it the batch
//! transparently takes the wrapped engine's scalar path). Merged
//! [`RunStats`] keep the scalar per-instance contract: a group's stats are
//! [`RunStats::scaled`] by its lane count, which equals the instance-order
//! merge of the per-instance scalar runs — so packed, scalar and
//! thread-parallel batch stats all agree under `PartialEq`.
//!
//! **Faults.** A whole-element value corruption is meaningless across
//! superimposed instances (one flipped word would fault all lanes at once,
//! breaking per-instance blame and the replay contract), so an armed
//! [`FaultPlan`] *without* a target lane routes the batch to the wrapped
//! engine's scalar path unchanged — PR 2's inject/verify/recover semantics
//! are untouched. A plan *with* [`FaultPlan::target_lane`] stays packed:
//! the simulator corrupts only that lane (via `Semiring::corrupt_lane`),
//! so the blast radius is the single resident instance
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
use systolic_semiring::{pack_into_lanes, unpack_from_lanes, BoolLanes, DenseMatrix, LaneSemiring};

/// Lane-packed executor over a [`LinearEngine`], generic in the lane
/// semiring. The default type parameter is the 64-lane Boolean plane.
///
/// ```
/// use systolic_partition::{ClosureEngine, PackedEngine};
/// use systolic_semiring::{warshall, Bool, DenseMatrix};
///
/// let mut a = DenseMatrix::<Bool>::zeros(5, 5);
/// a.set(0, 3, true);
/// a.set(3, 1, true);
/// let batch = vec![a.clone(); 70]; // two lane groups
/// let eng = PackedEngine::new(4);
/// let (closed, _stats) = eng.closure_many(&batch).unwrap();
/// assert_eq!(closed[69], warshall(&a));
/// ```
///
/// Wider Boolean planes and the weighted plane are explicit
/// instantiations:
///
/// ```
/// use systolic_partition::{ClosureEngine, PackedEngine};
/// use systolic_semiring::instances::INF;
/// use systolic_semiring::{BoolLanes, DenseMatrix, MinPlus, MinPlusSwar8};
///
/// let wide = PackedEngine::<BoolLanes<4>>::over(4); // 256 Boolean lanes
/// assert_eq!(ClosureEngine::cells(&wide), 4);
/// let mut d = DenseMatrix::<MinPlus>::from_fn(4, 4, |i, j| if i == j { 0 } else { INF });
/// d.set(0, 2, 7);
/// let weighted = PackedEngine::<MinPlusSwar8>::over(2); // 8 tropical lanes
/// let (c, _) = weighted.closure_many(&[d]).unwrap();
/// assert_eq!(*c[0].get(0, 2), 7);
/// ```
#[derive(Debug)]
pub struct PackedEngine<L: LaneSemiring = BoolLanes> {
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

impl<L: LaneSemiring> Clone for PackedEngine<L> {
    fn clone(&self) -> Self {
        // Run diagnostics (blame, path counters) describe *this* engine's
        // history; a clone starts with a clean slate, like the caches.
        Self::wrapping(self.inner.clone())
    }
}

impl PackedEngine {
    /// Creates a 64-lane Boolean packed engine over a fresh `m`-cell
    /// [`LinearEngine`].
    pub fn new(m: usize) -> Self {
        Self::from_engine(LinearEngine::new(m))
    }

    /// Wraps an existing engine (keeping its plan cache, link delays and
    /// any armed fault plan) in the 64-lane Boolean plane.
    pub fn from_engine(inner: LinearEngine) -> Self {
        Self::wrapping(inner)
    }
}

impl<L: LaneSemiring> PackedEngine<L> {
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
}

impl<L: LaneSemiring> ClosureEngine<L::Scalar> for PackedEngine<L> {
    fn name(&self) -> &'static str {
        L::ENGINE_NAME
    }

    fn cells(&self) -> usize {
        ClosureEngine::<L::Scalar>::cells(&self.inner)
    }

    fn preferred_chunk(&self) -> usize {
        L::LANE_COUNT
    }

    fn closure_many(
        &self,
        mats: &[DenseMatrix<L::Scalar>],
    ) -> Result<(Vec<DenseMatrix<L::Scalar>>, RunStats), EngineError> {
        let armed_lane = self.inner.fault_plan().and_then(|p| p.target_lane);
        let untargeted_plan = self.inner.fault_plan().is_some() && armed_lane.is_none();
        if untargeted_plan || !L::batch_exact(mats) {
            // Scalar fallback: whole-element value faults don't compose
            // across lanes, and out-of-domain values don't fit them.
            self.fallback_runs.fetch_add(1, Ordering::Relaxed);
            return self.inner.closure_many(mats);
        }
        validate_batch(mats)?;
        self.packed_runs.fetch_add(1, Ordering::Relaxed);
        self.lane_blame.lock().expect("blame lock poisoned").clear();
        let lanes = L::LANE_COUNT;
        let started = std::time::Instant::now();
        let mut results = Vec::with_capacity(mats.len());
        let mut merged: Option<RunStats> = None;
        for (gi, group) in mats.chunks(lanes).enumerate() {
            let packed = pack_into_lanes::<L>(group);
            let run = ClosureEngine::<L>::closure(&self.inner, &packed);
            if let Some(target) = armed_lane {
                // The lane mask confines every value fault of this group's
                // run to one batch instance; record the attribution (runs
                // that error still log their faults before failing).
                let instance = gi * lanes + target % lanes;
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
                        instance: gi * lanes,
                        detail: format!("lane group of {}: {detail}", group.len()),
                    },
                    other => other,
                }
            })?;
            results.extend(unpack_from_lanes::<L>(&closed, group.len()));
            let stats = stats.scaled(group.len() as u64);
            match &mut merged {
                None => merged = Some(stats),
                Some(acc) => acc.merge(&stats),
            }
        }
        let mut merged = merged.expect("validated batch is non-empty");
        merged.wall_nanos = started.elapsed().as_nanos() as u64;
        Ok((results, merged))
    }
}

impl<L: LaneSemiring> crate::recover::FaultAware<L::Scalar> for PackedEngine<L> {
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
        let (got, _) = eng.closure_many(&batch).unwrap();
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
        let batch: Vec<_> = (0..130).map(|_| random_bool(5, &mut rng)).collect();
        let w2 = PackedEngine::<BoolLanes<2>>::over(3);
        let w4 = PackedEngine::<BoolLanes<4>>::over(3);
        let (got2, _) = w2.closure_many(&batch).unwrap();
        let (got4, _) = w4.closure_many(&batch).unwrap();
        for ((a, c2), c4) in batch.iter().zip(&got2).zip(&got4) {
            let expect = warshall(a);
            assert_eq!(*c2, expect);
            assert_eq!(*c4, expect);
        }
        assert_eq!(
            ClosureEngine::<Bool>::preferred_chunk(&w2),
            128,
            "W-word planes advertise their W·64 chunk"
        );
        assert_eq!(ClosureEngine::<Bool>::preferred_chunk(&w4), 256);
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
        let (got, stats) = eng.closure_many(&batch).unwrap();
        assert_eq!(
            (eng.packed_runs(), eng.fallback_runs()),
            (1, 0),
            "targeted plan must not force the scalar path"
        );
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
