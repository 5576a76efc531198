//! Property-based checks of the compile-once plan cache: executing a batch
//! from a memoized `CompiledPlan` (on a recycled simulator) must be
//! bit-identical — results *and* every `RunStats` counter except wall time —
//! to rebuilding the schedule from scratch, across engines, semirings,
//! batch shapes, and fault-injection modes. Also pins the hash-free `Bank`
//! slot table, its ring FIFOs and its write-burst counter to a hash-map
//! reference model.

use std::collections::HashMap;
use std::collections::VecDeque;
use systolic::arraysim::{Bank, FaultPlan};
use systolic::partition::{ClosureEngine, GridEngine, LinearEngine};
use systolic_semiring::{warshall, Bool, DenseMatrix, MinPlus, PathSemiring};
use systolic_util::{Checker, Rng};

fn bool_batch(rng: &mut Rng, n: usize, len: usize) -> Vec<DenseMatrix<Bool>> {
    (0..len)
        .map(|_| DenseMatrix::from_fn(n, n, |_, _| rng.gen_bool(0.3)))
        .collect()
}

fn weight_batch(rng: &mut Rng, n: usize, len: usize) -> Vec<DenseMatrix<MinPlus>> {
    (0..len)
        .map(|_| {
            DenseMatrix::from_fn(n, n, |_, _| {
                if rng.gen_bool(0.5) {
                    u64::MAX
                } else {
                    rng.gen_range_u64(1, 50)
                }
            })
        })
        .collect()
}

/// Runs `batch` on one long-lived engine twice (first call compiles the
/// plan, second replays it from cache) and on a fresh engine (forced
/// rebuild); all three runs must agree exactly.
fn assert_cached_replay<S, E, F>(make: F, batch: &[DenseMatrix<S>], what: &str)
where
    S: PathSemiring,
    E: ClosureEngine<S>,
    F: Fn() -> E,
    DenseMatrix<S>: PartialEq + std::fmt::Debug,
{
    let warm = make();
    let (r0, s0) = warm.closure_many(batch).unwrap();
    let (r1, s1) = warm.closure_many(batch).unwrap();
    let (rf, sf) = make().closure_many(batch).unwrap();
    assert_eq!(r0, rf, "{what}: first (compiling) run diverged");
    assert_eq!(r1, rf, "{what}: cached replay changed the results");
    assert_eq!(s0, sf, "{what}: first (compiling) run changed the stats");
    assert_eq!(s1, sf, "{what}: cached replay changed the stats");
}

#[test]
fn cached_plans_replay_bit_identically() {
    Checker::new("cached plans replay bit-identically", 12).run(|rng| {
        let n = 2 + rng.gen_usize(8); // 2..=9
        let len = 1 + rng.gen_usize(3); // 1..=3
        let m = 2 + rng.gen_usize(3); // 2..=4
        let s = 1 + rng.gen_usize(2); // 1..=2
        let bools = bool_batch(rng, n, len);
        let weights = weight_batch(rng, n, len);
        for (r, a) in LinearEngine::new(m)
            .closure_many(&bools)
            .unwrap()
            .0
            .iter()
            .zip(&bools)
        {
            assert_eq!(*r, warshall(a), "linear engine vs Warshall");
        }
        assert_cached_replay(|| LinearEngine::new(m), &bools, "linear/Bool");
        assert_cached_replay(|| LinearEngine::new(m), &weights, "linear/MinPlus");
        assert_cached_replay(|| GridEngine::new(s), &bools, "grid/Bool");
        assert_cached_replay(|| GridEngine::new(s), &weights, "grid/MinPlus");
        Ok(())
    });
}

/// Fault sequences are keyed to a per-call nonce, so the cached-vs-fresh
/// comparison aligns nonces explicitly: engine A runs twice (nonce 0
/// compiles, nonce 1 replays from cache); engine B runs nonce 0, drops its
/// caches, and runs nonce 1 with a forced rebuild. Matching nonces must
/// produce identical results, stats, and fault logs.
#[test]
fn cached_plans_replay_bit_identically_under_fault_injection() {
    Checker::new("cached plans under fault injection", 10).run(|rng| {
        let n = 3 + rng.gen_usize(7); // 3..=9
        let m = 2 + rng.gen_usize(3); // 2..=4
        let len = 1 + rng.gen_usize(3); // 1..=3
        let batch = bool_batch(rng, n, len);
        let seed = rng.gen_range_u64(1, 1 << 40);
        let plan = FaultPlan::transients(seed, 5e-4);
        let flat = |r: Result<_, _>| r.map_err(|e: systolic::partition::EngineError| e.to_string());

        let cached = LinearEngine::new(m).with_fault_plan(plan.clone());
        let a0 = flat(cached.closure_many(&batch));
        let fa0 = cached.recent_fault_events();
        let a1 = flat(cached.closure_many(&batch));
        let fa1 = cached.recent_fault_events();

        let fresh = LinearEngine::new(m).with_fault_plan(plan);
        let b0 = flat(fresh.closure_many(&batch));
        let fb0 = fresh.recent_fault_events();
        fresh.clear_caches();
        let b1 = flat(fresh.closure_many(&batch));
        let fb1 = fresh.recent_fault_events();

        assert_eq!(a0, b0, "nonce 0: compiling runs must agree");
        assert_eq!(fa0, fb0, "nonce 0: fault logs must agree");
        assert_eq!(a1, b1, "nonce 1: cached replay vs forced rebuild");
        assert_eq!(fa1, fb1, "nonce 1: fault logs must agree");
        Ok(())
    });
}

/// Reference model of one bank stream: a hash map keyed by the original
/// (pre-interning) stream key, exactly what the simulator used before slots
/// were interned to dense indices.
type Model = HashMap<usize, VecDeque<(u64, u64)>>;

fn model_front(model: &Model, slot: usize, now: u64) -> bool {
    model
        .get(&slot)
        .and_then(VecDeque::front)
        .is_some_and(|(ready, _)| *ready <= now)
}

#[test]
fn bank_slot_table_matches_hash_map_model() {
    Checker::new("bank slot table matches hash-map model", 24).run(|rng| {
        let slots = 1 + rng.gen_usize(6); // 1..=6
                                          // Distinct, shuffled sort keys: interning order ≠ key order.
        let mut keys: Vec<u64> = (0..slots as u64).map(|k| k * 17 + 3).collect();
        for i in (1..keys.len()).rev() {
            keys.swap(i, rng.gen_usize(i + 1));
        }
        let mut bank = Bank::<u64>::with_slots(keys.clone());
        let mut model: Model = HashMap::new();
        // Writes per cycle: the bank's busiest cycle must match it.
        let mut writes_at: HashMap<u64, u64> = HashMap::new();
        let mut now = 0u64;
        let mut stamp = 0u64; // unique payloads so corruption targets are identifiable
        for _ in 0..200 {
            let slot = rng.gen_usize(slots);
            match rng.gen_usize(4) {
                0 => {
                    stamp += 1;
                    bank.write(slot, now, stamp);
                    model.entry(slot).or_default().push_back((now + 1, stamp));
                    *writes_at.entry(now).or_default() += 1;
                }
                1 => {
                    stamp += 1;
                    bank.preload(slot, stamp);
                    model.entry(slot).or_default().push_back((0, stamp));
                }
                2 => {
                    let want = if model_front(&model, slot, now) {
                        model.get_mut(&slot).unwrap().pop_front().map(|(_, v)| v)
                    } else {
                        None
                    };
                    assert_eq!(bank.read(slot, now), want, "read at cycle {now}");
                }
                _ => now += 1 + rng.gen_usize(3) as u64,
            }
            assert_eq!(
                bank.can_read(slot, now),
                model_front(&model, slot, now),
                "can_read at cycle {now}"
            );
            let resident: usize = model.values().map(VecDeque::len).sum();
            assert_eq!(bank.resident(), resident, "resident words");
            assert_eq!(
                bank.max_writes_per_cycle,
                writes_at.values().copied().max().unwrap_or(0),
                "busiest write cycle at cycle {now}"
            );
        }
        // Fault injection walks resident words in *sorted original-key*
        // order, so the victim is independent of slot-interning order —
        // predict it from the hash-map model.
        let resident: usize = model.values().map(VecDeque::len).sum();
        if resident > 0 {
            let nth = rng.gen_usize(2 * resident);
            let mut order: Vec<usize> = (0..slots).collect();
            order.sort_unstable_by_key(|&s| keys[s]);
            let mut idx = nth % resident;
            let mut want = None;
            for s in order {
                let fifo = model.get(&s).map(|f| f.len()).unwrap_or(0);
                if idx < fifo {
                    want = Some(model[&s][idx].1);
                    break;
                }
                idx -= fifo;
            }
            let mut got = None;
            assert!(bank.corrupt_resident(nth, |e| got = Some(*e)));
            assert_eq!(got, want, "corrupt_resident victim (nth = {nth})");
        } else {
            assert!(!bank.corrupt_resident(0, |_| ()));
        }
        Ok(())
    });
}
