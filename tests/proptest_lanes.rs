//! Property-based equivalence of the one Boolean packed engine and its
//! lane words.
//!
//! `PackedEngine` runs a clean Boolean batch as one simulation per 256
//! instances, in batch order, each group on the narrowest lane word that
//! holds it: `BoolLanes` (64 lanes) up to 64 instances, `BoolLanes<2>` up
//! to 128, `BoolLanes<4>` above. At batch sizes on both sides of every
//! word and group boundary (1, 63, 64, 65, 127, 128, 129, 255, 256, 257
//! and 513) it must be bit-identical to the scalar `LinearEngine` —
//! identical closure results, equal to Warshall, and merged `RunStats`
//! equal to the instance-order merge of the per-instance scalar runs — and
//! run exactly ⌈len/256⌉ simulations. The `w1`/`w2`/`w4` tests take the
//! sizes whose first group lands on the 64-, 128- and 256-lane word.
//!
//! Calls of different sizes on one engine equal the same calls on fresh
//! engines, and a lane-targeted fault plan keeps 64-lane groups: its mask
//! names lane `target % 64` of each group.
//!
//! The lane transposes themselves are pinned to their element-wise
//! definition for every lane semiring, on non-square shapes and partial
//! lane groups.

use std::fmt::Debug;
use systolic::partition::{ClosureEngine, LinearEngine, PackedEngine};
use systolic_arraysim::{FaultPlan, RunStats};
use systolic_semiring::{
    pack_into_lanes, unpack_from_lanes, warshall, Bool, BoolLanes, DenseMatrix, LaneSemiring,
    MinPlusSwar16, MinPlusSwar8, Semiring,
};
use systolic_util::{Checker, Rng};

fn random_batch(rng: &mut Rng, len: usize, n: usize) -> Vec<DenseMatrix<Bool>> {
    (0..len)
        .map(|_| DenseMatrix::from_fn(n, n, |i, j| i != j && rng.gen_bool(0.25)))
        .collect()
}

fn per_instance_merge(
    engine: &LinearEngine,
    batch: &[DenseMatrix<Bool>],
) -> (Vec<DenseMatrix<Bool>>, RunStats) {
    let mut results = Vec::with_capacity(batch.len());
    let mut merged: Option<RunStats> = None;
    for a in batch {
        let (c, s) = engine.closure(a).unwrap();
        results.push(c);
        match &mut merged {
            None => merged = Some(s),
            Some(acc) => acc.merge(&s),
        }
    }
    (results, merged.unwrap())
}

/// Runs each batch size through one engine at a random `n` and `m` and
/// checks it against Warshall, the per-instance scalar runs and the
/// simulation count ⌈len/256⌉.
fn check_sizes(rng: &mut Rng, sizes: &[usize]) -> Result<(), String> {
    let n = 2 + rng.gen_usize(4); // 2..=5
    let m = 1 + rng.gen_usize(3); // 1..=3
    let scalar = LinearEngine::new(m);
    let packed = PackedEngine::new(m);
    for &len in sizes {
        let batch = random_batch(rng, len, n);
        let (want, want_stats) = per_instance_merge(&scalar, &batch);
        let (got, got_stats, simulations) = packed.closure_many_counted(&batch).unwrap();
        if got != want {
            return Err(format!("results diverge at n={n} m={m} len={len}"));
        }
        if got_stats != want_stats {
            return Err(format!("stats diverge at n={n} m={m} len={len}"));
        }
        if batch.iter().zip(&got).any(|(a, c)| *c != warshall(a)) {
            return Err(format!("reference diverges at n={n} m={m} len={len}"));
        }
        if simulations != len.div_ceil(256) {
            return Err(format!("{simulations} simulations for len={len}"));
        }
    }
    if packed.fallback_runs() != 0 {
        return Err("the Boolean engine must never fall back".into());
    }
    Ok(())
}

#[test]
fn w1_plane_is_bit_identical_to_linear() {
    Checker::new("64-lane groups bit-identical to linear", 2)
        .run(|rng| check_sizes(rng, &[1, 63, 64]));
}

#[test]
fn w2_plane_is_bit_identical_to_linear() {
    Checker::new("128-lane groups bit-identical to linear", 2)
        .run(|rng| check_sizes(rng, &[65, 127, 128]));
}

#[test]
fn w4_plane_is_bit_identical_to_linear() {
    Checker::new("256-lane groups bit-identical to linear", 2)
        .run(|rng| check_sizes(rng, &[129, 255, 256, 257, 513]));
}

#[test]
fn mixed_sizes_on_one_engine_equal_fresh_engines() {
    Checker::new("one engine across sizes equals fresh engines", 2).run(|rng| {
        let n = 2 + rng.gen_usize(5); // 2..=6
        let m = 1 + rng.gen_usize(4); // 1..=4
        let shared = PackedEngine::new(m);
        for len in [256, 1, 130, 64, 256] {
            let batch = random_batch(rng, len, n);
            let got = shared.closure_many_counted(&batch).unwrap();
            let fresh = PackedEngine::new(m).closure_many_counted(&batch).unwrap();
            if got != fresh {
                return Err(format!(
                    "len={len} diverges from a fresh engine at n={n} m={m}"
                ));
            }
        }
        Ok(())
    });
}

#[test]
fn lane_targeted_batches_keep_64_lane_groups() {
    let target = 100; // lane 36 of each 64-lane group
    let plan = FaultPlan {
        emit_corrupt: 6e-3,
        bank_flip: 6e-3,
        ..FaultPlan::none(0x7A26)
    }
    .with_target_lane(target);
    let armed = || PackedEngine::from_engine(LinearEngine::new(3).with_fault_plan(plan.clone()));
    let batch = random_batch(&mut Rng::seed_from_u64(160), 160, 6);
    let eng = armed();
    assert_eq!(ClosureEngine::<Bool>::preferred_chunk(&eng), 64);
    let (got, stats, simulations) = eng.closure_many_counted(&batch).unwrap();
    let blame = eng.take_lane_blame();
    assert_eq!(
        simulations, 3,
        "160 targeted instances = 64 + 64 + 32 lanes"
    );
    assert!(stats.fault.injected > 0, "the pinned seed injects faults");
    let mismatched: Vec<usize> = (0..batch.len())
        .filter(|&i| got[i] != warshall(&batch[i]))
        .collect();
    assert!(!mismatched.is_empty(), "the pinned seed corrupts a result");
    for i in &mismatched {
        assert_eq!(
            i % 64,
            target % 64,
            "corruption leaked out of the target lane"
        );
        assert!(
            blame.iter().any(|(inst, _)| inst == i),
            "mismatched instance {i} has no blame record"
        );
    }
    for (inst, _) in &blame {
        assert_eq!(inst % 64, target % 64, "blame outside the target lane");
    }
    // The batch is exactly its 64-instance calls on a fresh engine with
    // the same plan: same groups, same fault draws, same blame.
    let calls = armed();
    let (mut want, mut want_blame) = (Vec::new(), Vec::new());
    for (gi, chunk) in batch.chunks(64).enumerate() {
        want.extend(calls.closure_many(chunk).unwrap().0);
        want_blame.extend(
            calls
                .take_lane_blame()
                .into_iter()
                .map(|(inst, e)| (gi * 64 + inst, e)),
        );
    }
    assert_eq!(got, want);
    assert_eq!(blame, want_blame);
}

type Scalar<L> = <<L as LaneSemiring>::Scalar as Semiring>::Elem;

/// `pack_into_lanes` by definition: word `(i, j)` carries `mats[l](i, j)`
/// in lane `l` and the scalar zero in every lane past the batch.
fn pack_by_definition<L: LaneSemiring>(mats: &[DenseMatrix<L::Scalar>]) -> DenseMatrix<L> {
    let zero = <L::Scalar as Semiring>::zero();
    DenseMatrix::from_fn(mats[0].rows(), mats[0].cols(), |i, j| {
        let mut w = L::zero();
        for lane in 0..L::LANE_COUNT {
            L::write_lane(&mut w, lane, mats.get(lane).map_or(&zero, |m| m.get(i, j)));
        }
        w
    })
}

/// `unpack_from_lanes` by definition: matrix `l` reads lane `l` of every
/// word.
fn unpack_by_definition<L: LaneSemiring>(
    packed: &DenseMatrix<L>,
    count: usize,
) -> Vec<DenseMatrix<L::Scalar>> {
    (0..count)
        .map(|lane| {
            DenseMatrix::from_fn(packed.rows(), packed.cols(), |i, j| {
                L::read_lane(packed.get(i, j), lane)
            })
        })
        .collect()
}

/// Packs and unpacks a full, a partial and a one-matrix group of random
/// `rows × cols` instances (rarely square) and compares both transposes
/// with their definitions.
fn check_transposes<L: LaneSemiring>(
    rng: &mut Rng,
    scalar: impl Fn(&mut Rng) -> Scalar<L>,
) -> Result<(), String>
where
    DenseMatrix<L>: PartialEq + Debug,
    DenseMatrix<L::Scalar>: PartialEq + Debug,
{
    let (rows, cols) = (1 + rng.gen_usize(7), 1 + rng.gen_usize(7));
    let lanes = L::LANE_COUNT;
    for count in [1, 1 + rng.gen_usize(lanes - 1), lanes] {
        let mats: Vec<DenseMatrix<L::Scalar>> = (0..count)
            .map(|_| DenseMatrix::from_fn(rows, cols, |_, _| scalar(rng)))
            .collect();
        let what = format!("{} {rows}x{cols}, {count} of {lanes} lanes", L::NAME);
        let packed = pack_into_lanes::<L>(&mats);
        if packed != pack_by_definition::<L>(&mats) {
            return Err(format!("pack diverges: {what}"));
        }
        let zero = <L::Scalar as Semiring>::zero();
        if (count..lanes).any(|lane| {
            packed
                .as_slice()
                .iter()
                .any(|w| L::read_lane(w, lane) != zero)
        }) {
            return Err(format!("an unused lane is not the scalar zero: {what}"));
        }
        let unpacked = unpack_from_lanes::<L>(&packed, count);
        if unpacked != unpack_by_definition(&packed, count) {
            return Err(format!("unpack diverges: {what}"));
        }
        if unpacked != mats {
            return Err(format!("round trip diverges: {what}"));
        }
    }
    Ok(())
}

fn bool_entry(rng: &mut Rng) -> bool {
    rng.gen_bool(0.4)
}

/// A min-plus weight that fits a lane whose ∞ is `lane_inf`, or ∞.
fn weight_below(lane_inf: u64) -> impl Fn(&mut Rng) -> u64 {
    move |rng| {
        if rng.gen_bool(0.3) {
            <systolic_semiring::MinPlus as Semiring>::zero()
        } else {
            rng.gen_range_u64(0, lane_inf - 1)
        }
    }
}

#[test]
fn transposes_match_their_definition_on_boolean_lanes() {
    Checker::new("Boolean lane transposes match the definition", 6).run(|rng| {
        check_transposes::<BoolLanes<1>>(rng, bool_entry)?;
        check_transposes::<BoolLanes<2>>(rng, bool_entry)?;
        check_transposes::<BoolLanes<4>>(rng, bool_entry)
    });
}

#[test]
fn transposes_match_their_definition_on_swar_min_plus_lanes() {
    Checker::new("SWAR min-plus lane transposes match the definition", 12).run(|rng| {
        check_transposes::<MinPlusSwar8>(rng, weight_below(0xFF))?;
        check_transposes::<MinPlusSwar16>(rng, weight_below(0xFFFF))
    });
}
