//! Property-based equivalence of the W-word Boolean lane planes.
//!
//! For every width `W ∈ {1, 2, 4}`, `PackedEngine<BoolLanes<W>>` must be
//! bit-identical to the scalar `LinearEngine` — identical closure results
//! and merged `RunStats` equal to the instance-order merge of the
//! per-instance scalar runs — at batch sizes straddling the `64·W` group
//! boundary on both sides: 1, `64·W − 1`, `64·W`, and `64·W + 1`.
//!
//! The lane transposes themselves are pinned to their element-wise
//! definition for every lane semiring, on non-square shapes and partial
//! lane groups.

use std::fmt::Debug;
use systolic::partition::{ClosureEngine, LinearEngine, PackedEngine};
use systolic_arraysim::RunStats;
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

fn check_plane<const W: usize>(rng: &mut Rng) -> Result<(), String> {
    let lanes = 64 * W;
    let n = 2 + rng.gen_usize(4); // 2..=5
    let m = 1 + rng.gen_usize(3); // 1..=3
    let scalar = LinearEngine::new(m);
    let packed = PackedEngine::<BoolLanes<W>>::over(m);
    for len in [1, lanes - 1, lanes, lanes + 1] {
        let batch = random_batch(rng, len, n);
        let (want, want_stats) = per_instance_merge(&scalar, &batch);
        let (got, got_stats) = packed.closure_many(&batch).unwrap();
        if got != want {
            return Err(format!("results diverge at W={W} n={n} m={m} len={len}"));
        }
        if got_stats != want_stats {
            return Err(format!("stats diverge at W={W} n={n} m={m} len={len}"));
        }
        if got[len - 1] != warshall(&batch[len - 1]) {
            return Err(format!("reference diverges at W={W} n={n} m={m} len={len}"));
        }
    }
    if packed.fallback_runs() != 0 {
        return Err(format!("Boolean plane W={W} must never fall back"));
    }
    Ok(())
}

#[test]
fn w1_plane_is_bit_identical_to_linear() {
    Checker::new("64-lane plane bit-identical to linear", 2).run(check_plane::<1>);
}

#[test]
fn w2_plane_is_bit_identical_to_linear() {
    Checker::new("128-lane plane bit-identical to linear", 2).run(check_plane::<2>);
}

#[test]
fn w4_plane_is_bit_identical_to_linear() {
    Checker::new("256-lane plane bit-identical to linear", 2).run(check_plane::<4>);
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
