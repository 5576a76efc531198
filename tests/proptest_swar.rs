//! Property-based equivalence of the SWAR min-plus lane planes.
//!
//! Inside the exact domain (`(n − 1) · wmax < lane ∞`), the packed
//! tropical engines `PackedEngine<MinPlusSwar8>` (8 × u8 lanes) and
//! `PackedEngine<MinPlusSwar16>` (4 × u16 lanes) must be bit-identical to
//! the scalar min-plus `LinearEngine` — results and merged `RunStats` —
//! at batch sizes straddling the lane-group boundary: 1, `L − 1`, `L`,
//! `L + 1`. Outside the domain the batch must transparently take the
//! scalar path and still produce exact results.

use systolic::partition::{ClosureEngine, LinearEngine, PackedEngine, PackedPlane};
use systolic_arraysim::RunStats;
use systolic_semiring::instances::INF;
use systolic_semiring::{warshall, DenseMatrix, MinPlus, MinPlusSwar16, MinPlusSwar8};
use systolic_util::{Checker, Rng};

fn random_batch(rng: &mut Rng, len: usize, n: usize, wmax: u64) -> Vec<DenseMatrix<MinPlus>> {
    (0..len)
        .map(|_| {
            DenseMatrix::from_fn(n, n, |i, j| {
                if i == j {
                    0
                } else if rng.gen_bool(0.35) {
                    1 + rng.gen_usize(wmax as usize) as u64
                } else {
                    INF
                }
            })
        })
        .collect()
}

fn per_instance_merge(
    engine: &LinearEngine,
    batch: &[DenseMatrix<MinPlus>],
) -> (Vec<DenseMatrix<MinPlus>>, RunStats) {
    let mut results = Vec::with_capacity(batch.len());
    let mut merged: Option<RunStats> = None;
    for a in batch {
        let (c, s) = ClosureEngine::<MinPlus>::closure(engine, a).unwrap();
        results.push(c);
        match &mut merged {
            None => merged = Some(s),
            Some(acc) => acc.merge(&s),
        }
    }
    (results, merged.unwrap())
}

fn check_plane<L>(rng: &mut Rng) -> Result<(), String>
where
    L: PackedPlane<Scalar = MinPlus>,
{
    let lanes = L::LANE_COUNT;
    let n = 2 + rng.gen_usize(4); // 2..=5
    let m = 1 + rng.gen_usize(3); // 1..=3
                                  // (n − 1) · wmax ≤ 4 · 9 = 36 < 255: inside even the u8 domain.
    let wmax = 1 + rng.gen_usize(9) as u64;
    let scalar = LinearEngine::new(m);
    let packed = PackedEngine::<L>::over(m);
    for len in [1, lanes - 1, lanes, lanes + 1] {
        let batch = random_batch(rng, len, n, wmax);
        let (want, want_stats) = per_instance_merge(&scalar, &batch);
        let (got, got_stats) = packed.closure_many(&batch).unwrap();
        if got != want {
            return Err(format!(
                "results diverge at {} n={n} m={m} len={len}",
                L::ENGINE_NAME
            ));
        }
        if got_stats != want_stats {
            return Err(format!(
                "stats diverge at {} n={n} m={m} len={len}",
                L::ENGINE_NAME
            ));
        }
        if got[len - 1] != warshall(&batch[len - 1]) {
            return Err(format!(
                "reference diverges at {} n={n} m={m} len={len}",
                L::ENGINE_NAME
            ));
        }
    }
    if packed.fallback_runs() != 0 {
        return Err(format!(
            "{} fell back inside its exact domain",
            L::ENGINE_NAME
        ));
    }
    Ok(())
}

#[test]
fn swar8_plane_is_bit_identical_to_scalar_minplus() {
    Checker::new("8×u8 tropical plane bit-identical to scalar", 6).run(check_plane::<MinPlusSwar8>);
}

#[test]
fn swar16_plane_is_bit_identical_to_scalar_minplus() {
    Checker::new("4×u16 tropical plane bit-identical to scalar", 6)
        .run(check_plane::<MinPlusSwar16>);
}

#[test]
fn out_of_domain_batches_take_the_scalar_path_exactly() {
    Checker::new("out-of-domain min-plus batches fall back", 4).run(|rng| {
        let n = 3 + rng.gen_usize(3); // 3..=5
        let packed = PackedEngine::<MinPlusSwar8>::over(2);
        // Weights near the u8 ∞ encoding: (n − 1) · wmax ≥ 255 breaks the
        // exactness precondition, so the engine must not pack.
        let batch = random_batch(rng, 5, n, 250);
        let heavy = batch
            .iter()
            .any(|a| (0..n).any(|i| (0..n).any(|j| *a.get(i, j) != INF && *a.get(i, j) >= 128)));
        if !heavy {
            return Ok(()); // vanishingly unlikely: every weight rolled low
        }
        let (got, _) = packed.closure_many(&batch).unwrap();
        for (a, c) in batch.iter().zip(&got) {
            if *c != warshall(a) {
                return Err(format!("fallback diverges from reference at n={n}"));
            }
        }
        if packed.packed_runs() != 0 {
            return Err("out-of-domain batch must not take the packed path".into());
        }
        Ok(())
    });
}
