//! Property-based equivalence of the lane-packed Boolean engine.
//!
//! `PackedEngine` must be indistinguishable from the scalar `LinearEngine`
//! under `PartialEq`: identical closure results, and merged `RunStats`
//! equal to the instance-order merge of the per-instance scalar runs (the
//! same lane/thread-count-invariant contract `ParallelEngine` keeps; wall
//! time is excluded from equality as always). Batch sizes straddle the
//! 64-lane word and the 256-instance group boundaries on both sides,
//! including a partial last group.

use systolic::partition::{ClosureEngine, LinearEngine, PackedEngine, ParallelEngine};
use systolic_arraysim::RunStats;
use systolic_semiring::{warshall, Bool, DenseMatrix};
use systolic_util::{Checker, Rng};

/// The boundary-straddling batch sizes the lane grouping must survive:
/// single instance, one short of the 64-lane word, exactly it, one over,
/// a 256-lane group, and a batch whose last group is partial.
const BATCH_SIZES: [usize; 6] = [1, 63, 64, 65, 130, 257];

fn random_batch(rng: &mut Rng, len: usize, n: usize) -> Vec<DenseMatrix<Bool>> {
    (0..len)
        .map(|_| DenseMatrix::from_fn(n, n, |i, j| i != j && rng.gen_bool(0.25)))
        .collect()
}

/// Instance-order merge of per-instance scalar runs — the stats contract.
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

#[test]
fn packed_engine_is_bit_identical_to_linear() {
    Checker::new("packed engine bit-identical to linear", 3).run(|rng| {
        let n = 2 + rng.gen_usize(5); // 2..=6
        let m = 1 + rng.gen_usize(4); // 1..=4
        let scalar = LinearEngine::new(m);
        let packed = PackedEngine::new(m);
        for len in BATCH_SIZES {
            let batch = random_batch(rng, len, n);
            let (want, want_stats) = per_instance_merge(&scalar, &batch);
            let (got, got_stats) = packed.closure_many(&batch).unwrap();
            assert_eq!(got, want, "results n={n} m={m} len={len}");
            assert_eq!(got_stats, want_stats, "stats n={n} m={m} len={len}");
            // And both agree with the software reference.
            assert_eq!(got[len - 1], warshall(&batch[len - 1]));
        }
        Ok(())
    });
}

#[test]
fn packed_engine_matches_chained_closure_many_results() {
    Checker::new("packed matches chained batch results", 3).run(|rng| {
        let n = 2 + rng.gen_usize(4); // 2..=5
        let scalar = LinearEngine::new(3);
        let packed = PackedEngine::new(3);
        // The scalar engine chains the whole batch through one array; the
        // packed engine runs one 128-lane group. Same results either way.
        let batch = random_batch(rng, 65, n);
        let (want, _) = ClosureEngine::<Bool>::closure_many(&scalar, &batch).unwrap();
        let (got, _) = packed.closure_many(&batch).unwrap();
        assert_eq!(got, want);
        Ok(())
    });
}

#[test]
fn parallel_engine_shards_packed_batches_in_lane_groups() {
    Checker::new("parallel over packed is invariant", 2).run(|rng| {
        let n = 2 + rng.gen_usize(4); // 2..=5
        let serial = PackedEngine::new(2);
        let batch = random_batch(rng, 300, n);
        let (want, want_stats) = serial.closure_many(&batch).unwrap();
        for threads in [1, 2, 3] {
            let par = ParallelEngine::new(PackedEngine::new(2), threads);
            // Whole simulations: a 256-instance chunk and a 44-instance one.
            assert_eq!(par.inner().preferred_chunk(), 256);
            let (got, got_stats) = par.closure_many(&batch).unwrap();
            assert_eq!(got, want, "threads={threads}");
            // Chunk-order merge of lane-group stats == serial packed merge.
            assert_eq!(got_stats, want_stats, "threads={threads}");
        }
        Ok(())
    });
}

#[test]
fn single_instance_packed_run_equals_scalar_run_exactly() {
    Checker::new("one-lane packed equals scalar", 4).run(|rng| {
        let n = 2 + rng.gen_usize(6); // 2..=7
        let m = 1 + rng.gen_usize(3);
        let batch = random_batch(rng, 1, n);
        let scalar = LinearEngine::new(m);
        let packed = PackedEngine::new(m);
        let (want, want_stats) = scalar.closure(&batch[0]).unwrap();
        let (got, got_stats) = packed.closure_many(&batch).unwrap();
        // A 1-instance group is the 1-lane instantiation: scaling by 1 is
        // the identity, so even the unscaled counters must already match.
        assert_eq!(got[0], want);
        assert_eq!(got_stats, want_stats);
        Ok(())
    });
}
