//! The batch-throughput acceptance workload: `closure_many` batches on a
//! single reused engine, per mapping and per lane plane.
//!
//! With compiled-plan memoization the schedule is built once for the
//! batch shape and every subsequent call only streams data through the
//! cached simulator. The scalar `LinearEngine` chains the instances
//! through the array one at a time; `LsgpEngine` runs the same batch on
//! the coalescing mapping (same cell count, Θ(n²/m) local buffering);
//! `PackedEngine` bit-slices the instances into the lanes of one element
//! word and simulates a single instance's worth of events — 64/128/256
//! Boolean lanes for `W = 1/2/4` words, and 8 saturating u8 tropical
//! lanes for the SWAR min-plus plane. The `bitmatrix_blocked` rows time
//! the software pivot sweep at small and large `n`.
//! `scripts/bench_smoke.sh` records every median in
//! `BENCH_partition.json` and gates on the same-run ratios.

use std::time::Duration;
use systolic_bench::{minplus_batch_input, parallel_batch_input};
use systolic_partition::{ClosureEngine, LinearEngine, LsgpEngine, PackedEngine};
use systolic_semiring::{BitMatrix, BoolLanes, MinPlusSwar8};
use systolic_util::{black_box, Bench, Rng};

fn random_bitmatrix(n: usize, seed: u64) -> BitMatrix {
    let mut rng = Rng::seed_from_u64(seed);
    let mut m = BitMatrix::identity(n);
    for _ in 0..(n * 8) {
        m.set(rng.gen_usize(n), rng.gen_usize(n), true);
    }
    m
}

fn main() {
    let instances = 32;
    let n = 32;
    let m = 4;
    let batch = parallel_batch_input(instances, n, 0x5eed);
    let bench = Bench::new("batched_closure")
        .samples(5)
        .warmup(Duration::from_millis(300));

    let engine = LinearEngine::new(m);
    bench.bench(format!("linear_m{m}/{instances}x{n}"), || {
        black_box(engine.closure_many(&batch).unwrap());
    });

    let lsgp = LsgpEngine::new(m);
    bench.bench(format!("lsgp_m{m}/{instances}x{n}"), || {
        black_box(lsgp.closure_many(&batch).unwrap());
    });

    let packed = PackedEngine::new(m);
    bench.bench(format!("packed_m{m}/{instances}x{n}"), || {
        black_box(packed.closure_many(&batch).unwrap());
    });

    // Lane-width sweep: one 128-instance batch is 2 groups at W = 1, and a
    // single group at W = 2 and W = 4.
    let wide = parallel_batch_input(128, n, 0x5eed);
    let w1 = PackedEngine::new(m);
    bench.bench(format!("packed_w1_m{m}/128x{n}"), || {
        black_box(w1.closure_many(&wide).unwrap());
    });
    let w2 = PackedEngine::<BoolLanes<2>>::over(m);
    bench.bench(format!("packed_w2_m{m}/128x{n}"), || {
        black_box(w2.closure_many(&wide).unwrap());
    });
    let w4 = PackedEngine::<BoolLanes<4>>::over(m);
    bench.bench(format!("packed_w4_m{m}/128x{n}"), || {
        black_box(w4.closure_many(&wide).unwrap());
    });

    // Weighted plane: scalar min-plus vs 8 SWAR u8 lanes, same batch,
    // inside the lanes' exact domain ((n − 1) · wmax = 248 < 255).
    let weighted = minplus_batch_input(instances, n, 0x5eed, 8);
    let minplus = LinearEngine::new(m);
    bench.bench(format!("minplus_m{m}/{instances}x{n}"), || {
        black_box(minplus.closure_many(&weighted).unwrap());
    });
    let swar = PackedEngine::<MinPlusSwar8>::over(m);
    bench.bench(format!("minplus_packed_m{m}/{instances}x{n}"), || {
        black_box(swar.closure_many(&weighted).unwrap());
    });
    assert_eq!(
        (swar.packed_runs(), swar.fallback_runs()).1,
        0,
        "min-plus bench batch must stay on the packed path"
    );

    // Software pivot sweep, small and large n.
    for bn in [256usize, 2048] {
        let input = random_bitmatrix(bn, 0xb17 + bn as u64);
        bench.bench(format!("bitmatrix_blocked/{bn}"), || {
            let mut w = input.clone();
            w.warshall_in_place();
            black_box(w);
        });
    }
}
