//! E15 — the Núñez–Torralba blocked decomposition \[22\] vs the plain
//! reference kernel.

use std::time::Duration;
use systolic_baselines::NunezEngine;
use systolic_closure::gnp;
use systolic_semiring::{warshall, Bool, DenseMatrix};
use systolic_util::{black_box, Bench};

fn adj(n: usize) -> DenseMatrix<Bool> {
    gnp(n, 0.08, 17).adjacency_matrix()
}

fn main() {
    let bench = Bench::new("baseline_blocked")
        .samples(10)
        .warmup(Duration::from_millis(300));
    for n in [32usize, 64] {
        let a = adj(n);
        bench.bench(format!("warshall/{n}"), || {
            black_box(warshall(&a));
        });
        let eng = NunezEngine::new(8);
        bench.bench(format!("nunez_b8/{n}"), || {
            black_box(eng.closure(&a).expect("valid tile size"));
        });
    }
}
