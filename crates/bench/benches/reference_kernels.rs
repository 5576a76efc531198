//! Software reference kernels: scalar Warshall vs bit-parallel vs
//! repeated squaring. Establishes the software baseline the simulated
//! arrays' operation counts are compared against (DESIGN.md §3).

use std::time::Duration;
use systolic_closure::gnp;
use systolic_semiring::{closure_by_squaring, warshall, BitMatrix, Bool, DenseMatrix};
use systolic_util::{black_box, Bench};

fn adj(n: usize, seed: u64) -> DenseMatrix<Bool> {
    gnp(n, 0.05, seed).adjacency_matrix()
}

fn main() {
    let bench = Bench::new("reference_kernels")
        .samples(10)
        .warmup(Duration::from_millis(300));
    for n in [32usize, 64, 128] {
        let a = adj(n, 7);
        bench.bench(format!("warshall_scalar/{n}"), || {
            black_box(warshall(&a));
        });
        bench.bench(format!("closure_by_squaring/{n}"), || {
            black_box(closure_by_squaring(&a));
        });
        let bits = BitMatrix::from_dense(&a);
        bench.bench(format!("warshall_bitparallel/{n}"), || {
            black_box(bits.transitive_closure());
        });
    }
}
