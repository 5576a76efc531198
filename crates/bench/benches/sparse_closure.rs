//! Sparse-vs-dense closure on the pinned n = 4096 power-law graph.
//!
//! `sparse_4096` runs the full sparse pipeline (CSR Tarjan, component-DAG
//! row-union closure) from scratch each sample; `dense_4096` runs the
//! cache-blocked `BitMatrix` pivot sweep on the same graph. Both medians
//! land in `BENCH_partition.json`, where `scripts/bench_smoke.sh` gates
//! their same-run ratio at ≥ 20× — the sparse data plane's acceptance
//! bar.

use std::time::Duration;
use systolic_bench::sparse::compare_graph;
use systolic_closure::SparseClosure;
use systolic_semiring::BitMatrix;
use systolic_util::{black_box, Bench};

fn main() {
    let g = compare_graph();
    let n = g.n();
    let mut dense_in = BitMatrix::zeros(n);
    for (u, v) in g.edges() {
        dense_in.set(u as usize, v as usize, true);
    }

    let bench = Bench::new("sparse_closure")
        .samples(5)
        .warmup(Duration::from_millis(300));
    bench.bench(format!("sparse_{n}"), || {
        black_box(SparseClosure::new(&g));
    });
    bench.bench(format!("dense_{n}"), || {
        black_box(dense_in.transitive_closure());
    });
}
