//! The memory contract of the sparse plane's component closure.
//!
//! In Exact mode `SparseClosure` stores one row per component, each a
//! sorted id list or a lower-triangular bit prefix, whichever is smaller.
//! So the closure never takes more than the dense `c·⌈c/64⌉·8`-byte
//! matrix it replaces, and on power-law graphs, whose rows hold a few
//! components each, it takes a small fraction of it. The closure's bytes
//! are read as `memory_bytes` in Exact mode less `memory_bytes` with no
//! closure at all (`max_closure_bytes = 0`), and both closures must give
//! the same answers.

use systolic::closure::{
    bowtie, gnp_csr, powerlaw, ClosureMode, CsrGraph, SparseClosure, SparseOptions,
};
use systolic_util::Rng;

/// `(exact, on_demand, closure bytes, dense c×c matrix bytes)`.
fn close(g: &CsrGraph) -> (SparseClosure, SparseClosure, usize, usize) {
    let exact = SparseClosure::new(g);
    let on_demand = SparseClosure::with_options(
        g,
        SparseOptions {
            max_closure_bytes: 0,
        },
    );
    assert_eq!(exact.mode(), ClosureMode::Exact);
    assert_eq!(on_demand.mode(), ClosureMode::OnDemand);
    let c = exact.condensation().len();
    let rows = exact.memory_bytes() - on_demand.memory_bytes();
    (exact, on_demand, rows, c * c.div_ceil(64) * 8)
}

/// Spot-checks `reachable` and `row` of the stored closure against the
/// DFS of the OnDemand path.
fn assert_same_answers(exact: &SparseClosure, on_demand: &SparseClosure, seed: u64) {
    let n = exact.n();
    let mut rng = Rng::seed_from_u64(seed);
    for _ in 0..8 {
        let u = rng.gen_usize(n);
        let mut want = on_demand.row(u);
        want.sort_unstable();
        let row = exact.row(u);
        assert_eq!(row, want, "row({u})");
        for _ in 0..32 {
            let v = rng.gen_usize(n);
            let reached = exact.reachable(u, v);
            assert_eq!(reached, on_demand.reachable(u, v), "reachable({u}, {v})");
            assert_eq!(reached, row.binary_search(&(v as u32)).is_ok());
        }
    }
}

#[test]
fn power_law_rows_take_under_an_eighth_of_the_dense_matrix() {
    for seed in [1, 2] {
        let g = powerlaw(100_000, 6, seed);
        let (exact, on_demand, rows, dense) = close(&g);
        assert!(
            rows * 8 < dense,
            "seed {seed}: {rows} B of rows vs {dense} B dense"
        );
        assert_same_answers(&exact, &on_demand, seed);
    }
}

#[test]
fn filling_rows_take_no_more_than_the_dense_matrix() {
    for (name, g) in [
        ("bowtie(3e4)", bowtie(30_000, 1)),
        ("gnp_csr(5e4, 2e-5)", gnp_csr(50_000, 2e-5, 1)),
    ] {
        let (exact, on_demand, rows, dense) = close(&g);
        assert!(rows <= dense, "{name}: {rows} B of rows vs {dense} B dense");
        assert_same_answers(&exact, &on_demand, 7);
    }
}
