//! E29 against its section of EXPERIMENTS.md, in a binary of its own: the
//! timed head-to-head at n = 4096 runs alone in its process, and the
//! 10⁶-vertex row, the slowest of all sections, stays out of the
//! experiments test. Every deterministic cell — n, edges, SCCs, DAG
//! edges, fill-in, solver MiB and dense MiB — must match; the `gen ms`
//! and `close ms` columns and the head-to-head timings are masked. In
//! builds without debug assertions E29 also asserts sparse ≥ 20× dense.

mod common;

#[test]
fn e29_counts_match_its_experiments_section() {
    common::pin("E29");
}
