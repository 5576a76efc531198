//! Sparse data plane smoke driver for `scripts/bench_smoke.sh`.
//!
//! Prints one `sparse_scale/<n>` line per scaling row (ascending, so the
//! monotonic `VmHWM` snapshot after the 10⁵ row is not polluted by the
//! 10⁶ run).
//! The smoke script parses the `key=value` pairs into
//! `BENCH_partition.json` and gates the 10⁵ peak-memory ceiling; the
//! 20× sparse-vs-dense gate comes from the `sparse_closure` bench's
//! median rows instead (same-run ratio like every other gate).
//!
//! Usage: `sparse_bench [max_n]` — rows above `max_n` are skipped
//! (default runs all three: 10⁴, 10⁵, 10⁶).

use systolic_bench::sparse::scale_row;

fn main() {
    let max_n: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(1_000_000);
    for n in [10_000usize, 100_000, 1_000_000] {
        if n > max_n {
            continue;
        }
        let r = scale_row(n);
        // VmHWM is process-lifetime-monotonic: the snapshot taken inside
        // scale_row(n) ran before any larger row, so it bounds THIS row.
        println!(
            "sparse_scale/{n} edges={} scc={} dag_edges={} mode={:?} fill_pairs={:.3e} \
             fill_exact={} mem_bytes={} peak_rss_bytes={} gen_ms={:.1} close_ms={:.1}",
            r.edges,
            r.scc,
            r.dag_edges,
            r.mode,
            r.fill_pairs,
            r.fill_exact,
            r.mem_bytes,
            r.peak_rss_bytes.unwrap_or(0),
            r.gen_ms,
            r.close_ms,
        );
    }
}
