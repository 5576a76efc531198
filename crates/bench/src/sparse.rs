//! The sparse data plane's scaling sweep: experiment E29, and the
//! `scale_row` that `tests/sparse_peak_rss.rs` holds under its memory
//! ceiling.

use std::fmt::Write as _;
use systolic_closure::{powerlaw, CsrGraph, SparseClosure};

/// Average out-edges per vertex for the pinned power-law workload. With
/// the generator's ~28 % reciprocal edges the mean total out-degree lands
/// near 8 — the "avg degree ~8" web-graph density of the scaling story.
pub const POWERLAW_D: usize = 6;

/// Seed of the pinned benchmark graphs.
pub const POWERLAW_SEED: u64 = 0x5eed;

/// One row of the scaling sweep.
#[derive(Clone, Debug)]
pub struct ScaleRow {
    /// Vertex count.
    pub n: usize,
    /// Edge count of the generated graph.
    pub edges: usize,
    /// Milliseconds to generate the graph (CSR-native path).
    pub gen_ms: f64,
    /// Milliseconds to condense + close.
    pub close_ms: f64,
    /// SCC count.
    pub scc: usize,
    /// Condensed-DAG edge count.
    pub dag_edges: usize,
    /// Reachable pairs (reflexive).
    pub fill_pairs: f64,
    /// Whether the fill figure is exact.
    pub fill_exact: bool,
    /// Analytic solver footprint in bytes.
    pub mem_bytes: usize,
    /// Process peak RSS (VmHWM) right after this row, when available.
    /// Monotonic across rows — run ascending sizes.
    pub peak_rss_bytes: Option<u64>,
}

/// Generates the pinned power-law graph and runs the sparse closure,
/// returning the measured row.
pub fn scale_row(n: usize) -> ScaleRow {
    let t0 = std::time::Instant::now();
    let g = powerlaw(n, POWERLAW_D, POWERLAW_SEED);
    let gen_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t1 = std::time::Instant::now();
    let sc = SparseClosure::new(&g);
    let close_ms = t1.elapsed().as_secs_f64() * 1e3;
    let stats = sc.stats(1000, 42);
    ScaleRow {
        n,
        edges: g.edge_count(),
        gen_ms,
        close_ms,
        scc: stats.scc_count,
        dag_edges: stats.dag_edges,
        fill_pairs: stats.fill.pairs,
        fill_exact: stats.fill.exact,
        mem_bytes: stats.memory_bytes,
        peak_rss_bytes: systolic_util::peak_rss_bytes(),
    }
}

/// The pinned n=4096 graph of E29's sparse-vs-dense head-to-head.
fn compare_graph() -> CsrGraph {
    powerlaw(4096, POWERLAW_D, POWERLAW_SEED)
}

/// E29 — sparse data plane scaling (CSR + condensation vs dense n×n).
pub(crate) fn e29() -> String {
    let mut out = String::from("## E29 — sparse data plane: 10⁴–10⁶-node power-law closure\n\n");
    let _ = writeln!(
        out,
        "Pinned power-law graphs (`powerlaw(n, d={POWERLAW_D}, seed={POWERLAW_SEED:#x})`, \
         ~28 % reciprocal edges ⇒ avg out-degree ≈ 8). The sparse plane condenses on CSR \
         and closes only the component DAG; the dense plane would need `n²/8` bytes before \
         doing any work (125 GB at n = 10⁶).\n"
    );
    let _ = writeln!(
        out,
        "| n | edges | SCCs | DAG edges | fill-in pairs | solver MiB | dense MiB (for scale) | gen ms | close ms |"
    );
    let _ = writeln!(out, "|---:|---:|---:|---:|---:|---:|---:|---:|---:|");
    for n in [10_000usize, 100_000, 1_000_000] {
        let r = scale_row(n);
        let _ = writeln!(
            out,
            "| {} | {} | {} | {} | {:.3e}{} | {:.1} | {:.0} | {:.0} | {:.0} |",
            r.n,
            r.edges,
            r.scc,
            r.dag_edges,
            r.fill_pairs,
            if r.fill_exact { "" } else { " (sampled)" },
            r.mem_bytes as f64 / (1024.0 * 1024.0),
            (r.n as f64 * r.n as f64 / 8.0) / (1024.0 * 1024.0),
            r.gen_ms,
            r.close_ms,
        );
    }
    // The head-to-head: sparse vs dense BitMatrix at n = 4096 on the same
    // graph.
    let g = compare_graph();
    let t0 = std::time::Instant::now();
    let sc = SparseClosure::new(&g);
    let sparse_ms = t0.elapsed().as_secs_f64() * 1e3;
    let dense_in = {
        let mut m = systolic_semiring::BitMatrix::zeros(g.n());
        for (u, v) in g.edges() {
            m.set(u as usize, v as usize, true);
        }
        m
    };
    let t1 = std::time::Instant::now();
    let dense = dense_in.transitive_closure();
    let dense_ms = t1.elapsed().as_secs_f64() * 1e3;
    assert_eq!(
        sc.to_bitmatrix(),
        dense,
        "sparse and dense closures diverged at n=4096"
    );
    let speedup = dense_ms / sparse_ms;
    let _ = writeln!(
        out,
        "\nHead-to-head at n = 4096 (same graph, bit-identical results): sparse {sparse_ms:.1} ms \
         vs dense BitMatrix {dense_ms:.1} ms — {speedup:.0}× (optimized builds assert the bar, \
         20×). `tests/sparse_peak_rss.rs` holds the peak resident memory of the n = 10⁵ row \
         under 128 MiB.\n"
    );
    // A claim about optimized code, so unoptimized builds skip it.
    if !cfg!(debug_assertions) {
        assert!(
            speedup >= 20.0,
            "sparse ran {speedup:.0}× dense at n=4096, bar 20×"
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_row_is_consistent_at_small_n() {
        let r = scale_row(2000);
        assert_eq!(r.n, 2000);
        assert!(r.edges > 2000);
        assert!(r.scc <= r.n);
        assert!(r.fill_pairs >= r.n as f64);
        assert!(r.mem_bytes > 0);
    }

    #[test]
    fn compare_graph_is_pinned() {
        let g = compare_graph();
        assert_eq!(g.n(), 4096);
        let s = g.stats();
        assert!(
            s.avg_degree > 6.0 && s.avg_degree < 9.5,
            "pinned workload drifted: avg degree {}",
            s.avg_degree
        );
    }
}
