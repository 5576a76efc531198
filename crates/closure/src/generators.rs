//! Graph generators for examples, tests and workloads.
//!
//! The original generators ([`gnp`], [`random_weighted`], …) build adjacency
//! lists by looping over all `n²` vertex pairs — fine for test-sized
//! graphs, hopeless for the sparse data plane's 10⁵–10⁶-node inputs. The
//! `*_csr` variants and the web-graph families ([`powerlaw`], [`bowtie`])
//! emit [`CsrGraph`] directly in `O(n + e)` using geometric skip-sampling
//! and preferential attachment, so generating the benchmark inputs costs
//! no more than the graphs themselves.

use crate::csr::CsrGraph;
use crate::graph::{DiGraph, WeightedDiGraph};
use systolic_util::Rng;

/// Named deterministic graph families.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum GraphKind {
    /// Simple directed path `0 → 1 → … → n-1`.
    Path,
    /// Directed cycle.
    Cycle,
    /// Complete digraph (no self-loops).
    Complete,
    /// Star: `0 → v` for all `v ≠ 0`.
    Star,
}

/// Builds one of the deterministic families.
pub fn family(kind: GraphKind, n: usize) -> DiGraph {
    match kind {
        GraphKind::Path => path(n),
        GraphKind::Cycle => cycle(n),
        GraphKind::Complete => complete(n),
        GraphKind::Star => star(n),
    }
}

/// Directed path.
pub fn path(n: usize) -> DiGraph {
    let mut g = DiGraph::new(n);
    for i in 1..n {
        g.add_edge(i - 1, i);
    }
    g
}

/// Directed cycle.
pub fn cycle(n: usize) -> DiGraph {
    let mut g = path(n);
    if n > 1 {
        g.add_edge(n - 1, 0);
    }
    g
}

/// Complete digraph without self-loops.
pub fn complete(n: usize) -> DiGraph {
    let mut g = DiGraph::new(n);
    for u in 0..n {
        for v in 0..n {
            if u != v {
                g.add_edge(u, v);
            }
        }
    }
    g
}

/// Star from vertex 0.
pub fn star(n: usize) -> DiGraph {
    let mut g = DiGraph::new(n);
    for v in 1..n {
        g.add_edge(0, v);
    }
    g
}

/// Erdős–Rényi `G(n, p)` digraph (no self-loops), seeded.
pub fn gnp(n: usize, p: f64, seed: u64) -> DiGraph {
    let mut rng = Rng::seed_from_u64(seed);
    let mut g = DiGraph::new(n);
    for u in 0..n {
        for v in 0..n {
            if u != v && rng.gen_bool(p) {
                g.add_edge(u, v);
            }
        }
    }
    g
}

/// Random weighted digraph with weights in `[lo, hi]`.
pub fn random_weighted(n: usize, p: f64, lo: u64, hi: u64, seed: u64) -> WeightedDiGraph {
    assert!(lo <= hi);
    let mut rng = Rng::seed_from_u64(seed);
    let mut g = WeightedDiGraph::new(n);
    for u in 0..n {
        for v in 0..n {
            if u != v && rng.gen_bool(p) {
                g.add_edge(u, v, rng.gen_range_u64(lo, hi));
            }
        }
    }
    g
}

/// Erdős–Rényi `G(n, p)` digraph emitted as CSR in expected `O(n + e)`:
/// instead of flipping `n²` coins, jump straight to the next success with
/// a geometric skip (`gap = ⌊ln U / ln(1−p)⌋`). The RNG stream therefore
/// differs from [`gnp`]'s — equal seeds give the same *distribution*, not
/// the same graph.
pub fn gnp_csr(n: usize, p: f64, seed: u64) -> CsrGraph {
    let mut rng = Rng::seed_from_u64(seed);
    let p = p.clamp(0.0, 1.0);
    if p <= 0.0 || n == 0 {
        return CsrGraph::empty(n);
    }
    let mut rows: Vec<Vec<u32>> = vec![Vec::new(); n];
    if p >= 1.0 {
        for (u, row) in rows.iter_mut().enumerate() {
            row.extend((0..n as u32).filter(|&v| v as usize != u));
        }
        return CsrGraph::from_sorted_rows(rows);
    }
    let ln_q = (1.0 - p).ln();
    // Walk the n² pair grid in row-major order, skipping geometrically.
    let total = n as u64 * n as u64;
    let mut pos: u64 = 0;
    loop {
        // U in (0, 1]: avoid ln(0).
        let u01 = 1.0 - rng.next_f64();
        let gap = (u01.ln() / ln_q).floor() as u64;
        pos = pos.saturating_add(gap);
        if pos >= total {
            break;
        }
        let (u, v) = ((pos / n as u64) as usize, (pos % n as u64) as u32);
        if u != v as usize {
            rows[u].push(v);
        }
        pos += 1;
    }
    CsrGraph::from_sorted_rows(rows)
}

/// Random DAG (edges low → high index) emitted as CSR in expected
/// `O(n + e)` via the same geometric skip as [`gnp_csr`].
pub fn random_dag_csr(n: usize, p: f64, seed: u64) -> CsrGraph {
    let mut rng = Rng::seed_from_u64(seed);
    let p = p.clamp(0.0, 1.0);
    if p <= 0.0 || n == 0 {
        return CsrGraph::empty(n);
    }
    let mut rows: Vec<Vec<u32>> = vec![Vec::new(); n];
    if p >= 1.0 {
        for (u, row) in rows.iter_mut().enumerate() {
            row.extend((u as u32 + 1)..n as u32);
        }
        return CsrGraph::from_sorted_rows(rows);
    }
    let ln_q = (1.0 - p).ln();
    for (u, row) in rows.iter_mut().enumerate() {
        let span = (n - u - 1) as u64;
        let mut pos: u64 = 0;
        loop {
            let u01 = 1.0 - rng.next_f64();
            let gap = (u01.ln() / ln_q).floor() as u64;
            pos = pos.saturating_add(gap);
            if pos >= span {
                break;
            }
            row.push((u as u64 + 1 + pos) as u32);
            pos += 1;
        }
    }
    CsrGraph::from_sorted_rows(rows)
}

/// Power-law (Barabási–Albert-style) digraph: each new vertex attaches
/// `d` out-edges to targets drawn from an endpoint multiset (preferential
/// attachment — high-degree vertices keep attracting edges), and each new
/// edge is reciprocated with probability ~0.28 so the graph grows real
/// SCCs instead of staying a DAG. Average total degree comes out near
/// `2d`; the in-degree tail is power-law distributed like web/social
/// adjacency.
pub fn powerlaw(n: usize, d: usize, seed: u64) -> CsrGraph {
    const RECIPROCAL_P: f64 = 0.28;
    let mut rng = Rng::seed_from_u64(seed);
    if n == 0 {
        return CsrGraph::empty(0);
    }
    let d = d.max(1);
    let mut edges: Vec<(u32, u32)> = Vec::with_capacity(n * d * 5 / 4);
    // Endpoint multiset: every edge endpoint appears once, so sampling a
    // uniform element is sampling ∝ degree. Seed it with vertex 0 so the
    // first draws are well-defined.
    let mut endpoints: Vec<u32> = Vec::with_capacity(2 * n * d + 1);
    endpoints.push(0);
    for u in 1..n as u32 {
        let wanted = d.min(u as usize);
        for _ in 0..wanted {
            let t = endpoints[rng.gen_usize(endpoints.len())];
            if t == u {
                continue; // skip self-loops; slightly fewer edges is fine
            }
            edges.push((u, t));
            endpoints.push(u);
            endpoints.push(t);
            if rng.gen_bool(RECIPROCAL_P) {
                edges.push((t, u));
            }
        }
    }
    CsrGraph::from_edges(n, &edges)
}

/// Bow-tie web graph (Broder et al. structure): a strongly connected core
/// (~n/3, wired as a cycle plus random chords), an IN set feeding the
/// core, an OUT set fed by the core, and tendrils/disconnected leftovers.
/// Exercises the condensation with one giant SCC plus a long tail of
/// singletons.
pub fn bowtie(n: usize, seed: u64) -> CsrGraph {
    let mut rng = Rng::seed_from_u64(seed);
    if n == 0 {
        return CsrGraph::empty(0);
    }
    let core = (n / 3).max(1);
    let in_hi = core + (n - core) / 2; // core..in_hi is IN, in_hi..n is OUT+tendrils
    let mut edges: Vec<(u32, u32)> = Vec::new();
    // Core cycle ⇒ one SCC; chords thicken it.
    for u in 0..core {
        edges.push((u as u32, ((u + 1) % core) as u32));
        if core > 2 {
            let chord = rng.gen_usize(core);
            if chord != u {
                edges.push((u as u32, chord as u32));
            }
        }
    }
    // IN vertices point at the core (and occasionally chain to each other).
    for u in core..in_hi {
        edges.push((u as u32, rng.gen_usize(core) as u32));
        if u + 1 < in_hi && rng.gen_bool(0.3) {
            edges.push((u as u32, (u + 1) as u32));
        }
    }
    // OUT vertices are pointed at from the core; tendrils dangle off OUT.
    for u in in_hi..n {
        edges.push((rng.gen_usize(core) as u32, u as u32));
        if u + 1 < n && rng.gen_bool(0.3) {
            edges.push((u as u32, (u + 1) as u32));
        }
    }
    CsrGraph::from_edges(n, &edges)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn families_have_expected_edge_counts() {
        assert_eq!(path(5).edge_count(), 4);
        assert_eq!(cycle(5).edge_count(), 5);
        assert_eq!(complete(5).edge_count(), 20);
        assert_eq!(star(5).edge_count(), 4);
        assert_eq!(family(GraphKind::Cycle, 3).edge_count(), 3);
    }

    #[test]
    fn gnp_is_seed_deterministic() {
        let a = gnp(12, 0.3, 42);
        let b = gnp(12, 0.3, 42);
        let c = gnp(12, 0.3, 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn weighted_respects_bounds() {
        let g = random_weighted(10, 0.5, 3, 9, 11);
        assert!(!g.edges().is_empty());
        for &(_, _, w) in g.edges() {
            assert!((3..=9).contains(&w));
        }
    }

    #[test]
    fn degenerate_sizes() {
        assert_eq!(path(0).n(), 0);
        assert_eq!(cycle(1).edge_count(), 0);
        assert_eq!(gnp(1, 1.0, 0).edge_count(), 0);
    }

    #[test]
    fn gnp_csr_matches_distribution_and_determinism() {
        let a = gnp_csr(200, 0.05, 9);
        let b = gnp_csr(200, 0.05, 9);
        assert_eq!(a, b);
        assert_ne!(a, gnp_csr(200, 0.05, 10));
        // Expected edges ≈ p·n(n−1) = 1990; allow a wide band.
        let e = a.edge_count();
        assert!((1000..3200).contains(&e), "edge count {e} implausible");
        for u in 0..200 {
            assert!(!a.has_edge(u, u as u32), "self-loop at {u}");
        }
    }

    #[test]
    fn gnp_csr_extremes() {
        assert_eq!(gnp_csr(10, 0.0, 1).edge_count(), 0);
        assert_eq!(gnp_csr(10, 1.0, 1).edge_count(), 90);
        assert_eq!(gnp_csr(0, 0.5, 1).n(), 0);
    }

    #[test]
    fn random_dag_csr_has_no_back_edges() {
        let g = random_dag_csr(64, 0.1, 3);
        for u in 0..64 {
            for &v in g.successors(u) {
                assert!(v as usize > u);
            }
        }
        assert_eq!(random_dag_csr(10, 1.0, 0).edge_count(), 45);
    }

    #[test]
    fn powerlaw_shape() {
        let g = powerlaw(2000, 4, 17);
        assert_eq!(g.n(), 2000);
        let s = g.stats();
        // ~d out-edges per vertex plus ~28 % reciprocals.
        assert!(
            s.avg_degree > 3.0 && s.avg_degree < 6.5,
            "avg degree {} out of band",
            s.avg_degree
        );
        // Preferential attachment ⇒ a heavy in-degree tail: the transpose
        // max degree must far exceed the mean.
        let tmax = g.transpose().stats().max_degree;
        assert!(tmax > 30, "max in-degree {tmax} not heavy-tailed");
        assert_eq!(g, powerlaw(2000, 4, 17));
        // Reciprocal edges must create nontrivial SCCs.
        let cond = crate::sparse::condense_csr(&g);
        assert!(cond.nontrivial_count() > 0);
    }

    #[test]
    fn bowtie_has_giant_core_scc() {
        let g = bowtie(300, 5);
        let cond = crate::sparse::condense_csr(&g);
        let biggest = cond.components().map(<[u32]>::len).max().unwrap();
        assert_eq!(biggest, 100, "core cycle must be one SCC");
        assert!(cond.len() > 1);
        assert_eq!(g, bowtie(300, 5));
    }
}
