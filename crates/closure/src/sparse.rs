//! Scalable transitive closure over CSR graphs: condense, close the
//! component DAG, answer queries — without ever materializing the dense
//! `n×n` result.
//!
//! The pipeline is the same condensation story as
//! [`crate::closure_via_condensation`], rebuilt for the sparse data plane:
//!
//! 1. **Condense on CSR** ([`condense_csr`]): an iterative, single-array
//!    Tarjan pass (Pearce's variant) over [`CsrGraph`] emits component
//!    ids in *reverse topological* order (every condensed-DAG edge runs
//!    from a higher id to a lower one), in `O(n + e)` with one `u32` per
//!    vertex, then writes the condensed DAG's CSR rows directly.
//! 2. **Close the DAG**: in *Exact* mode a `c×c` [`BitMatrix`] is filled
//!    by one ascending-id row-union sweep — when row `a` is processed,
//!    every successor row is already complete, and row `b` has no bit
//!    above column `b`, so the sweep is at most `O(e_dag · c/64)` with no
//!    fixed point iteration. In *OnDemand* mode
//!    (chosen when `c²` bits would blow the memory budget) no closure
//!    matrix exists at all; queries run a DFS over the condensed DAG with
//!    an id-order early exit (`x < target` prunes — lower ids can only
//!    reach lower ids).
//! 3. **Never expand**: the vertex-level closure is answered through
//!    [`SparseClosure::reachable`] / [`SparseClosure::row`]; the dense
//!    `n×n` matrix is only built by [`SparseClosure::to_bitmatrix`] for
//!    small-`n` equivalence tests.
//!
//! Memory model: the sparse path pays `O(n + e)` for the graph and
//! condensation plus — only in Exact mode — `c·⌈c/64⌉·8` bytes for the
//! closure of the *component* DAG, never `n²/8` for the vertex closure.

use crate::csr::CsrGraph;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use systolic_semiring::BitMatrix;

/// SCC condensation of a [`CsrGraph`], with components grouped in flat
/// CSR-style arrays (no per-component `Vec` allocations).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SparseCondensation {
    /// Component id of each vertex (reverse-topological: every condensed
    /// edge goes from a higher id to a lower one).
    pub comp_of: Vec<u32>,
    /// `comp_ptr[c]..comp_ptr[c+1]` spans `comp_vertices` of component `c`.
    comp_ptr: Vec<usize>,
    /// Member vertices grouped by component, ascending within each group.
    comp_vertices: Vec<u32>,
    /// The condensed DAG (deduplicated inter-component edges).
    pub dag: CsrGraph,
}

impl SparseCondensation {
    /// Number of components.
    pub fn len(&self) -> usize {
        self.comp_ptr.len() - 1
    }

    /// True when the graph had no vertices.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Member vertices of component `c`, ascending.
    pub fn component(&self, c: usize) -> &[u32] {
        &self.comp_vertices[self.comp_ptr[c]..self.comp_ptr[c + 1]]
    }

    /// Iterates components in id order.
    pub fn components(&self) -> impl Iterator<Item = &[u32]> {
        (0..self.len()).map(|c| self.component(c))
    }

    /// Number of components with more than one vertex.
    pub fn nontrivial_count(&self) -> usize {
        self.components().filter(|c| c.len() > 1).count()
    }
}

/// SCC condensation of a CSR graph by Pearce's single-array variant of
/// Tarjan's algorithm (D. J. Pearce, *A space-efficient algorithm for
/// finding strongly connected components*, IPL 2016). Component ids come
/// out sinks-first (reverse topological): the `k`-th component to
/// complete gets id `k`, so every condensed edge runs from a higher id
/// to a lower one.
///
/// One `u32` per vertex replaces Tarjan's index, low-link, on-stack flag
/// and component map: an active vertex holds its DFS index, lowered to
/// its low-link as its successors finish; a member of the `k`-th
/// completed component holds `n − k`, which is above every active index,
/// so a finished successor never lowers a low-link and needs no on-stack
/// test. The array becomes `comp_of` in place at the end.
///
/// # Panics
/// Panics if `n` does not fit in `u32`.
pub fn condense_csr(g: &CsrGraph) -> SparseCondensation {
    let n = g.n();
    let n32 = u32::try_from(n).expect("vertex count fits the u32 id space");
    let (row_ptr, col_idx) = (&g.row_ptr, &g.col_idx);
    // 0 = unvisited. Indices are reused: the active vertices' DFS indices
    // are always 1..=index, so none reaches a completed component's value.
    let mut rindex = vec![0u32; n];
    let mut index = 0u32;
    let mut next_comp = n32;
    // Finished non-root vertices, waiting for their component's root.
    let mut waiting: Vec<u32> = Vec::new();
    // DFS frames: (vertex, its DFS index, absolute cursor into col_idx,
    // end of its row).
    let mut frames: Vec<(u32, u32, usize, usize)> = Vec::new();
    for root in 0..n {
        if rindex[root] != 0 {
            continue;
        }
        index += 1;
        rindex[root] = index;
        frames.push((root as u32, index, row_ptr[root], row_ptr[root + 1]));
        while let Some(frame) = frames.last_mut() {
            let (v, own, end) = (frame.0 as usize, frame.1, frame.3);
            // Fold visited successors into v's low-link up to the first
            // unvisited one, which becomes a tree child.
            let mut pos = frame.2;
            let mut low = rindex[v];
            while pos < end {
                let r = rindex[col_idx[pos] as usize];
                if r == 0 {
                    break;
                }
                low = low.min(r);
                pos += 1;
            }
            rindex[v] = low;
            if pos < end {
                frame.2 = pos + 1;
                let w = col_idx[pos] as usize;
                index += 1;
                rindex[w] = index;
                frames.push((w as u32, index, row_ptr[w], row_ptr[w + 1]));
                continue;
            }
            frames.pop();
            if low < own {
                // Not a root: wait for it, and fold its low-link into the
                // parent's.
                waiting.push(v as u32);
                if let Some(&(p, ..)) = frames.last() {
                    rindex[p as usize] = rindex[p as usize].min(low);
                }
                continue;
            }
            // v roots a component: it and every waiting vertex visited
            // after it. They were the newest active vertices, so the next
            // DFS index reuses `own`.
            rindex[v] = next_comp;
            while let Some(&w) = waiting.last() {
                if rindex[w as usize] < own {
                    break;
                }
                waiting.pop();
                rindex[w as usize] = next_comp;
            }
            next_comp -= 1;
            index = own - 1;
        }
    }
    let c = (n32 - next_comp) as usize;
    for r in &mut rindex {
        *r = n32 - *r;
    }
    let comp_of = rindex;
    // Group vertices by component with a counting-sort scatter; visiting
    // sources ascending leaves each group sorted.
    let mut comp_ptr = vec![0usize; c + 1];
    for &cid in &comp_of {
        comp_ptr[cid as usize + 1] += 1;
    }
    for i in 0..c {
        comp_ptr[i + 1] += comp_ptr[i];
    }
    let mut comp_vertices = vec![0u32; n];
    let mut cursor = comp_ptr.clone();
    for (u, &cid) in comp_of.iter().enumerate() {
        comp_vertices[cursor[cid as usize]] = u as u32;
        cursor[cid as usize] += 1;
    }
    // Condensed DAG, one row per component: `stamp[b] == a` marks target
    // `b` as already in row `a` (and `a` itself, so no self-loop enters).
    // Every edge (a, b) has a > b by the reverse-topological id order.
    let mut dag_ptr = Vec::with_capacity(c + 1);
    dag_ptr.push(0);
    let mut dag_idx: Vec<u32> = Vec::new();
    let mut stamp = vec![u32::MAX; c];
    for a in 0..c {
        stamp[a] = a as u32;
        let start = dag_idx.len();
        for &u in &comp_vertices[comp_ptr[a]..comp_ptr[a + 1]] {
            for &v in g.successors(u as usize) {
                let b = comp_of[v as usize];
                if stamp[b as usize] != a as u32 {
                    debug_assert!((b as usize) < a, "ids must be reverse-topological");
                    stamp[b as usize] = a as u32;
                    dag_idx.push(b);
                }
            }
        }
        dag_idx[start..].sort_unstable();
        dag_ptr.push(dag_idx.len());
    }
    let dag = CsrGraph {
        row_ptr: dag_ptr,
        col_idx: dag_idx,
    };
    SparseCondensation {
        comp_of,
        comp_ptr,
        comp_vertices,
        dag,
    }
}

/// How the component-DAG closure is represented.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ClosureMode {
    /// `c×c` bitset closure held in memory: `O(1)` queries, exact fill.
    Exact,
    /// No closure matrix: queries DFS the condensed DAG with id-order
    /// pruning; fill is estimated by sampling.
    OnDemand,
}

/// Tuning knobs for [`SparseClosure`].
#[derive(Copy, Clone, Debug)]
pub struct SparseOptions {
    /// Budget for the `c×c` DAG closure matrix; above it the solver
    /// falls back to [`ClosureMode::OnDemand`]. Default 1 GiB.
    pub max_closure_bytes: usize,
    /// When set, Exact-mode DAG closure runs through the tiled systolic
    /// bridge ([`systolic_partition::tiled`]) at this tile size instead
    /// of the software row-union sweep.
    pub tile: Option<usize>,
}

impl Default for SparseOptions {
    fn default() -> Self {
        Self {
            max_closure_bytes: 1 << 30,
            tile: None,
        }
    }
}

enum DagClosure {
    Exact(BitMatrix),
    OnDemand,
}

/// Fill-in (number of reachable vertex pairs, reflexive) — exact or a
/// sampled estimate, always labeled.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Fill {
    /// Reachable ordered pairs `(u, v)` including `u = v`.
    pub pairs: f64,
    /// True when `pairs` was counted exactly rather than sampled.
    pub exact: bool,
}

/// Occupancy/footprint summary of a [`SparseClosure`], for `--stats`.
#[derive(Clone, Debug)]
pub struct SparseStats {
    /// Vertex count of the input graph.
    pub n: usize,
    /// Edge count of the input graph.
    pub edges: usize,
    /// Strongly connected component count.
    pub scc_count: usize,
    /// Components with more than one vertex.
    pub nontrivial_sccs: usize,
    /// Edges of the condensed DAG.
    pub dag_edges: usize,
    /// Closure representation in use.
    pub mode: ClosureMode,
    /// Analytic heap footprint of the solver (graph + condensation +
    /// closure matrix when Exact).
    pub memory_bytes: usize,
    /// Reflexive-transitive fill-in.
    pub fill: Fill,
}

/// Transitive closure of a [`CsrGraph`] answered through the condensation,
/// with the dense `n×n` expansion replaced by a query API.
pub struct SparseClosure {
    cond: SparseCondensation,
    closed: DagClosure,
    /// Footprint and edge count of the input graph, which is not kept.
    graph_bytes: usize,
    graph_edges: usize,
}

impl SparseClosure {
    /// Closes `g` with [`SparseOptions::default`].
    pub fn new(g: &CsrGraph) -> Self {
        Self::with_options(g, SparseOptions::default())
    }

    /// Closes `g`, choosing [`ClosureMode`] by the memory budget.
    pub fn with_options(g: &CsrGraph, opts: SparseOptions) -> Self {
        let cond = condense_csr(g);
        let c = cond.len();
        let closure_bytes = Self::exact_closure_bytes(c);
        let closed = if closure_bytes <= opts.max_closure_bytes {
            let bits = match opts.tile {
                Some(t) => {
                    let edges: Vec<(u32, u32)> = cond.dag.edges().collect();
                    systolic_partition::tiled::tiled_dag_closure(c, &edges, t).0
                }
                None => {
                    // Ascending-id sweep: every condensed edge (a, b) has
                    // a > b, so row b is complete before row a reads it,
                    // and holds no bit above column b.
                    let mut m = BitMatrix::identity(c);
                    for a in 0..c {
                        for &b in cond.dag.successors(a) {
                            let b = b as usize;
                            m.or_row_prefix_into(b, a, b / 64 + 1);
                        }
                    }
                    m
                }
            };
            DagClosure::Exact(bits)
        } else {
            DagClosure::OnDemand
        };
        Self {
            cond,
            closed,
            graph_bytes: g.memory_bytes(),
            graph_edges: g.edge_count(),
        }
    }

    fn exact_closure_bytes(c: usize) -> usize {
        c.saturating_mul(c.div_ceil(64)).saturating_mul(8)
    }

    /// The underlying condensation.
    pub fn condensation(&self) -> &SparseCondensation {
        &self.cond
    }

    /// Which representation the budget selected.
    pub fn mode(&self) -> ClosureMode {
        match self.closed {
            DagClosure::Exact(_) => ClosureMode::Exact,
            DagClosure::OnDemand => ClosureMode::OnDemand,
        }
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.cond.comp_of.len()
    }

    /// Reflexive reachability `u →* v`.
    pub fn reachable(&self, u: usize, v: usize) -> bool {
        if u == v {
            return true;
        }
        let (cu, cv) = (self.cond.comp_of[u] as usize, self.cond.comp_of[v] as usize);
        if cu == cv {
            return true;
        }
        match &self.closed {
            DagClosure::Exact(m) => m.get(cu, cv),
            DagClosure::OnDemand => {
                // Reverse-topological ids: a component only reaches lower
                // ids, so cu < cv is immediately unreachable and the DFS
                // prunes below the target.
                if cu < cv {
                    return false;
                }
                self.dfs_reaches(cu, cv)
            }
        }
    }

    fn dfs_reaches(&self, from: usize, target: usize) -> bool {
        let c = self.cond.len();
        let mut visited = vec![0u64; c.div_ceil(64)];
        let mut work = vec![from as u32];
        visited[from / 64] |= 1u64 << (from % 64);
        while let Some(x) = work.pop() {
            for &y in self.cond.dag.successors(x as usize) {
                let y = y as usize;
                if y == target {
                    return true;
                }
                // Ids below the target cannot reach back up.
                if y < target {
                    continue;
                }
                let (w, b) = (y / 64, 1u64 << (y % 64));
                if visited[w] & b == 0 {
                    visited[w] |= b;
                    work.push(y as u32);
                }
            }
        }
        false
    }

    /// Component ids reachable from component `from` (inclusive), by DFS.
    fn dfs_reach_set(&self, from: usize) -> Vec<u32> {
        let c = self.cond.len();
        let mut visited = vec![0u64; c.div_ceil(64)];
        let mut out = vec![from as u32];
        visited[from / 64] |= 1u64 << (from % 64);
        let mut head = 0;
        while head < out.len() {
            let x = out[head] as usize;
            head += 1;
            for &y in self.cond.dag.successors(x) {
                let (w, b) = (y as usize / 64, 1u64 << (y as usize % 64));
                if visited[w] & b == 0 {
                    visited[w] |= b;
                    out.push(y);
                }
            }
        }
        out
    }

    /// Component ids reachable from `comp` (inclusive), whatever the mode.
    fn reach_comps(&self, comp: usize) -> Vec<u32> {
        match &self.closed {
            DagClosure::Exact(m) => {
                let mut out = Vec::new();
                for (w, &word) in m.row_words(comp).iter().enumerate() {
                    let mut bits = word;
                    while bits != 0 {
                        let b = bits.trailing_zeros() as usize;
                        let cid = w * 64 + b;
                        if cid < self.cond.len() {
                            out.push(cid as u32);
                        }
                        bits &= bits - 1;
                    }
                }
                out
            }
            DagClosure::OnDemand => self.dfs_reach_set(comp),
        }
    }

    /// All vertices reachable from `u` (including `u`), ascending. This is
    /// the sparse replacement for a dense closure row.
    pub fn row(&self, u: usize) -> Vec<u32> {
        let comps = self.reach_comps(self.cond.comp_of[u] as usize);
        merge_runs(comps.iter().map(|&cid| self.cond.component(cid as usize)))
    }

    /// Number of vertices reachable from `u` (including `u`) without
    /// materializing the row.
    pub fn row_len(&self, u: usize) -> usize {
        self.reach_comps(self.cond.comp_of[u] as usize)
            .iter()
            .map(|&cid| self.cond.component(cid as usize).len())
            .sum()
    }

    /// Reflexive-transitive fill-in. Exact (component-size-weighted count
    /// over the closure matrix) when the component count is small enough
    /// to scan; otherwise a labeled estimate from `samples` random source
    /// vertices (deterministic in `seed`).
    pub fn fill(&self, samples: usize, seed: u64) -> Fill {
        const EXACT_COMP_LIMIT: usize = 20_000;
        let n = self.n();
        if n == 0 {
            return Fill {
                pairs: 0.0,
                exact: true,
            };
        }
        let c = self.cond.len();
        if matches!(self.closed, DagClosure::Exact(_)) && c <= EXACT_COMP_LIMIT {
            let mut pairs = 0f64;
            for cu in 0..c {
                let reach: usize = self
                    .reach_comps(cu)
                    .iter()
                    .map(|&cid| self.cond.component(cid as usize).len())
                    .sum();
                pairs += (self.cond.component(cu).len() * reach) as f64;
            }
            return Fill { pairs, exact: true };
        }
        // Sampled: mean reachable-set size over random vertices × n.
        let mut rng = systolic_util::Rng::seed_from_u64(seed);
        let k = samples.max(1).min(n);
        let mut total = 0f64;
        for _ in 0..k {
            let u = rng.gen_usize(n);
            total += self.row_len(u) as f64;
        }
        Fill {
            pairs: total / k as f64 * n as f64,
            exact: false,
        }
    }

    /// Analytic heap footprint: CSR graph + condensation arrays + the
    /// closure matrix when Exact. The point of the sparse plane: this is
    /// `O(n + e + c²/8)`, never `n²/8`.
    pub fn memory_bytes(&self) -> usize {
        let cond_bytes = self.cond.comp_of.len() * 4
            + self.cond.comp_ptr.len() * std::mem::size_of::<usize>()
            + self.cond.comp_vertices.len() * 4
            + self.cond.dag.memory_bytes();
        let closure_bytes = match &self.closed {
            DagClosure::Exact(_) => Self::exact_closure_bytes(self.cond.len()),
            DagClosure::OnDemand => 0,
        };
        self.graph_bytes + cond_bytes + closure_bytes
    }

    /// Occupancy summary (fill via [`SparseClosure::fill`] with the given
    /// sampling parameters).
    pub fn stats(&self, fill_samples: usize, seed: u64) -> SparseStats {
        SparseStats {
            n: self.n(),
            edges: self.graph_edges,
            scc_count: self.cond.len(),
            nontrivial_sccs: self.cond.nontrivial_count(),
            dag_edges: self.cond.dag.edge_count(),
            mode: self.mode(),
            memory_bytes: self.memory_bytes(),
            fill: self.fill(fill_samples, seed),
        }
    }

    /// Expands to the dense vertex-level closure — **test/oracle use
    /// only**, defeats the entire point at scale.
    ///
    /// # Panics
    /// Panics in OnDemand mode (the expansion would imply the budget was
    /// wrong) — use Exact mode for oracle comparisons.
    pub fn to_bitmatrix(&self) -> BitMatrix {
        assert!(
            self.mode() == ClosureMode::Exact,
            "to_bitmatrix on an OnDemand closure"
        );
        let n = self.n();
        let mut out = BitMatrix::zeros(n);
        for cu in 0..self.cond.len() {
            let comps = self.reach_comps(cu);
            for &u in self.cond.component(cu) {
                for &cid in &comps {
                    for &v in self.cond.component(cid as usize) {
                        out.set(u as usize, v as usize, true);
                    }
                }
            }
        }
        out
    }
}

/// Convenience: close `g` with default options.
pub fn sparse_closure(g: &CsrGraph) -> SparseClosure {
    SparseClosure::new(g)
}

/// Merges nonempty, ascending, pairwise disjoint runs (component member
/// lists) into one ascending vector. A min-heap holds the rest of each
/// run (disjoint runs differ in their first element, so slices order by
/// it); the smallest run gives up everything below the next-smallest head
/// in one copy, so a row that is mostly one giant component costs about
/// one heap step per vertex of the small ones.
fn merge_runs<'a>(runs: impl Iterator<Item = &'a [u32]>) -> Vec<u32> {
    let mut heap: BinaryHeap<Reverse<&[u32]>> = runs.map(Reverse).collect();
    let mut out = Vec::with_capacity(heap.iter().map(|r| r.0.len()).sum());
    while let Some(Reverse(run)) = heap.pop() {
        let take = match heap.peek() {
            Some(Reverse(next)) => run.partition_point(|&x| x < next[0]),
            None => run.len(),
        };
        out.extend_from_slice(&run[..take]);
        if take < run.len() {
            heap.push(Reverse(&run[take..]));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{bowtie, gnp_csr, powerlaw};

    fn oracle(g: &CsrGraph) -> BitMatrix {
        crate::closure_via_condensation(&g.to_digraph())
    }

    #[test]
    fn components_are_warshall_mutual_reachability() {
        for g in [gnp_csr(80, 0.05, 21), powerlaw(150, 3, 2), bowtie(120, 4)] {
            let cond = condense_csr(&g);
            let mut reach = BitMatrix::identity(g.n());
            for (u, v) in g.edges() {
                reach.set(u as usize, v as usize, true);
            }
            reach.warshall_in_place();
            for u in 0..g.n() {
                let scc: Vec<u32> = (0..g.n())
                    .filter(|&v| reach.get(u, v) && reach.get(v, u))
                    .map(|v| v as u32)
                    .collect();
                assert_eq!(cond.component(cond.comp_of[u] as usize), scc, "vertex {u}");
            }
            // The DAG is exactly the inter-component edges, deduplicated,
            // every one running from a higher id to a lower one.
            let mut want: Vec<(u32, u32)> = g
                .edges()
                .map(|(u, v)| (cond.comp_of[u as usize], cond.comp_of[v as usize]))
                .filter(|(a, b)| a != b)
                .collect();
            want.sort_unstable();
            want.dedup();
            let got: Vec<(u32, u32)> = cond.dag.edges().collect();
            assert_eq!(got, want);
            assert!(got.iter().all(|(a, b)| a > b), "not reverse-topological");
        }
    }

    #[test]
    fn exact_mode_matches_oracle() {
        for (n, p, seed) in [
            (1usize, 0.5, 1u64),
            (17, 0.1, 2),
            (64, 0.06, 3),
            (96, 0.03, 4),
        ] {
            let g = gnp_csr(n, p, seed);
            let sc = SparseClosure::new(&g);
            assert_eq!(sc.mode(), ClosureMode::Exact);
            assert_eq!(sc.to_bitmatrix(), oracle(&g), "n={n} seed={seed}");
        }
    }

    #[test]
    fn ondemand_mode_matches_oracle_querywise() {
        let g = powerlaw(120, 3, 7);
        // Force OnDemand with a zero budget.
        let sc = SparseClosure::with_options(
            &g,
            SparseOptions {
                max_closure_bytes: 0,
                tile: None,
            },
        );
        assert_eq!(sc.mode(), ClosureMode::OnDemand);
        let want = oracle(&g);
        for u in 0..g.n() {
            for v in 0..g.n() {
                assert_eq!(
                    sc.reachable(u, v),
                    want.get(u, v),
                    "query ({u}, {v}) diverged"
                );
            }
        }
    }

    #[test]
    fn rows_match_oracle_in_both_modes() {
        let g = bowtie(90, 11);
        let want = oracle(&g);
        for opts in [
            SparseOptions::default(),
            SparseOptions {
                max_closure_bytes: 0,
                tile: None,
            },
        ] {
            let sc = SparseClosure::with_options(&g, opts);
            for u in 0..g.n() {
                let row = sc.row(u);
                let dense_row: Vec<u32> = (0..g.n())
                    .filter(|&v| want.get(u, v))
                    .map(|v| v as u32)
                    .collect();
                assert_eq!(row, dense_row, "row {u}");
                assert_eq!(sc.row_len(u), dense_row.len());
            }
        }
    }

    #[test]
    fn fill_exact_matches_pair_count() {
        let g = gnp_csr(70, 0.04, 13);
        let sc = SparseClosure::new(&g);
        let fill = sc.fill(10, 0);
        assert!(fill.exact);
        let want = oracle(&g).count_ones() as f64;
        assert_eq!(fill.pairs, want);
    }

    #[test]
    fn fill_sampled_is_plausible() {
        let g = powerlaw(200, 3, 5);
        let sc = SparseClosure::with_options(
            &g,
            SparseOptions {
                max_closure_bytes: 0,
                tile: None,
            },
        );
        let exact = oracle(&g).count_ones() as f64;
        let est = sc.fill(200, 42);
        assert!(!est.exact);
        // Full-population sampling (k = n) still averages per-vertex rows;
        // allow a broad band.
        assert!(est.pairs > exact * 0.5 && est.pairs < exact * 2.0);
    }

    #[test]
    fn memory_stays_linear_in_dag() {
        let g = powerlaw(4000, 4, 9);
        let sc = SparseClosure::new(&g);
        let s = sc.stats(50, 1);
        assert_eq!(s.n, 4000);
        assert!(s.scc_count <= 4000);
        assert!(s.edges >= 4000);
        // Never n²/8 = 2 MB dense: the budget keeps it at O(n+e+c²/8).
        assert!(s.memory_bytes < 1 << 30);
        assert!(s.nontrivial_sccs > 0);
    }

    #[test]
    fn empty_and_singleton() {
        let sc = SparseClosure::new(&CsrGraph::empty(0));
        assert_eq!(sc.n(), 0);
        assert_eq!(sc.fill(4, 0).pairs, 0.0);
        let sc = SparseClosure::new(&CsrGraph::empty(1));
        assert!(sc.reachable(0, 0));
        assert_eq!(sc.row(0), vec![0]);
    }
}
