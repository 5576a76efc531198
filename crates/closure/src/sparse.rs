//! Scalable transitive closure over CSR graphs: condense, close the
//! component DAG, answer queries — without ever materializing the dense
//! `n×n` result.
//!
//! The pipeline condenses the graph and closes the component DAG:
//!
//! 1. **Condense on CSR** ([`condense_csr`]): an iterative, single-array
//!    Tarjan pass (Pearce's variant) over [`CsrGraph`] emits component
//!    ids in *reverse topological* order (every condensed-DAG edge runs
//!    from a higher id to a lower one), in `O(n + e)` with one `u32` per
//!    vertex, then writes the condensed DAG's CSR rows directly.
//! 2. **Close the DAG**: in *Exact* mode one ascending-id sweep writes
//!    the closure row of every component — when row `a` is built, every
//!    successor row is already complete, and row `b` holds no id above
//!    `b`, so there is no fixed point iteration. In *OnDemand* mode
//!    (chosen when the rows would pass the memory budget) no closure
//!    exists at all; queries run a DFS over the condensed DAG with an
//!    id-order early exit (`x < target` prunes — lower ids can only reach
//!    lower ids). The sweep is the only closure built here. The one
//!    dense component matrix is the input of a batched service's engine
//!    run, a DAG of at most 64 components; its closed result is encoded
//!    into the same rows.
//! 3. **Never expand**: the vertex-level closure is answered through
//!    [`SparseClosure::reachable`] / [`SparseClosure::row`]; the dense
//!    `n×n` matrix is only built by [`SparseClosure::to_bitmatrix`] for
//!    small-`n` equivalence tests.
//!
//! Memory model: the sparse path pays `O(n + e)` for the graph and
//! condensation plus — only in Exact mode — the component rows, never
//! `n²/8` for the vertex closure. Row `a` is stored in whichever form
//! takes fewer bytes: a sorted `u32` id list (`4·len` bytes) or its
//! lower-triangular bit prefix of `a/64 + 1` words (`8·(a/64 + 1)`
//! bytes; at a tie the bits win, so a row's length names its form). The
//! only other cost is one `usize` offset per row. So the rows never take
//! more than the lower triangle of a dense `c×c` matrix, and on
//! power-law graphs, where almost every row is a few ids, they take
//! 8 bytes per component plus 4 per reachable component.

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
    /// Component closure held in memory, one adaptive row per component:
    /// a query is one list search or one bit test, and fill is exact.
    Exact,
    /// No component closure: queries DFS the condensed DAG with id-order
    /// pruning; fill is estimated by sampling.
    OnDemand,
}

/// Tuning knobs for [`SparseClosure`].
#[derive(Copy, Clone, Debug)]
pub struct SparseOptions {
    /// Budget for the component closure; above it the solver falls back
    /// to [`ClosureMode::OnDemand`]. The sweep counts the bytes its rows
    /// and row offsets take as it writes them, so the choice follows the
    /// real footprint. Default 1 GiB.
    pub max_closure_bytes: usize,
}

impl Default for SparseOptions {
    fn default() -> Self {
        Self {
            max_closure_bytes: 1 << 30,
        }
    }
}

/// `u32` slots in the bit prefix of component row `a`: `a/64 + 1` words
/// of 64 bits, enough for every id up to `a`.
fn prefix_len(a: usize) -> usize {
    2 * (a / 64 + 1)
}

/// The closure of the component DAG, one row per component: row `a`
/// holds the components `a` reaches, itself included, all at or below
/// `a`. A row is a sorted id list while that is shorter than its bit
/// prefix, and the bit prefix (bit `b` at `arena[b / 32]`, bit `b % 32`)
/// otherwise, so a row's length alone names its form.
#[derive(Clone, Debug, PartialEq, Eq)]
struct ClosedRows {
    /// `ptr[a]..ptr[a + 1]` spans row `a` in `arena`.
    ptr: Vec<usize>,
    arena: Vec<u32>,
}

impl ClosedRows {
    /// Closes the reverse-topologically ordered DAG by one ascending-id
    /// sweep, or gives up with `None` as soon as the rows and offsets
    /// written pass `budget` bytes.
    ///
    /// Each row picks its form from its own size. A successor that
    /// already holds `prefix_len(a) − 1` ids makes row `a` a bit row
    /// without a scan: the row is built directly as bits, OR-ing bit
    /// successors and setting list successors id by id. Otherwise the
    /// successor rows are merged as sorted lists; a bit successor below
    /// that count is gathered from its `prefix_len(b)` slots, the same
    /// words an OR would read, and a merge that overflows the limit
    /// falls back to the bit build.
    fn sweep(dag: &CsrGraph, budget: usize) -> Option<Self> {
        let c = dag.n();
        let mut rows = Self {
            ptr: vec![0; c + 1],
            arena: Vec::new(),
        };
        // Ids per finished row, for the guard.
        let mut card: Vec<u32> = Vec::with_capacity(c);
        let (mut ids, mut merged, mut gathered) = (Vec::new(), Vec::new(), Vec::new());
        for a in 0..c {
            let width = prefix_len(a);
            let succ = dag.successors(a);
            // Row a holds a and every id of each successor row.
            let mut dense = succ.iter().any(|&b| card[b as usize] as usize + 1 >= width);
            if !dense {
                ids.clear();
                for &b in succ {
                    gathered.clear();
                    rows.push_ids(b as usize, &mut gathered);
                    union_into(&ids, &gathered, &mut merged);
                    std::mem::swap(&mut ids, &mut merged);
                    if ids.len() + 1 >= width {
                        dense = true;
                        break;
                    }
                }
            }
            let start = rows.arena.len();
            if dense {
                rows.arena.resize(start + width, 0);
                let (done, row) = rows.arena.split_at_mut(start);
                row[a / 32] |= 1 << (a % 32);
                for &b in succ {
                    let b = b as usize;
                    let src = &done[rows.ptr[b]..rows.ptr[b + 1]];
                    if src.len() < prefix_len(b) {
                        for &x in src {
                            row[x as usize / 32] |= 1 << (x % 32);
                        }
                    } else {
                        for (d, s) in row.iter_mut().zip(src) {
                            *d |= *s;
                        }
                    }
                }
                card.push(row.iter().map(|w| w.count_ones()).sum());
            } else {
                ids.push(a as u32);
                rows.arena.extend_from_slice(&ids);
                card.push(ids.len() as u32);
            }
            rows.ptr[a + 1] = rows.arena.len();
            if rows.bytes() > budget {
                return None;
            }
        }
        rows.arena.shrink_to_fit();
        Some(rows)
    }

    /// Encodes the first `c` rows of a reflexive, lower-triangular
    /// closure (an engine's result, padded past `c`) row by row, each in
    /// the form the sweep gives it.
    fn from_bitmatrix(m: &BitMatrix, c: usize) -> Self {
        assert!(m.n() >= c, "closed DAG matrix smaller than the DAG");
        let mut rows = Self {
            ptr: vec![0; c + 1],
            arena: Vec::new(),
        };
        let mut bits = Vec::new();
        for a in 0..c {
            bits.clear();
            for &word in &m.row_words(a)[..a / 64 + 1] {
                bits.extend([word as u32, (word >> 32) as u32]);
            }
            let card: u32 = bits.iter().map(|w| w.count_ones()).sum();
            if (card as usize) < bits.len() {
                push_bit_ids(&bits, &mut rows.arena);
            } else {
                rows.arena.extend_from_slice(&bits);
            }
            rows.ptr[a + 1] = rows.arena.len();
        }
        rows.arena.shrink_to_fit();
        rows
    }

    /// Row `a` as stored: its id list or its bit prefix.
    fn row(&self, a: usize) -> &[u32] {
        &self.arena[self.ptr[a]..self.ptr[a + 1]]
    }

    /// Whether row `a` holds component `b ≤ a`.
    fn contains(&self, a: usize, b: usize) -> bool {
        let row = self.row(a);
        if row.len() < prefix_len(a) {
            row.binary_search(&(b as u32)).is_ok()
        } else {
            row[b / 32] >> (b % 32) & 1 == 1
        }
    }

    /// Appends row `a`'s ids to `out`, ascending.
    fn push_ids(&self, a: usize, out: &mut Vec<u32>) {
        let row = self.row(a);
        if row.len() < prefix_len(a) {
            out.extend_from_slice(row);
        } else {
            push_bit_ids(row, out);
        }
    }

    /// Sum of `weight(b)` over the components `b` row `a` holds, read in
    /// place.
    fn weighted_len(&self, a: usize, weight: impl Fn(usize) -> u64) -> u64 {
        let row = self.row(a);
        if row.len() < prefix_len(a) {
            return row.iter().map(|&b| weight(b as usize)).sum();
        }
        let mut sum = 0;
        for (w, &word) in row.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                sum += weight(w * 32 + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
        sum
    }

    /// Heap bytes of the rows and their offsets.
    fn bytes(&self) -> usize {
        self.ptr.len() * std::mem::size_of::<usize>() + self.arena.len() * 4
    }
}

/// Appends the positions of the set bits of `words`, ascending.
fn push_bit_ids(words: &[u32], out: &mut Vec<u32>) {
    for (w, &word) in words.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            out.push((w * 32) as u32 + bits.trailing_zeros());
            bits &= bits - 1;
        }
    }
}

/// Writes the union of two ascending id lists to `out`.
fn union_into(a: &[u32], b: &[u32], out: &mut Vec<u32>) {
    out.clear();
    let mut i = 0;
    for &x in b {
        while i < a.len() && a[i] < x {
            out.push(a[i]);
            i += 1;
        }
        if i < a.len() && a[i] == x {
            i += 1;
        }
        out.push(x);
    }
    out.extend_from_slice(&a[i..]);
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
    /// component rows when Exact).
    pub memory_bytes: usize,
    /// Reflexive-transitive fill-in.
    pub fill: Fill,
}

/// Transitive closure of a [`CsrGraph`] answered through the condensation,
/// with the dense `n×n` expansion replaced by a query API.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SparseClosure {
    cond: SparseCondensation,
    /// The component closure; `None` in OnDemand mode.
    rows: Option<ClosedRows>,
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
        Self::condensed(g).with_sweep(opts)
    }

    /// The condensation of `g` with no component closure yet: an
    /// OnDemand closure until [`SparseClosure::with_sweep`] or
    /// [`SparseClosure::with_dag_closure`] installs one.
    pub(crate) fn condensed(g: &CsrGraph) -> Self {
        Self {
            cond: condense_csr(g),
            rows: None,
            graph_bytes: g.memory_bytes(),
            graph_edges: g.edge_count(),
        }
    }

    /// Closes the condensation's DAG by the ascending-id sweep, leaving
    /// it OnDemand when the rows pass the budget.
    pub(crate) fn with_sweep(mut self, opts: SparseOptions) -> Self {
        self.rows = ClosedRows::sweep(&self.cond.dag, opts.max_closure_bytes);
        self
    }

    /// Installs the closure of the component DAG computed elsewhere (an
    /// engine run over the condensation's DAG): `closed` is its reflexive
    /// closure, padded or not, encoded into the component rows.
    pub(crate) fn with_dag_closure(mut self, closed: &BitMatrix) -> Self {
        self.rows = Some(ClosedRows::from_bitmatrix(closed, self.cond.len()));
        self
    }

    /// The underlying condensation.
    pub fn condensation(&self) -> &SparseCondensation {
        &self.cond
    }

    /// Which representation the budget selected.
    pub fn mode(&self) -> ClosureMode {
        match self.rows {
            Some(_) => ClosureMode::Exact,
            None => ClosureMode::OnDemand,
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
        // Reverse-topological ids: a component only reaches lower ids,
        // so cu < cv is immediately unreachable, in either mode (and the
        // DFS prunes below the target).
        if cu < cv {
            return false;
        }
        match &self.rows {
            Some(rows) => rows.contains(cu, cv),
            None => self.dfs_reaches(cu, cv),
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
        match &self.rows {
            Some(rows) => {
                let mut out = Vec::new();
                rows.push_ids(comp, &mut out);
                out
            }
            None => self.dfs_reach_set(comp),
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

    /// Exact number of reachable ordered pairs `(u, v)`, `u = v`
    /// included: the components each component row holds, weighted by
    /// their sizes, times the row's own size. One pass over the rows in
    /// place in Exact mode, one DFS per component in OnDemand mode.
    pub fn pair_count(&self) -> u64 {
        let size = |c: usize| (self.cond.comp_ptr[c + 1] - self.cond.comp_ptr[c]) as u64;
        (0..self.cond.len())
            .map(|a| {
                let reached: u64 = match &self.rows {
                    Some(rows) => rows.weighted_len(a, size),
                    None => self
                        .dfs_reach_set(a)
                        .iter()
                        .map(|&b| size(b as usize))
                        .sum(),
                };
                size(a) * reached
            })
            .sum()
    }

    /// Reflexive-transitive fill-in. Exact ([`SparseClosure::pair_count`])
    /// when the component count is small enough to scan; otherwise a
    /// labeled estimate from `samples` random source vertices
    /// (deterministic in `seed`).
    pub fn fill(&self, samples: usize, seed: u64) -> Fill {
        const EXACT_COMP_LIMIT: usize = 20_000;
        let n = self.n();
        if n == 0 {
            return Fill {
                pairs: 0.0,
                exact: true,
            };
        }
        if self.rows.is_some() && self.cond.len() <= EXACT_COMP_LIMIT {
            return Fill {
                pairs: self.pair_count() as f64,
                exact: true,
            };
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
    /// component rows and their offsets when Exact. The point of the
    /// sparse plane: this is `O(n + e)` plus at most the lower triangle
    /// of the dense component matrix, never `n²/8`.
    pub fn memory_bytes(&self) -> usize {
        let cond_bytes = self.cond.comp_of.len() * 4
            + self.cond.comp_ptr.len() * std::mem::size_of::<usize>()
            + self.cond.comp_vertices.len() * 4
            + self.cond.dag.memory_bytes();
        self.graph_bytes + cond_bytes + self.rows.as_ref().map_or(0, ClosedRows::bytes)
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
            assert_eq!(sc.to_bitmatrix(), warshall(&g), "n={n} seed={seed}");
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
            },
        );
        assert_eq!(sc.mode(), ClosureMode::OnDemand);
        let want = warshall(&g);
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
        let want = warshall(&g);
        for opts in [
            SparseOptions::default(),
            SparseOptions {
                max_closure_bytes: 0,
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
        let want = warshall(&g).count_ones() as f64;
        assert_eq!(fill.pairs, want);
    }

    #[test]
    fn pair_count_matches_warshall_in_both_modes() {
        for g in [gnp_csr(70, 0.04, 13), powerlaw(600, 3, 4), bowtie(400, 2)] {
            let want = warshall(&g).count_ones() as u64;
            let exact = SparseClosure::new(&g);
            // Rows of both forms, and components heavier than one vertex.
            let (c, rows) = (
                exact.condensation().len(),
                exact.rows.as_ref().expect("Exact"),
            );
            let lists = (0..c)
                .filter(|&a| rows.row(a).len() < prefix_len(a))
                .count();
            assert!(lists > 0 && lists < c, "n={}: {lists} of {c} rows", g.n());
            assert!(exact.condensation().nontrivial_count() > 0);
            let on_demand = SparseClosure::with_options(
                &g,
                SparseOptions {
                    max_closure_bytes: 0,
                },
            );
            assert_eq!(exact.pair_count(), want, "Exact n={}", g.n());
            assert_eq!(on_demand.pair_count(), want, "OnDemand n={}", g.n());
        }
    }

    #[test]
    fn fill_sampled_is_plausible() {
        let g = powerlaw(200, 3, 5);
        let sc = SparseClosure::with_options(
            &g,
            SparseOptions {
                max_closure_bytes: 0,
            },
        );
        let exact = warshall(&g).count_ones() as f64;
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

    /// Reflexive closure of a graph by Warshall.
    fn warshall(g: &CsrGraph) -> BitMatrix {
        let mut m = BitMatrix::identity(g.n());
        for (a, b) in g.edges() {
            m.set(a as usize, b as usize, true);
        }
        m.warshall_in_place();
        m
    }

    /// Checks every row against Warshall, and its stored length against
    /// the byte rule: a list while shorter than the bit prefix.
    fn assert_rows_match(rows: &ClosedRows, dag: &CsrGraph) {
        let want = warshall(dag);
        for a in 0..dag.n() {
            let ids: Vec<u32> = (0..dag.n())
                .filter(|&b| want.get(a, b))
                .map(|b| b as u32)
                .collect();
            let mut got = Vec::new();
            rows.push_ids(a, &mut got);
            assert_eq!(got, ids, "row {a}");
            for b in 0..=a {
                assert_eq!(rows.contains(a, b), want.get(a, b), "({a}, {b})");
            }
            let stored = ids.len().min(prefix_len(a));
            assert_eq!(rows.row(a).len(), stored, "row {a} form");
        }
    }

    fn sweep(c: usize, edges: &[(u32, u32)]) -> (ClosedRows, CsrGraph) {
        let dag = CsrGraph::from_edges(c, edges);
        let rows = ClosedRows::sweep(&dag, usize::MAX).expect("no budget");
        assert_rows_match(&rows, &dag);
        (rows, dag)
    }

    #[test]
    fn a_bit_row_below_feeds_a_list_row_above() {
        // Row 1 = {0, 1} fills its one-word prefix, so it is bits; row
        // 200 = {0, 1, 200} is 12 bytes against a 32-byte prefix, so it
        // stays a list although its only successor is bits.
        let (rows, _) = sweep(201, &[(1, 0), (200, 1)]);
        assert_eq!(rows.row(1).len(), prefix_len(1), "row 1 is bits");
        assert_eq!(rows.row(200), &[0, 1, 200], "row 200 is a list");
    }

    #[test]
    fn a_list_merge_that_overflows_becomes_bits() {
        // Rows 70..=73 are two-id lists; row 130 may hold 5 ids as a
        // list, and its union passes that at its third successor.
        let (rows, _) = sweep(
            131,
            &[
                (70, 65),
                (71, 66),
                (72, 67),
                (73, 68),
                (130, 70),
                (130, 71),
                (130, 72),
                (130, 73),
            ],
        );
        for a in 70..=73 {
            assert_eq!(rows.row(a).len(), 2, "row {a} is a list");
        }
        assert_eq!(rows.row(130).len(), prefix_len(130), "row 130 is bits");
    }

    #[test]
    fn a_successor_over_the_limit_makes_bits_without_a_scan() {
        // Row 2 = {0, 1, 2} is bits; row 70 may hold 3 ids as a list,
        // so row 2 alone decides it. Row 200 gathers row 2's ids and
        // stays a list.
        let (rows, _) = sweep(201, &[(1, 0), (2, 1), (70, 2), (200, 2)]);
        assert_eq!(rows.row(2).len(), prefix_len(2));
        assert_eq!(rows.row(70).len(), prefix_len(70), "row 70 is bits");
        assert_eq!(rows.row(200), &[0, 1, 2, 200]);
    }

    #[test]
    fn random_dags_match_warshall_in_every_form() {
        let mut rng = systolic_util::Rng::seed_from_u64(17);
        for (c, per_row) in [(90, 1), (300, 2), (300, 6), (700, 3)] {
            let mut edges = Vec::new();
            for a in 1..c {
                for _ in 0..rng.gen_usize(per_row + 1) {
                    edges.push((a as u32, rng.gen_usize(a) as u32));
                }
            }
            let (rows, _) = sweep(c, &edges);
            let bits = (0..c)
                .filter(|&a| rows.row(a).len() == prefix_len(a))
                .count();
            assert!(bits > 0 && bits < c, "c={c}: {bits} bit rows");
        }
    }

    #[test]
    fn memory_bytes_is_the_store_and_rows_fit_their_prefix() {
        for g in [powerlaw(3000, 4, 3), bowtie(900, 5), gnp_csr(800, 0.002, 6)] {
            let sc = SparseClosure::new(&g);
            let rows = sc.rows.as_ref().expect("Exact");
            let c = sc.condensation().len();
            let mut row_bytes = 0;
            for a in 0..c {
                let len = rows.row(a).len();
                assert!(len <= prefix_len(a), "row {a} exceeds its bit prefix");
                row_bytes += 4 * len;
            }
            assert_eq!(rows.ptr.capacity(), c + 1);
            assert_eq!(rows.arena.capacity(), rows.arena.len());
            let store = 8 * (c + 1) + row_bytes;
            let without = SparseClosure::with_options(
                &g,
                SparseOptions {
                    max_closure_bytes: 0,
                },
            );
            assert_eq!(sc.memory_bytes() - without.memory_bytes(), store);
        }
    }

    #[test]
    fn the_budget_follows_the_rows_written() {
        let g = powerlaw(3000, 4, 8);
        let exact = SparseClosure::new(&g);
        let c = exact.condensation().len();
        let store = exact.rows.as_ref().expect("Exact").bytes();
        let dense = c * c.div_ceil(64) * 8;
        assert!(store < dense, "{store} vs {dense}");
        for (budget, mode) in [
            (0, ClosureMode::OnDemand),
            (store - 1, ClosureMode::OnDemand),
            (store, ClosureMode::Exact),
            (dense - 1, ClosureMode::Exact),
        ] {
            let sc = SparseClosure::with_options(
                &g,
                SparseOptions {
                    max_closure_bytes: budget,
                },
            );
            assert_eq!(sc.mode(), mode, "budget {budget}");
            for u in (0..g.n()).step_by(37) {
                assert_eq!(sc.row(u), exact.row(u), "row {u} at budget {budget}");
                for v in (0..g.n()).step_by(29) {
                    assert_eq!(sc.reachable(u, v), exact.reachable(u, v));
                }
            }
        }
    }

    #[test]
    fn an_engine_closure_encodes_the_sweep_rows() {
        // The batched service hands the encoder the closure of the
        // condensed DAG padded to its plan bucket; it must store exactly
        // the rows the sweep writes.
        for g in [powerlaw(2000, 3, 4), bowtie(700, 9), gnp_csr(300, 0.01, 2)] {
            let sweep = SparseClosure::new(&g);
            let condensed = SparseClosure::condensed(&g);
            let dag = &condensed.condensation().dag;
            let mut closed = BitMatrix::identity(crate::incremental::dag_bucket(dag.n()));
            for (a, b) in dag.edges() {
                closed.set(a as usize, b as usize, true);
            }
            closed.warshall_in_place();
            let encoded = condensed.with_dag_closure(&closed);
            assert_eq!(encoded.rows, sweep.rows, "n={}", g.n());
        }
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
