//! The linear partitioned array of Fig. 18 (cut-and-pile / LPGS).
//!
//! `m` cells in a chain. In skewed coordinates `h = g + k` (see
//! `systolic-transform::ggraph`), cell `c` is responsible for every G-node
//! whose `h ≡ c (mod m)`; the G-set executed concurrently is `m`
//! consecutive `h` positions of one G-graph row, and G-sets are scheduled
//! by vertical paths: block-major over `h`, rows top-to-bottom inside a
//! block (Fig. 20a).
//!
//! Streams:
//! * the **pivot stream** of a row flows cell-to-cell over neighbor links
//!   and crosses G-set block boundaries through the single **pivot bank**;
//! * each cell's **column stream** output is consumed by the *same cell*
//!   one row later, through the cell's **private memory bank** — hence the
//!   paper's `m + 1` connections to external memories;
//! * row 0 reads its columns from the host R-chain (Fig. 21) and row `n-1`
//!   writes the result columns to the output collectors.
//!
//! [`LpgsMapping`] states only the G-set assignment — the linear G-set
//! schedule, the chain's links and its `m + 1` banks — and the shared
//! plan compiler derives the streams above from it (see `compile`). As a
//! [`GraphMapping`] it places any G-graph the same way, so the LU and
//! Faddeev runs of [`crate::algo`] execute on this engine too. The shared
//! [`MappedEngine`] executor does everything else: the plan is compiled
//! once per `(G-graph, batch_len)` into a [`CompiledPlan`] and memoized;
//! repeat calls reset and reload a cached simulator instead of rebuilding
//! anything. The plan never inspects *values*, so the engine is generic
//! over the semiring — including the 64-, 128- and 256-lane `BoolLanes`
//! words [`crate::PackedEngine`] drives through it, which share this
//! engine's plan cache (a packed group of any width and a scalar single
//! run use the same `(n, 1)` closure plan) and keep one cached simulator
//! per element type.

use crate::compile::{compile, graph_budget, Assignment, Input};
use crate::engine::ideal_cycles_per_instance;
use crate::mapping::{GraphMapping, MappedEngine, Mapping};
use crate::plan::CompiledPlan;
use crate::schedule::GsetSchedule;
use systolic_arraysim::FaultEvent;
use systolic_semiring::PathSemiring;
use systolic_transform::GenericGGraph;

/// The cut-and-pile (LPGS) mapping onto a linear chain of `m` cells.
#[derive(Clone, Debug)]
pub struct LpgsMapping {
    m: usize,
    /// Pivot-link latency between consecutive cells (all 1 in the healthy
    /// array; larger where faulty cells are bypassed, see
    /// [`crate::fault::FaultyLinearEngine`]).
    link_delays: Vec<u64>,
}

impl LpgsMapping {
    /// Creates the mapping for `m` cells with unit link delays. A zero
    /// cell count is representable but rejected with
    /// [`crate::EngineError::BadInput`] at run time (see
    /// [`Mapping::validate`]).
    pub fn new(m: usize) -> Self {
        Self {
            m,
            link_delays: vec![1; m.saturating_sub(1)],
        }
    }

    /// Creates the mapping with explicit pivot-link latencies
    /// (`delays.len() == m - 1`); used by the fault-bypass reconfiguration.
    pub fn with_link_delays(m: usize, delays: Vec<u64>) -> Self {
        assert!(m >= 1, "need at least one cell");
        assert_eq!(delays.len(), m.saturating_sub(1));
        assert!(delays.iter().all(|&d| d >= 1));
        Self {
            m,
            link_delays: delays,
        }
    }

    /// Number of G-set blocks for problem size `n`: `⌈2n / m⌉` (the skewed
    /// G-graph spans `h ∈ 0..2n`).
    pub fn blocks(&self, n: usize) -> usize {
        (2 * n).div_ceil(self.m)
    }

    /// Cut-and-pile of any G-graph onto the chain: the linear G-set
    /// schedule, pivot links `c → c+1`, one private column bank per cell
    /// and one shared pivot boundary bank (`m + 1` memory connections).
    pub(crate) fn assignment(&self, gg: &GenericGGraph) -> Assignment {
        let m = self.m;
        Assignment {
            schedule: GsetSchedule::linear_of(gg, m),
            links: self
                .link_delays
                .iter()
                .enumerate()
                .map(|(c, &delay)| (c, c + 1, delay))
                .collect(),
            banks: m + 1,
            col_bank: (0..m).collect(),
            pivot_bank: vec![m; m],
            input: Input::Host,
            memory_connections: m + 1,
        }
    }
}

impl Mapping for LpgsMapping {
    fn name(&self) -> &'static str {
        "linear-partitioned"
    }

    fn cells(&self) -> usize {
        self.m
    }

    fn validate(&self) -> Result<(), crate::engine::EngineError> {
        if self.m == 0 {
            return Err(crate::engine::EngineError::BadInput(
                "linear array needs at least one cell (m ≥ 1)".into(),
            ));
        }
        Ok(())
    }

    fn build_plan(&self, n: usize, batch_len: usize) -> CompiledPlan {
        // Generous budget: ideal cycles are ~ n²(n+1)/m per instance.
        let ideal = ideal_cycles_per_instance(n, self.m) + 1;
        compile(
            &self.assignment(&GenericGGraph::closure(n)),
            batch_len,
            batch_len as u64 * ideal * 20 + 100_000,
        )
    }
}

impl GraphMapping for LpgsMapping {
    fn graph_plan(&self, gg: &GenericGGraph, batch_len: usize) -> CompiledPlan {
        compile(&self.assignment(gg), batch_len, graph_budget(gg, batch_len))
    }
}

/// Cut-and-pile executor on a linear array of `m` cells.
pub type LinearEngine = MappedEngine<LpgsMapping>;

impl LinearEngine {
    /// Creates an engine with `m ≥ 1` cells.
    pub fn new(m: usize) -> Self {
        Self::from_mapping(LpgsMapping::new(m))
    }

    /// Creates an engine whose pivot links have the given latencies
    /// (`delays.len() == m - 1`); used by the fault-bypass reconfiguration.
    pub fn with_link_delays(m: usize, delays: Vec<u64>) -> Self {
        Self::from_mapping(LpgsMapping::with_link_delays(m, delays))
    }

    /// Number of G-set blocks for problem size `n`: `⌈2n / m⌉`.
    pub fn blocks(&self, n: usize) -> usize {
        self.mapping().blocks(n)
    }
}

impl<S: PathSemiring> crate::recover::FaultAware<S> for LinearEngine {
    fn recent_faults(&self) -> Vec<FaultEvent> {
        self.recent_fault_events()
    }

    fn blame_cell(&self, event: &FaultEvent) -> Option<usize> {
        use systolic_arraysim::FaultKind;
        let m = self.mapping().cells();
        match event.kind {
            FaultKind::CorruptEmit { cell } | FaultKind::StickCell { cell, .. } => Some(cell),
            // Link c sits between cells c and c+1; blame its writer.
            FaultKind::DropWord { link } | FaultKind::DuplicateWord { link } => Some(link),
            // Banks 0..m are private to their cell; bank m is the shared
            // pivot-boundary bank and indicts no single cell.
            FaultKind::BankFlip { bank } => (bank < m).then_some(bank),
        }
    }

    fn bypass_plan(&self, faulty: &[usize]) -> Option<crate::fault::FaultyLinearEngine> {
        crate::fault::FaultyLinearEngine::new(self.mapping().cells(), faulty).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ClosureEngine;
    use systolic_semiring::{warshall, Bool, DenseMatrix, MinPlus};

    fn bool_adj(n: usize, edges: &[(usize, usize)]) -> DenseMatrix<Bool> {
        let mut a = DenseMatrix::<Bool>::zeros(n, n);
        for &(i, j) in edges {
            a.set(i, j, true);
        }
        a
    }

    #[test]
    fn matches_warshall_across_cell_counts() {
        let a = bool_adj(6, &[(0, 3), (3, 5), (5, 1), (1, 4), (4, 0), (2, 2)]);
        let want = warshall(&a);
        for m in [1usize, 2, 3, 4, 5, 7, 13] {
            let eng = LinearEngine::new(m);
            let (got, stats) = ClosureEngine::<Bool>::closure(&eng, &a).unwrap();
            assert_eq!(got, want, "m={m}");
            assert_eq!(stats.memory_connections, m + 1);
            assert_eq!(stats.useful_ops, (6 * 5 * 4) as u64);
        }
    }

    #[test]
    fn matches_warshall_minplus() {
        let n = 5;
        let mut a = DenseMatrix::<MinPlus>::zeros(n, n);
        for (i, j, w) in [
            (0, 1, 2u64),
            (1, 2, 3),
            (2, 3, 1),
            (3, 4, 4),
            (4, 0, 9),
            (0, 4, 99),
        ] {
            a.set(i, j, w);
        }
        let eng = LinearEngine::new(3);
        let (got, _) = ClosureEngine::<MinPlus>::closure(&eng, &a).unwrap();
        assert_eq!(got, warshall(&a));
        assert_eq!(*got.get(0, 4), 10);
    }

    #[test]
    fn chained_instances_share_the_array() {
        let a = bool_adj(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let b = bool_adj(5, &[(4, 3), (3, 2), (2, 1), (1, 0)]);
        let eng = LinearEngine::new(3);
        let (got, stats) =
            ClosureEngine::<Bool>::closure_many(&eng, &[a.clone(), b.clone()]).unwrap();
        assert_eq!(got[0], warshall(&a));
        assert_eq!(got[1], warshall(&b));
        assert_eq!(stats.output_words, 2 * 25);
    }

    #[test]
    fn no_partitioning_overhead_banks_are_single_ported() {
        // The paper's "no overhead" claim: data transfers overlap compute;
        // banks never absorb more than one word per cycle.
        let a = bool_adj(8, &[(0, 7), (7, 2), (2, 5), (5, 0), (1, 6), (6, 1)]);
        let eng = LinearEngine::new(3);
        let (_, stats) = ClosureEngine::<Bool>::closure(&eng, &a).unwrap();
        assert!(stats.max_bank_writes_per_cycle <= 1);
    }

    #[test]
    fn io_words_equal_n_squared_per_instance() {
        let a = bool_adj(6, &[(0, 1), (2, 3)]);
        let eng = LinearEngine::new(2);
        let (_, stats) = ClosureEngine::<Bool>::closure(&eng, &a).unwrap();
        assert_eq!(stats.host_words, 36);
        assert!(stats.io_bandwidth() < 1.0);
    }

    #[test]
    fn rejects_tiny_problems() {
        let a = DenseMatrix::<Bool>::zeros(1, 1);
        let eng = LinearEngine::new(2);
        assert!(ClosureEngine::<Bool>::closure(&eng, &a).is_err());
    }

    #[test]
    fn cached_plan_reruns_bit_identically() {
        let a = bool_adj(7, &[(0, 3), (3, 6), (6, 1), (1, 5), (5, 0), (2, 4)]);
        let b = bool_adj(7, &[(6, 0), (0, 6), (2, 5)]);
        let eng = LinearEngine::new(3);
        let batch = [a, b];
        // First call compiles; second reuses plan + simulator; third (after
        // clearing the caches) recompiles from scratch.
        let (r1, s1) = ClosureEngine::<Bool>::closure_many(&eng, &batch).unwrap();
        let (r2, s2) = ClosureEngine::<Bool>::closure_many(&eng, &batch).unwrap();
        eng.clear_caches();
        let (r3, s3) = ClosureEngine::<Bool>::closure_many(&eng, &batch).unwrap();
        assert_eq!(r1, r2);
        assert_eq!(r1, r3);
        // RunStats equality ignores only wall time.
        assert_eq!(s1, s2);
        assert_eq!(s1, s3);
    }

    #[test]
    fn cache_survives_shape_and_semiring_changes() {
        let eng = LinearEngine::new(2);
        let a5 = bool_adj(5, &[(0, 1), (1, 2)]);
        let a6 = bool_adj(6, &[(0, 1), (1, 2)]);
        let (g1, _) = ClosureEngine::<Bool>::closure(&eng, &a5).unwrap();
        let (g2, _) = ClosureEngine::<Bool>::closure(&eng, &a6).unwrap();
        let (g3, _) = ClosureEngine::<Bool>::closure(&eng, &a5).unwrap();
        assert_eq!(g1, warshall(&a5));
        assert_eq!(g2, warshall(&a6));
        assert_eq!(g1, g3);
        // Same shape, different semiring: the plan is reused, and the
        // min-plus run builds its own simulator beside the Boolean one.
        let mut w = DenseMatrix::<MinPlus>::zeros(5, 5);
        w.set(0, 1, 2);
        w.set(1, 2, 3);
        let (g4, _) = ClosureEngine::<MinPlus>::closure(&eng, &w).unwrap();
        assert_eq!(g4, warshall(&w));
    }
}
