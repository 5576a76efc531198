//! The coalescing (LSGP) mapping of §2, promoted from analytic model to a
//! real simulated engine.
//!
//! Coalescing is the dual of cut-and-pile: instead of executing one G-set
//! at a time on the whole array (LPGS), each of the `m` cells owns a fixed
//! *component* of the G-graph — here the `h`-columns with `h ≡ c (mod m)`
//! — and executes it sequentially, row by row. The consequences the paper
//! predicts (and `systolic-baselines::coalescing` models analytically)
//! fall straight out of the stream wiring:
//!
//! * **Column streams never leave the cell.** The consumer of column
//!   `(k, h)` is `(k+1, h)` — the same `h`, hence the same cell — so every
//!   column stream is buffered in the cell's private bank until the cell
//!   comes back around to that column one row later. That buffer is the
//!   paper's reservation about coalescing: `Θ(n²/m)` words of local
//!   storage per cell, measured here as the bank's high-water mark
//!   (`RunStats::bank_peak_resident`).
//! * **Pivot streams ride the ring.** The consumer of pivot `(k, h)` is
//!   `(k, h+1)` — the next cell — so pivots hop neighbor links `c → c+1`
//!   and wrap from cell `m-1` back to cell 0 through a single boundary
//!   bank: `m + 1` memory connections, like the linear LPGS array.
//!
//! As an assignment, coalescing is the linear mapping's G-sets (`m`
//! consecutive `h` of one row, `h` on cell `h mod m`) run row-major
//! instead of block-major: [`LsgpMapping`] states that order and its
//! ring, and the shared plan compiler derives the streams above from it.
//! Execution, memoization and fault machinery come from the shared
//! [`MappedEngine`], so LSGP results are validated against Warshall
//! exactly like every other mapping (experiment E25 ties the measured
//! storage and makespan back to the analytic `CoalescingModel` of E16).

use crate::compile::{compile, Assignment, Input};
use crate::engine::ideal_cycles_per_instance;
use crate::mapping::{MappedEngine, Mapping};
use crate::plan::CompiledPlan;
use crate::schedule::GsetSchedule;
use systolic_transform::GenericGGraph;

/// The coalescing (LSGP) mapping onto a ring of `m` cells.
#[derive(Clone, Debug)]
pub struct LsgpMapping {
    m: usize,
}

impl LsgpMapping {
    /// Creates the mapping for `m` cells. A zero cell count is
    /// representable but rejected with [`crate::EngineError::BadInput`] at
    /// run time (see [`Mapping::validate`]).
    pub fn new(m: usize) -> Self {
        Self { m }
    }

    /// Number of `h`-columns cell `c` owns for problem size `n`:
    /// `|{h < 2n : h ≡ c (mod m)}|`.
    pub fn columns_owned(&self, c: usize, n: usize) -> usize {
        (2 * n).saturating_sub(c).div_ceil(self.m)
    }
}

impl Mapping for LsgpMapping {
    fn name(&self) -> &'static str {
        "lsgp-coalescing"
    }

    fn cells(&self) -> usize {
        self.m
    }

    fn validate(&self) -> Result<(), crate::engine::EngineError> {
        if self.m == 0 {
            return Err(crate::engine::EngineError::BadInput(
                "coalescing ring needs at least one cell (m ≥ 1)".into(),
            ));
        }
        Ok(())
    }

    /// The coalesced assignment: the linear mapping's G-sets run row by
    /// row, so cell `c` sweeps its owned columns in row-major `(k, h)`
    /// order and the per-link word order stays lexicographic in
    /// `(instance, k, h)` — FIFO links need no reordering. Pivot links
    /// `c → c+1`; the ring closes through the wrap bank `m`, never a
    /// backward link, so link backpressure cannot cycle. Column streams
    /// stay in the cell's private bank (the `Θ(n²/m)` local storage).
    fn build_plan(&self, n: usize, batch_len: usize) -> CompiledPlan {
        let m = self.m;
        let gg = GenericGGraph::closure(n);
        let mut schedule = GsetSchedule::new(&gg, m);
        for k in 0..gg.rows() {
            for b in 0..(2 * n).div_ceil(m) {
                schedule.push(GsetSchedule::row_block(&gg, k, b, m));
            }
        }
        let assignment = Assignment {
            schedule,
            links: (1..m).map(|c| (c - 1, c, 1)).collect(),
            banks: m + 1,
            col_bank: (0..m).collect(),
            pivot_bank: vec![m; m],
            input: Input::Host,
            memory_connections: m + 1,
        };
        // Balanced components make coalescing's makespan match cut-and-pile's
        // ideal n²(n+1)/m, so the same budget formula applies.
        let ideal = ideal_cycles_per_instance(n, m) + 1;
        compile(
            &assignment,
            batch_len,
            batch_len as u64 * ideal * 20 + 100_000,
        )
    }
}

/// Coalescing (LSGP) executor on a ring of `m` cells.
pub type LsgpEngine = MappedEngine<LsgpMapping>;

impl LsgpEngine {
    /// Creates an engine with `m ≥ 1` cells.
    pub fn new(m: usize) -> Self {
        Self::from_mapping(LsgpMapping::new(m))
    }

    /// Largest number of words any single cell's private column bank held
    /// at once during the run that produced `stats` — the measured
    /// `Θ(n²/m)` local-storage cost of coalescing. Excludes the shared
    /// pivot wrap bank, which indicts no single cell.
    pub fn peak_local_words(&self, stats: &systolic_arraysim::RunStats) -> usize {
        let m = self.mapping().cells();
        stats
            .bank_peak_resident
            .iter()
            .take(m)
            .copied()
            .max()
            .unwrap_or(0)
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
        // m = 1 collapses the ring onto the wrap bank; m = 16 > 2n leaves
        // cells beyond h = 2n-1 idle.
        for m in [1usize, 2, 3, 4, 5, 8, 13, 16] {
            let eng = LsgpEngine::new(m);
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
        let eng = LsgpEngine::new(3);
        let (got, _) = ClosureEngine::<MinPlus>::closure(&eng, &a).unwrap();
        assert_eq!(got, warshall(&a));
        assert_eq!(*got.get(0, 4), 10);
    }

    #[test]
    fn chained_instances_share_the_array() {
        let a = bool_adj(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let b = bool_adj(5, &[(4, 3), (3, 2), (2, 1), (1, 0)]);
        let eng = LsgpEngine::new(3);
        let (got, stats) =
            ClosureEngine::<Bool>::closure_many(&eng, &[a.clone(), b.clone()]).unwrap();
        assert_eq!(got[0], warshall(&a));
        assert_eq!(got[1], warshall(&b));
        assert_eq!(stats.output_words, 2 * 25);
    }

    #[test]
    fn cached_plan_reruns_bit_identically() {
        let a = bool_adj(7, &[(0, 3), (3, 6), (6, 1), (1, 5), (5, 0), (2, 4)]);
        let b = bool_adj(7, &[(6, 0), (0, 6), (2, 5)]);
        let eng = LsgpEngine::new(4);
        let batch = [a, b];
        let (r1, s1) = ClosureEngine::<Bool>::closure_many(&eng, &batch).unwrap();
        let (r2, s2) = ClosureEngine::<Bool>::closure_many(&eng, &batch).unwrap();
        eng.clear_caches();
        let (r3, s3) = ClosureEngine::<Bool>::closure_many(&eng, &batch).unwrap();
        assert_eq!(r1, r2);
        assert_eq!(r1, r3);
        assert_eq!(s1, s2);
        assert_eq!(s1, s3);
    }

    #[test]
    fn local_storage_is_theta_n_squared_over_m() {
        // The paper's reservation about coalescing, measured: each cell's
        // private bank peaks at ~n words per column live in the current row
        // window — the same Θ(n²/m) the analytic CoalescingModel predicts
        // (its 2n/m counts all owned columns; only the ~(n+1)/m live ones
        // are resident at once, hence a ratio near 1/2).
        let a = bool_adj(12, &[(0, 7), (7, 2), (2, 11), (11, 5), (5, 0), (3, 9)]);
        let mut prev_peak = usize::MAX;
        for m in [1usize, 2, 3, 4, 6] {
            let eng = LsgpEngine::new(m);
            let (_, stats) = ClosureEngine::<Bool>::closure(&eng, &a).unwrap();
            let peak = eng.peak_local_words(&stats);
            // Analytic prediction: ⌈2n/m⌉·n words per cell.
            let analytic = (2 * 12usize).div_ceil(m) * 12;
            let ratio = peak as f64 / analytic as f64;
            assert!(
                (0.3..=1.05).contains(&ratio),
                "m={m}: peak {peak} vs analytic {analytic} (ratio {ratio:.2})"
            );
            // Storage shrinks as cells are added — the Θ(n²/m) law.
            assert!(peak <= prev_peak, "m={m}: peak {peak} > prev {prev_peak}");
            prev_peak = peak;
        }
    }

    #[test]
    fn makespan_tracks_the_coalescing_model() {
        // Measured cycles against the analytic makespan ⌈n(n+1)/m⌉·n:
        // coalescing trades memory, not time.
        let a = bool_adj(12, &[(0, 7), (7, 2), (2, 11), (11, 5), (5, 0), (3, 9)]);
        for m in [2usize, 3, 4] {
            let eng = LsgpEngine::new(m);
            let (_, stats) = ClosureEngine::<Bool>::closure(&eng, &a).unwrap();
            let n = 12usize;
            let analytic = ((n * (n + 1)).div_ceil(m) * n) as u64;
            let slack = stats.cycles as f64 / analytic as f64;
            assert!(
                (0.9..=1.6).contains(&slack),
                "m={m}: {} cycles vs analytic {analytic} (slack {slack:.2})",
                stats.cycles
            );
        }
    }
}
