//! Fixed-size arrays derived from the G-graph (§3.2).
//!
//! * [`FixedArrayEngine`] — the Fig. 17 G-graph implemented directly: one
//!   cell per G-node (`n × (n+1)` cells), neighbor links only (pivot
//!   streams flow right, column streams flow down-left), data transfers
//!   overlapped with computation, throughput `1/n` with unrestricted
//!   chaining of problem instances. Inputs enter through `n` parallel
//!   boundary ports (modelled as preloaded port buffers — the fixed-size
//!   array is not host-bandwidth-limited, unlike the partitioned arrays of
//!   Fig. 21).
//! * [`FixedLinearEngine`] — §3.2's collapse of each G-graph row into a
//!   single cell: `n` cells, throughput `1/(n(n+1))`, with the row's pivot
//!   stream recirculating through a per-cell loopback buffer.
//!
//! Both are G-set assignments — the fixed array is one G-set spanning the
//! whole graph, the linear fixed array steps along the Fig. 20 wavefront —
//! compiled by the shared plan compiler, and thin [`Mapping`] impls over
//! the shared [`MappedEngine`] executor: plans compile once per
//! `(n, batch_len)` shape into a memoized `CompiledPlan` and reuse a reset
//! simulator across calls (see [`crate::plan`]).

use crate::compile::{compile, Assignment, Input};
use crate::engine::ideal_cycles_per_instance;
use crate::mapping::{MappedEngine, Mapping};
use crate::plan::CompiledPlan;
use crate::schedule::{GsetSchedule, Placed};
use systolic_transform::GenericGGraph;

/// The Fig. 17 mapping: one cell per G-node, neighbor links only.
#[derive(Clone, Debug, Default)]
pub struct FixedArrayMapping;

impl FixedArrayMapping {
    /// Cells used for problem size `n`.
    pub fn cells_for(n: usize) -> usize {
        n * (n + 1)
    }
}

impl Mapping for FixedArrayMapping {
    fn name(&self) -> &'static str {
        "fixed-array"
    }

    fn cells(&self) -> usize {
        0 // problem-size dependent; see cells_for
    }

    /// The whole G-graph is one G-set, G-node `(k, g)` on cell
    /// `k(n+1) + g`: pivot links `(k,g) → (k,g+1)` and column links
    /// `(k,g) → (k+1,g-1)` carry every stream, and row 0 reads `n`
    /// preloaded boundary ports.
    fn build_plan(&self, n: usize, batch_len: usize) -> CompiledPlan {
        let gg = GenericGGraph::closure(n);
        let w = n + 1;
        let mut schedule = GsetSchedule::new(&gg, n * w);
        schedule.push(
            (0..n)
                .flat_map(|k| {
                    (0..w).map(move |g| Placed {
                        k,
                        h: k + g,
                        cell: k * w + g,
                    })
                })
                .collect(),
        );
        let mut links = Vec::new();
        for k in 0..n {
            for g in 0..w {
                let cell = k * w + g;
                if g + 1 < w {
                    links.push((cell, cell + 1, 1));
                }
                if k + 1 < n && g >= 1 {
                    links.push((cell, cell + w - 1, 1));
                }
            }
        }
        let assignment = Assignment {
            schedule,
            links,
            banks: n,
            col_bank: Vec::new(),
            pivot_bank: Vec::new(),
            input: Input::Ports,
            memory_connections: 0,
        };
        compile(
            &assignment,
            batch_len,
            (batch_len as u64 + 8) * (n as u64) * 40 + 100_000,
        )
    }
}

/// The Fig. 17 fixed-size array: one cell per G-node.
pub type FixedArrayEngine = MappedEngine<FixedArrayMapping>;

impl FixedArrayEngine {
    /// Creates the engine (the array size adapts to the problem size).
    pub fn new() -> Self {
        Self::default()
    }

    /// Cells used for problem size `n`.
    pub fn cells_for(n: usize) -> usize {
        FixedArrayMapping::cells_for(n)
    }
}

/// §3.2's mapping collapsing each G-graph row into one cell.
#[derive(Clone, Debug, Default)]
pub struct FixedLinearMapping;

impl Mapping for FixedLinearMapping {
    fn name(&self) -> &'static str {
        "fixed-linear"
    }

    fn cells(&self) -> usize {
        0 // n cells for problem size n
    }

    /// Cell `k` runs row `k`, one G-node per step on the Fig. 20
    /// wavefront: step `t` holds `(k, g)` with `2k + g = t`. No links:
    /// cell `k`'s pivot stream loops back through bank `k` and its column
    /// streams reach row `k + 1` through bank `n + k`. The collapsed row 0
    /// consumes one host column at a time, so the single-injection host
    /// keeps up (rate 1/(n+1) of a word per cycle).
    fn build_plan(&self, n: usize, batch_len: usize) -> CompiledPlan {
        let gg = GenericGGraph::closure(n);
        let mut schedule = GsetSchedule::new(&gg, n);
        for t in 0..3 * n - 1 {
            schedule.push(
                (0..n)
                    .filter(|&k| t >= 2 * k && t - 2 * k <= n)
                    .map(|k| Placed {
                        k,
                        h: t - k,
                        cell: k,
                    })
                    .collect(),
            );
        }
        let assignment = Assignment {
            schedule,
            links: Vec::new(),
            banks: 2 * n,
            col_bank: (n..2 * n).collect(),
            pivot_bank: (0..n).collect(),
            input: Input::Host,
            memory_connections: 2 * n,
        };
        // The m = 1 (per-column) case of the shared budget formula.
        let ideal = ideal_cycles_per_instance(n, 1);
        compile(
            &assignment,
            batch_len,
            batch_len as u64 * ideal * 20 + 100_000,
        )
    }
}

/// §3.2's linear fixed-size array: each G-graph row collapsed into one cell.
pub type FixedLinearEngine = MappedEngine<FixedLinearMapping>;

impl FixedLinearEngine {
    /// Creates the engine.
    pub fn new() -> Self {
        Self::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ClosureEngine;
    use systolic_semiring::{warshall, Bool, DenseMatrix, MaxMin};

    fn bool_adj(n: usize, edges: &[(usize, usize)]) -> DenseMatrix<Bool> {
        let mut a = DenseMatrix::<Bool>::zeros(n, n);
        for &(i, j) in edges {
            a.set(i, j, true);
        }
        a
    }

    #[test]
    fn fixed_array_matches_warshall() {
        for (n, edges) in [
            (3usize, vec![(0, 1), (1, 2)]),
            (5, vec![(0, 2), (2, 4), (4, 1), (1, 0), (3, 3)]),
            (7, vec![(6, 0), (0, 6), (1, 3), (3, 5), (5, 1)]),
        ] {
            let a = bool_adj(n, &edges);
            let eng = FixedArrayEngine::new();
            let (got, stats) = ClosureEngine::<Bool>::closure(&eng, &a).unwrap();
            assert_eq!(got, warshall(&a), "n={n}");
            assert_eq!(stats.cells, n * (n + 1));
        }
    }

    #[test]
    fn fixed_array_throughput_approaches_one_over_n() {
        // Chain many instances: steady-state initiation interval is n.
        let n = 6;
        let a = bool_adj(n, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]);
        let insts = 12;
        let eng = FixedArrayEngine::new();
        let batch: Vec<_> = (0..insts).map(|_| a.clone()).collect();
        let (res, stats) = ClosureEngine::<Bool>::closure_many(&eng, &batch).unwrap();
        assert!(res.iter().all(|r| *r == warshall(&a)));
        let per_instance = stats.cycles as f64 / insts as f64;
        // Pipeline fill adds O(n) total; per-instance cost must approach n.
        assert!(
            per_instance < 1.6 * n as f64,
            "per-instance cycles {per_instance} vs n {n}"
        );
        assert!(per_instance >= n as f64);
    }

    #[test]
    fn fixed_linear_matches_warshall_and_counts() {
        let n = 5;
        let a = bool_adj(n, &[(0, 4), (4, 2), (2, 0), (1, 3)]);
        let eng = FixedLinearEngine::new();
        let (got, stats) = ClosureEngine::<Bool>::closure(&eng, &a).unwrap();
        assert_eq!(got, warshall(&a));
        assert_eq!(stats.cells, n);
        assert_eq!(stats.host_words, (n * n) as u64);
    }

    #[test]
    fn fixed_linear_throughput_is_one_over_n_n_plus_1() {
        // Each cell runs its row's n + 1 G-nodes of n words per instance,
        // so chained instances cost at least n(n+1) cycles each; pipeline
        // fill keeps the measured cost within 1.5× of that.
        for n in [3usize, 4, 6] {
            let a = bool_adj(n, &[(0, 1), (1, 2), (2, 0)]);
            let insts = 6;
            let eng = FixedLinearEngine::new();
            let batch: Vec<_> = (0..insts).map(|_| a.clone()).collect();
            let (_, stats) = ClosureEngine::<Bool>::closure_many(&eng, &batch).unwrap();
            let per_instance = stats.cycles as f64 / insts as f64;
            let ideal = (n * (n + 1)) as f64;
            assert!(
                (ideal..1.5 * ideal).contains(&per_instance),
                "n={n}: per-instance {per_instance} vs n(n+1) = {ideal}"
            );
        }
    }

    #[test]
    fn fixed_array_works_over_maxmin() {
        let n = 4;
        let mut a = DenseMatrix::<MaxMin>::zeros(n, n);
        a.set(0, 1, 5);
        a.set(1, 2, 3);
        a.set(0, 2, 2);
        a.set(2, 3, 9);
        let eng = FixedArrayEngine::new();
        let (got, _) = ClosureEngine::<MaxMin>::closure(&eng, &a).unwrap();
        assert_eq!(got, warshall(&a));
        assert_eq!(*got.get(0, 3), 3);
    }

    #[test]
    fn fixed_engines_rerun_bit_identically_from_cache() {
        let a = bool_adj(5, &[(0, 2), (2, 4), (4, 1), (1, 0)]);
        let arr = FixedArrayEngine::new();
        let (r1, s1) = ClosureEngine::<Bool>::closure(&arr, &a).unwrap();
        let (r2, s2) = ClosureEngine::<Bool>::closure(&arr, &a).unwrap();
        assert_eq!(r1, r2);
        assert_eq!(s1, s2);
        let lin = FixedLinearEngine::new();
        let (r1, s1) = ClosureEngine::<Bool>::closure(&lin, &a).unwrap();
        let (r2, s2) = ClosureEngine::<Bool>::closure(&lin, &a).unwrap();
        assert_eq!(r1, r2);
        assert_eq!(s1, s2);
    }
}
