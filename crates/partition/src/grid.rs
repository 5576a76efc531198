//! The two-dimensional partitioned array of Fig. 19.
//!
//! `√m × √m` cells. In skewed coordinates, G-node `(k, h)` maps to cell
//! `(k mod √m, h mod √m)`; a G-set is a `√m × √m` block of `(k, h)` space,
//! so the parallelogram's slanted edges produce the paper's *triangular
//! boundary sets* (Fig. 19a), which simply leave some cells idle.
//!
//! Streams cross only the block perimeter: column streams leave through the
//! bottom edge into `√m` column banks and re-enter through the top edge;
//! pivot streams leave through the right edge into `√m` pivot banks and
//! re-enter on the left — the paper's `2√m` connections to external
//! memories. Within a block both stream families ride neighbor links.
//! Blocks are scheduled by vertical paths: `h`-block-major, `k`-blocks
//! top-to-bottom inside (the 2-D analogue of Fig. 20b).
//!
//! [`GridMapping`] is that assignment — the grid G-set schedule, its links
//! and its `2√m` banks — which the shared plan compiler turns into task
//! programs; execution is the shared [`MappedEngine`]. As a
//! [`GraphMapping`] it places the LU and Faddeev trapezoids of
//! [`crate::algo`] on the same grid.

use crate::compile::{compile, graph_budget, Assignment, Input};
use crate::engine::{ideal_cycles_per_instance, EngineError};
use crate::mapping::{GraphMapping, MappedEngine, Mapping};
use crate::plan::CompiledPlan;
use crate::schedule::GsetSchedule;
use systolic_transform::GenericGGraph;

/// The cut-and-pile mapping onto a `√m × √m` grid.
#[derive(Clone, Debug)]
pub struct GridMapping {
    s: usize,
}

impl GridMapping {
    /// Creates the mapping for an `s × s` grid (`m = s²` cells). A zero
    /// side is representable but rejected with
    /// [`crate::EngineError::BadInput`] at run time (see
    /// [`Mapping::validate`]).
    pub fn new(s: usize) -> Self {
        Self { s }
    }

    /// Grid side length `√m`.
    pub fn side(&self) -> usize {
        self.s
    }

    /// Cut-and-pile of any G-graph onto the grid: the grid G-set schedule,
    /// horizontal pivot links `(ri,ci) → (ri,ci+1)` and vertical column
    /// links `(ri,ci) → (ri+1,ci)` created row-major, column banks `0..s`
    /// on the top/bottom edge and pivot banks `s..2s` on the left/right
    /// edge (`2s` memory connections).
    pub(crate) fn assignment(&self, gg: &GenericGGraph) -> Assignment {
        let s = self.s;
        let mut links = Vec::new();
        for c in 0..s * s {
            if c % s + 1 < s {
                links.push((c, c + 1, 1));
            }
            if c / s + 1 < s {
                links.push((c, c + s, 1));
            }
        }
        Assignment {
            schedule: GsetSchedule::grid_of(gg, s),
            links,
            banks: 2 * s,
            col_bank: (0..s * s).map(|c| c % s).collect(),
            pivot_bank: (0..s * s).map(|c| s + c / s).collect(),
            input: Input::Host,
            memory_connections: 2 * s,
        }
    }
}

impl Mapping for GridMapping {
    fn name(&self) -> &'static str {
        "grid-partitioned"
    }

    fn cells(&self) -> usize {
        self.s * self.s
    }

    fn validate(&self) -> Result<(), EngineError> {
        if self.s == 0 {
            return Err(EngineError::BadInput(
                "grid needs at least a 1×1 array (side ≥ 1)".into(),
            ));
        }
        Ok(())
    }

    fn build_plan(&self, n: usize, batch_len: usize) -> CompiledPlan {
        let ideal = ideal_cycles_per_instance(n, self.s * self.s) + 1;
        compile(
            &self.assignment(&GenericGGraph::closure(n)),
            batch_len,
            batch_len as u64 * ideal * 40 + 200_000,
        )
    }
}

impl GraphMapping for GridMapping {
    fn graph_plan(&self, gg: &GenericGGraph, batch_len: usize) -> CompiledPlan {
        compile(&self.assignment(gg), batch_len, graph_budget(gg, batch_len))
    }
}

/// Cut-and-pile executor on a `√m × √m` grid.
pub type GridEngine = MappedEngine<GridMapping>;

impl GridEngine {
    /// Creates an engine with an `s × s` grid (`m = s²` cells, `s ≥ 1`).
    pub fn new(s: usize) -> Self {
        Self::from_mapping(GridMapping::new(s))
    }

    /// Grid side length `√m`.
    pub fn side(&self) -> usize {
        self.mapping().side()
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
    fn matches_warshall_across_grid_sides() {
        let a = bool_adj(6, &[(0, 3), (3, 5), (5, 1), (1, 4), (4, 0)]);
        let want = warshall(&a);
        for s in [1usize, 2, 3, 4] {
            let eng = GridEngine::new(s);
            let (got, stats) = ClosureEngine::<Bool>::closure(&eng, &a).unwrap();
            assert_eq!(got, want, "s={s}");
            assert_eq!(stats.memory_connections, 2 * s);
            assert_eq!(stats.cells, s * s);
        }
    }

    #[test]
    fn matches_warshall_minplus() {
        let n = 7;
        let mut a = DenseMatrix::<MinPlus>::zeros(n, n);
        for (i, j, w) in [
            (0usize, 1usize, 3u64),
            (1, 4, 2),
            (4, 6, 8),
            (6, 2, 1),
            (2, 0, 5),
            (3, 5, 7),
            (5, 3, 7),
        ] {
            a.set(i, j, w);
        }
        let eng = GridEngine::new(2);
        let (got, _) = ClosureEngine::<MinPlus>::closure(&eng, &a).unwrap();
        assert_eq!(got, warshall(&a));
    }

    #[test]
    fn chained_instances() {
        let a = bool_adj(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let b = bool_adj(5, &[(4, 0), (0, 2), (2, 4)]);
        let eng = GridEngine::new(2);
        let (got, _) = ClosureEngine::<Bool>::closure_many(&eng, &[a.clone(), b.clone()]).unwrap();
        assert_eq!(got[0], warshall(&a));
        assert_eq!(got[1], warshall(&b));
    }

    #[test]
    fn grid_and_linear_have_same_useful_ops() {
        use crate::linear::LinearEngine;
        let a = bool_adj(6, &[(0, 5), (5, 3), (3, 1)]);
        let (_, gs) = ClosureEngine::<Bool>::closure(&GridEngine::new(2), &a).unwrap();
        let (_, ls) = ClosureEngine::<Bool>::closure(&LinearEngine::new(4), &a).unwrap();
        assert_eq!(gs.useful_ops, ls.useful_ops);
        assert_eq!(gs.useful_ops, (6 * 5 * 4) as u64);
    }
}
