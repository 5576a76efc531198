//! The engine-agnostic solver facade.

use crate::graph::{DiGraph, Reachability, WeightedDiGraph};
use systolic_arraysim::RunStats;
use systolic_baselines::NunezEngine;
use systolic_partition::{
    ClosureEngine, EngineError, FixedArrayEngine, FixedLinearEngine, GridEngine, LinearEngine,
    LsgpEngine,
};
use systolic_semiring::{warshall, BitMatrix, DenseMatrix, MaxMin, MinMax, MinPlus, PathSemiring};

/// Which implementation computes the closure.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Backend {
    /// Software Warshall reference (scalar).
    Reference,
    /// Bit-parallel software Warshall (Boolean problems only; other
    /// semirings fall back to the scalar reference).
    BitParallel,
    /// Simulated Fig. 17 fixed-size array.
    FixedArray,
    /// Simulated §3.2 linear fixed-size array.
    FixedLinear,
    /// Simulated linear partitioned array (Fig. 18) with `cells` cells.
    Linear {
        /// Cell count `m`.
        cells: usize,
    },
    /// Simulated 2-D partitioned array (Fig. 19) with `side × side` cells.
    Grid {
        /// Grid side `√m`.
        side: usize,
    },
    /// Simulated coalescing (LSGP, §2) ring with `cells` cells.
    Lsgp {
        /// Cell count `m`.
        cells: usize,
    },
    /// Núñez–Torralba blocked decomposition with tile side `tile`.
    Blocked {
        /// Tile side `b`.
        tile: usize,
    },
}

/// What a solve cost, when the backend is a simulated array.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SolveReport {
    /// Simulator counters (zeroed for software backends).
    pub stats: RunStats,
    /// Backend description.
    pub backend: String,
}

/// Solver facade over all engines.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct ClosureSolver {
    backend: Backend,
}

impl ClosureSolver {
    /// Creates a solver with the given backend.
    pub fn new(backend: Backend) -> Self {
        Self { backend }
    }

    /// The configured backend.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// Generic algebraic path closure of a matrix.
    ///
    /// # Errors
    /// Propagates engine failures (shape errors, simulator deadlock).
    pub fn closure_matrix<S: PathSemiring>(
        &self,
        a: &DenseMatrix<S>,
    ) -> Result<(DenseMatrix<S>, SolveReport), EngineError> {
        let run =
            |eng: &dyn ClosureEngine<S>| -> Result<(DenseMatrix<S>, SolveReport), EngineError> {
                let (m, stats) = eng.closure(a)?;
                Ok((
                    m,
                    SolveReport {
                        stats,
                        backend: eng.name().to_string(),
                    },
                ))
            };
        match self.backend {
            Backend::Reference | Backend::BitParallel => Ok((
                warshall(a),
                SolveReport {
                    stats: RunStats::default(),
                    backend: "software-warshall".into(),
                },
            )),
            Backend::FixedArray => run(&FixedArrayEngine::new()),
            Backend::FixedLinear => run(&FixedLinearEngine::new()),
            Backend::Linear { cells } => run(&LinearEngine::new(cells)),
            Backend::Grid { side } => run(&GridEngine::new(side)),
            Backend::Lsgp { cells } => run(&LsgpEngine::new(cells)),
            Backend::Blocked { tile } => {
                let (m, _cost) = NunezEngine::new(tile).closure(a)?;
                Ok((
                    m,
                    SolveReport {
                        stats: RunStats::default(),
                        backend: "nunez-blocked".into(),
                    },
                ))
            }
        }
    }

    /// Transitive closure of a directed graph.
    ///
    /// # Errors
    /// Propagates engine failures.
    pub fn transitive_closure(&self, g: &DiGraph) -> Result<Reachability, EngineError> {
        Ok(self.transitive_closure_with_report(g)?.0)
    }

    /// Transitive closure plus the run report. The bit-parallel backend
    /// closes a bit matrix built from the successor lists, one bit per
    /// pair, and answers from it.
    ///
    /// # Errors
    /// Propagates engine failures.
    pub fn transitive_closure_with_report(
        &self,
        g: &DiGraph,
    ) -> Result<(Reachability, SolveReport), EngineError> {
        if self.backend == Backend::BitParallel {
            let mut bits = BitMatrix::identity(g.n());
            for u in 0..g.n() {
                for &v in g.successors(u) {
                    bits.set(u, v, true);
                }
            }
            bits.warshall_in_place();
            return Ok((
                Reachability::from_bits(bits),
                SolveReport {
                    stats: RunStats::default(),
                    backend: "software-bitparallel".into(),
                },
            ));
        }
        let (m, rep) = self.closure_matrix(&g.adjacency_matrix())?;
        Ok((Reachability::from_matrix(&m), rep))
    }

    /// All-pairs shortest path distances (min-plus closure).
    ///
    /// # Errors
    /// Propagates engine failures.
    pub fn shortest_paths(&self, g: &WeightedDiGraph) -> Result<DenseMatrix<MinPlus>, EngineError> {
        Ok(self.closure_matrix(&g.distance_matrix())?.0)
    }

    /// All-pairs maximum-capacity (widest) path values (max-min closure).
    ///
    /// # Errors
    /// Propagates engine failures.
    pub fn widest_paths(&self, g: &WeightedDiGraph) -> Result<DenseMatrix<MaxMin>, EngineError> {
        Ok(self.closure_matrix(&g.capacity_matrix())?.0)
    }

    /// All-pairs minimax path values (min-max closure).
    ///
    /// # Errors
    /// Propagates engine failures.
    pub fn minimax_paths(&self, g: &WeightedDiGraph) -> Result<DenseMatrix<MinMax>, EngineError> {
        Ok(self.closure_matrix(&g.minimax_matrix())?.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{cycle, gnp, random_weighted};

    fn all_backends(n: usize) -> Vec<Backend> {
        vec![
            Backend::Reference,
            Backend::BitParallel,
            Backend::FixedArray,
            Backend::FixedLinear,
            Backend::Linear { cells: 3 },
            Backend::Grid { side: 2 },
            Backend::Lsgp { cells: 3 },
            Backend::Blocked {
                tile: n.div_ceil(2),
            },
        ]
    }

    #[test]
    fn all_backends_agree_on_reachability() {
        let g = gnp(7, 0.25, 99);
        let want = ClosureSolver::new(Backend::Reference)
            .transitive_closure(&g)
            .unwrap();
        for b in all_backends(7) {
            let got = ClosureSolver::new(b).transitive_closure(&g).unwrap();
            assert_eq!(got, want, "{b:?}");
        }
    }

    #[test]
    fn all_backends_agree_on_shortest_paths() {
        let g = random_weighted(6, 0.4, 1, 20, 5);
        let want = ClosureSolver::new(Backend::Reference)
            .shortest_paths(&g)
            .unwrap();
        for b in all_backends(6) {
            let got = ClosureSolver::new(b).shortest_paths(&g).unwrap();
            assert_eq!(got, want, "{b:?}");
        }
    }

    #[test]
    fn widest_and_minimax_on_array_backends() {
        let g = random_weighted(5, 0.5, 1, 9, 8);
        let reference = ClosureSolver::new(Backend::Reference);
        let array = ClosureSolver::new(Backend::Linear { cells: 2 });
        assert_eq!(
            reference.widest_paths(&g).unwrap(),
            array.widest_paths(&g).unwrap()
        );
        assert_eq!(
            reference.minimax_paths(&g).unwrap(),
            array.minimax_paths(&g).unwrap()
        );
    }

    #[test]
    fn bitparallel_matches_reference_and_names_its_backend() {
        let g = gnp(33, 0.1, 4);
        let want = ClosureSolver::new(Backend::Reference)
            .transitive_closure(&g)
            .unwrap();
        let solver = ClosureSolver::new(Backend::BitParallel);
        assert_eq!(solver.transitive_closure(&g).unwrap(), want);
        let (reach, rep) = solver.transitive_closure_with_report(&g).unwrap();
        assert_eq!(reach, want);
        assert_eq!(rep.backend, "software-bitparallel");
    }

    #[test]
    fn zero_sized_backends_error_instead_of_panicking() {
        let g = cycle(4);
        for b in [
            Backend::Linear { cells: 0 },
            Backend::Grid { side: 0 },
            Backend::Lsgp { cells: 0 },
            Backend::Blocked { tile: 0 },
        ] {
            match ClosureSolver::new(b).transitive_closure(&g) {
                Err(EngineError::BadInput(msg)) => {
                    assert!(!msg.is_empty(), "{b:?} must explain the rejection")
                }
                other => panic!("{b:?}: expected BadInput, got {other:?}"),
            }
        }
    }

    #[test]
    fn report_carries_simulator_stats() {
        let g = cycle(5);
        let solver = ClosureSolver::new(Backend::Linear { cells: 2 });
        let (_, rep) = solver.transitive_closure_with_report(&g).unwrap();
        assert_eq!(rep.backend, "linear-partitioned");
        assert!(rep.stats.cycles > 0);
        assert_eq!(rep.stats.memory_connections, 3);
    }
}
