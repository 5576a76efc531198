//! User-facing API: transitive closure and algebraic path problems on
//! directed graphs, computed by any of the reproduced systolic engines or
//! the software references.
//!
//! ```
//! use systolic_closure::{DiGraph, Backend, ClosureSolver};
//!
//! let mut g = DiGraph::new(4);
//! g.add_edge(0, 1);
//! g.add_edge(1, 2);
//! g.add_edge(2, 3);
//! let solver = ClosureSolver::new(Backend::Linear { cells: 2 });
//! let reach = solver.transitive_closure(&g).unwrap();
//! assert!(reach.reachable(0, 3));
//! assert!(!reach.reachable(3, 0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod csr;
pub mod generators;
pub mod graph;
pub mod incremental;
pub mod paths;
pub mod solver;
pub mod sparse;

pub use csr::{read_edges, read_entries, CsrGraph, CsrStats, LoadError};
pub use generators::{
    bowtie, complete, cycle, gnp, gnp_csr, path, powerlaw, random_dag_csr, random_weighted, star,
    GraphKind,
};
pub use graph::{DiGraph, Reachability, WeightedDiGraph};
pub use incremental::{
    dag_bucket, rank_one_update, IncrementalClosure, IncrementalStats, RecomputeJob,
};
pub use paths::{shortest_paths_with_routes, RouteTable};
pub use solver::{Backend, ClosureSolver, SolveReport};
pub use sparse::{
    condense_csr, sparse_closure, ClosureMode, Fill, SparseClosure, SparseCondensation,
    SparseOptions, SparseStats,
};
