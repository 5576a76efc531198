//! Fully-parallel dependence graphs: the algorithm description the paper's
//! methodology starts from (§1–§2).
//!
//! A dependence graph here is a DAG whose nodes are scalar operations tagged
//! with *algorithm coordinates* `(level k, row i, col j)` and a *layout
//! position* used by the transformation passes, and whose edges carry typed
//! ports (`X` value-in, `P` pivot-column operand, `Q` pivot-row operand).
//!
//! Provided builders:
//! * [`builders::closure_full`] — the fully-parallel transitive-closure graph
//!   of Fig. 10 (all `n³` nodes),
//! * [`builders::closure_lean`] — with superfluous nodes removed (Fig. 11),
//! * [`builders::lu_graph`] / [`builders::faddeev_graph`] — the §4.3 examples
//!   with *varying* node computation times, both one
//!   [`builders::elimination_graph`] over `msize` with a level count.
//!
//! Analyses ([`analysis`]) quantify exactly the properties the paper's
//! transformations remove: broadcast fan-out, bi-directional flow, irregular
//! communication patterns; [`eval`] executes a graph over any semiring to
//! prove transformations preserve semantics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod builders;
pub mod dot;
pub mod eval;
pub mod graph;
pub mod ids;

pub use analysis::{
    broadcast_census, direction_census, level_histogram, longest_path, superfluous_count,
    BroadcastCensus, DirectionCensus,
};
pub use builders::{
    closure_full, closure_lean, elimination_graph, faddeev_graph, givens_graph, lu_graph,
};
pub use dot::{to_dot, DotOptions};
pub use eval::{eval_closure_graph, eval_elimination_graph, eval_givens_graph, EvalError};
pub use graph::{DependenceGraph, Edge, Node};
pub use ids::{Coord, NodeId, OpKind, Port, Pos};
