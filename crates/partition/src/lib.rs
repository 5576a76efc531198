//! Partitioning of the transitive-closure G-graph onto fixed-size
//! systolic arrays — the paper's core contribution (§2–§3) — and of the
//! §4.3 elimination algorithms onto the same arrays.
//!
//! Every engine is a [`Mapping`] (pure geometry: cell count, task
//! placement, stream wiring) executed by the one generic [`MappedEngine`]
//! (plan memoization, simulator recycling, fault arming, trace capture,
//! output reassembly). All close over a bounded idempotent semiring and
//! run on the cycle-level simulator (`systolic-arraysim`):
//!
//! * [`FixedArrayEngine`] — the Fig. 17 G-graph implemented directly as an
//!   `n × (n+1)` array (fixed-size problems, throughput `1/n`).
//! * [`FixedLinearEngine`] — each G-graph row collapsed into one cell
//!   (§3.2's linear fixed array, throughput `1/(n(n+1))`).
//! * [`LinearEngine`] — cut-and-pile (LPGS) onto `m` cells (Fig. 18):
//!   G-sets are `m` consecutive skewed positions of one row, scheduled by
//!   vertical paths (Fig. 20a), one private memory bank per cell plus one
//!   pivot boundary bank (`m + 1` memory connections).
//! * [`GridEngine`] — cut-and-pile onto `√m × √m` cells (Fig. 19):
//!   G-sets are `√m × √m` blocks in `(k, h)` space with triangular
//!   boundary sets, `2√m` memory connections.
//! * [`LsgpEngine`] — coalescing (LSGP, §2): cell `c` owns the `h`-columns
//!   with `h ≡ c (mod m)`, buffering its own column streams locally
//!   (`Θ(n²/m)` words per cell, measured) while pivots ride a ring.
//!
//! Each mapping is a G-set assignment: a [`GsetSchedule`] (Fig. 20) that
//! places every G-node on a cell, plus the mapping's links and boundary
//! banks. One private plan compiler turns any assignment into a
//! [`CompiledPlan`]; debug builds run the schedule's dependence-legality
//! check on every plan, so the schedule experiment E10 reports is the one
//! that runs.
//!
//! The LPGS chain and the grid are also [`GraphMapping`]s: they place any
//! G-graph, and [`run_elimination`] runs LU and Faddeev (§4.3) on a
//! [`LinearEngine`] or a [`GridEngine`] through the same runner, plan
//! cache and simulator recycling as closure batches (see [`algo`]).
//!
//! [`ParallelEngine`] wraps any of the engines above and shards a batch of
//! instances across engine replicas on a persistent host-side worker pool:
//! bit-identical results for any thread count, merged stats folded in
//! instance order.
//!
//! [`PackedEngine`] bit-slices Boolean batches: up to 256 same-`n`
//! instances travel in the lanes of one lane word through a single
//! simulated run of the cached single-instance plan, each group on the
//! narrowest word that holds it (64, 128 or 256 lanes) — bit-identical to
//! [`LinearEngine`] at a fraction of the simulated events. It composes
//! under [`ParallelEngine`], which shards such batches in whole
//! simulations ([`ClosureEngine::preferred_chunk`]).
//!
//! The sparse data plane (`systolic-closure`) closes component DAGs in
//! software, by one ascending-id sweep. It meets these engines only
//! through [`AdmissionBatcher`]: a batched service hands the array the
//! component DAG of a recompute when it has at most 64 components.
//!
//! ```
//! use systolic_partition::{ClosureEngine, LinearEngine};
//! use systolic_semiring::{warshall, Bool, DenseMatrix};
//!
//! // A 5-vertex problem partitioned onto 2 cells (m ≪ n).
//! let mut a = DenseMatrix::<Bool>::zeros(5, 5);
//! a.set(0, 3, true);
//! a.set(3, 1, true);
//! let engine = LinearEngine::new(2);
//! let (closure, stats) = engine.closure(&a).unwrap();
//! assert_eq!(closure, warshall(&a));
//! assert_eq!(stats.memory_connections, 3); // m + 1
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod algo;
mod compile;
pub mod engine;
pub mod fault;
pub mod fixed;
pub mod grid;
pub mod linear;
pub mod lsgp;
pub mod mapping;
pub mod packed;
pub mod parallel;
pub mod plan;
pub mod recover;
pub mod schedule;
pub mod verify;

pub use admission::{AdmissionBatcher, AdmissionStats, FlushReport, Ticket};
pub use algo::{elimination_input, level_durations, run_elimination, run_elimination_timed, Algo};
pub use engine::{ClosureEngine, EngineError};
pub use fault::{grid_fault_capacity, linear_fault_capacity, FaultyLinearEngine};
pub use fixed::{FixedArrayEngine, FixedArrayMapping, FixedLinearEngine, FixedLinearMapping};
pub use grid::{GridEngine, GridMapping};
pub use linear::{LinearEngine, LpgsMapping};
pub use lsgp::{LsgpEngine, LsgpMapping};
pub use mapping::{GraphMapping, MappedEngine, Mapping};
pub use packed::{PackedEngine, PackedPlane};
pub use parallel::ParallelEngine;
pub use plan::CompiledPlan;
pub use recover::{Escalation, FaultAware, RecoveringEngine, RecoveryPolicy};
pub use schedule::{GsetSchedule, Placed, ScheduleEntry};
pub use verify::{col_folds, row_folds, verify_closure};
