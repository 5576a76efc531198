//! Closed-semiring foundation for the systolic partitioning reproduction.
//!
//! The paper (Moreno & Lang, 1988) derives systolic arrays for *transitive
//! closure*, i.e. Warshall's algorithm over the Boolean semiring
//! `({0,1}, OR, AND)`. The identical dependence graph — and therefore the
//! identical G-graph, schedule and array — computes the whole family of
//! *algebraic path problems* when the scalar operations `⊕`/`⊗` are drawn
//! from any **bounded, idempotent semiring** (a "path semiring" below):
//!
//! * [`Bool`] — reachability / transitive closure (the paper's instance),
//! * [`MinPlus`] — all-pairs shortest paths (Floyd–Warshall),
//! * [`MaxMin`] — maximum-capacity (bottleneck) paths,
//! * [`MinMax`] — minimax paths (smallest maximum edge weight),
//! * [`BoolLanes`] — 64·W independent Boolean instances bit-sliced into
//!   the lanes of a `W`-word element, `W ∈ {1, 2, 4}` ([`lanes`]), the
//!   batch-throughput data plane.
//!
//! The non-idempotent [`Counting`] semiring is provided for matrix-product
//! substrates and law testing; it is deliberately **not** a [`PathSemiring`]
//! because Warshall's recurrence is not valid for it.
//!
//! The crate also provides the dense and bit-packed matrix containers and the
//! *reference kernels* (scalar Warshall, bit-parallel Warshall, closure by
//! repeated squaring) against which every simulated array in the workspace
//! is verified.
//!
//! ```
//! use systolic_semiring::{warshall, Bool, DenseMatrix, MinPlus};
//!
//! // Reachability over the Boolean semiring.
//! let mut a = DenseMatrix::<Bool>::zeros(3, 3);
//! a.set(0, 1, true);
//! a.set(1, 2, true);
//! let c = warshall(&a);
//! assert!(*c.get(0, 2));
//!
//! // The same recurrence computes shortest paths over min-plus.
//! let mut d = DenseMatrix::<MinPlus>::zeros(3, 3);
//! d.set(0, 1, 5);
//! d.set(1, 2, 7);
//! assert_eq!(*warshall(&d).get(0, 2), 12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitmatrix;
pub mod instances;
pub mod kernels;
pub mod lanes;
pub mod laws;
pub mod matrix;
pub mod swar;
pub mod traits;

pub use bitmatrix::BitMatrix;
pub use instances::{Bool, Counting, MaxMin, MinMax, MinPlus, Real};
pub use kernels::{closure_by_squaring, matmul, matmul_acc, reflexive, warshall, warshall_inplace};
pub use lanes::{
    pack_into_lanes, unpack_from_lanes, unpack_lane_of, BoolLanes, LaneSemiring, LaneWord,
};
pub use matrix::DenseMatrix;
pub use swar::{MinPlusSwar16, MinPlusSwar8};
pub use traits::{PathSemiring, Semiring};
