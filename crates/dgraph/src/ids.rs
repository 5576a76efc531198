//! Identifier and tag types for dependence graphs.

use std::fmt;

/// Index of a node within its [`crate::graph::DependenceGraph`].
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The node's index as `usize`.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Operation performed by a node.
///
/// `Fuse` is the transitive-closure primitive `x ⊕ (p ⊗ q)` — one node of
/// the paper's Fig. 10. The arithmetic kinds (`Div`, `MulSub`, `Rot`,
/// `ApplyRot`) appear in the §4.3 graphs (LU, Faddeev, Givens) where what
/// matters to the methodology is their *computation time*, carried in
/// [`crate::graph::Node::cost`].
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// External input terminal (provides one matrix element).
    Input,
    /// `XOut = X ⊕ (P ⊗ Q)`; forwards `P`/`Q` when pipelined.
    Fuse,
    /// Identity on every connected port, one time-step of delay (the
    /// regularization nodes of Fig. 15c).
    Delay,
    /// Reciprocal/division node (LU pivot column, Faddeev elimination).
    Div,
    /// Multiply-subtract update node (LU/Faddeev interior).
    MulSub,
    /// Rotation-generation node (Givens triangularization).
    Rot,
    /// Rotation-application node (Givens triangularization).
    ApplyRot,
}

impl OpKind {
    /// True for nodes that perform useful algorithm work (as opposed to
    /// inputs and inserted delays) — the numerator of the paper's
    /// utilization measure.
    #[inline]
    pub fn is_compute(self) -> bool {
        !matches!(self, OpKind::Input | OpKind::Delay)
    }
}

/// Typed data port of a node.
///
/// For `Fuse`: `X` is the running value `x_ij`, `P` the pivot-column operand
/// `x_ik`, `Q` the pivot-row operand `x_kj`. Transformed graphs reuse `P`/`Q`
/// as the pipelined pass-through lanes. Other op kinds use `X`/`P`/`Q` as
/// their first/second/third operand lanes.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Port {
    /// Value lane.
    X,
    /// Pivot-column lane.
    P,
    /// Pivot-row lane.
    Q,
}

/// Algorithm coordinates of a node: iteration level `k` and matrix indices
/// `(i, j)`. Input terminals use `level = 0`; level `k ≥ 1` computes `X^k`.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct Coord {
    /// Outer-loop level (`k` of Warshall), with 0 = inputs.
    pub level: u32,
    /// Matrix row index `i`.
    pub row: u32,
    /// Matrix column index `j`.
    pub col: u32,
}

impl Coord {
    /// Convenience constructor.
    #[inline]
    pub fn new(level: u32, row: u32, col: u32) -> Self {
        Self { level, row, col }
    }
}

/// Layout position used by the transformation passes to reason about flow
/// direction in the drawing plane: `x` grows rightward, `y` grows downward.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct Pos {
    /// Horizontal drawing coordinate.
    pub x: i64,
    /// Vertical drawing coordinate.
    pub y: i64,
}

impl Pos {
    /// Convenience constructor.
    #[inline]
    pub fn new(x: i64, y: i64) -> Self {
        Self { x, y }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compute_classification() {
        assert!(OpKind::Fuse.is_compute());
        assert!(OpKind::Div.is_compute());
        assert!(!OpKind::Input.is_compute());
        assert!(!OpKind::Delay.is_compute());
    }

    #[test]
    fn node_id_debug_format() {
        assert_eq!(format!("{:?}", NodeId(7)), "n7");
    }
}
