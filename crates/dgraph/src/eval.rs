//! Functional evaluation of dependence graphs over a semiring.
//!
//! Evaluation is the semantic ground truth for the transformation passes:
//! a pass is correct iff the evaluated output matrix is unchanged. `Fuse`
//! and `Delay` nodes also *forward* their `P`/`Q`/`X` operands on the
//! matching output lanes, which is what lets pipelined (broadcast-free)
//! graphs evaluate with the same machinery.

use crate::graph::DependenceGraph;
use crate::ids::{OpKind, Port};
use systolic_semiring::{DenseMatrix, Semiring};

/// Evaluation failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EvalError {
    /// The graph contains a cycle.
    Cyclic,
    /// A node input lane was required but not driven and had no default.
    MissingInput {
        /// Offending node index.
        node: usize,
        /// Undriven lane.
        port: Port,
    },
    /// A declared output's producing lane carried no value.
    MissingOutput {
        /// Output element row.
        i: u32,
        /// Output element column.
        j: u32,
    },
    /// The provided matrix does not match the graph's problem size.
    ShapeMismatch,
}

impl std::fmt::Display for EvalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvalError::Cyclic => write!(f, "dependence graph has a cycle"),
            EvalError::MissingInput { node, port } => {
                write!(f, "node n{node} lane {port:?} is not driven")
            }
            EvalError::MissingOutput { i, j } => {
                write!(f, "output element ({i},{j}) has no value")
            }
            EvalError::ShapeMismatch => write!(f, "input matrix shape mismatch"),
        }
    }
}

impl std::error::Error for EvalError {}

#[inline]
fn lane_index(p: Port) -> usize {
    match p {
        Port::X => 0,
        Port::P => 1,
        Port::Q => 2,
    }
}

/// Evaluates a transitive-closure-family graph on input matrix `a`.
///
/// Input terminals registered as `(i, j)` read `a[i][j]`. `Delay` nodes
/// with no driven lanes act as `0̸` sources.
///
/// # Errors
/// See [`EvalError`].
pub fn eval_closure_graph<S: Semiring>(
    g: &DependenceGraph,
    a: &DenseMatrix<S>,
) -> Result<DenseMatrix<S>, EvalError> {
    eval_with_inputs_mode(
        g,
        |i, j| {
            if (i as usize) < a.rows() && (j as usize) < a.cols() {
                Some(a.get(i as usize, j as usize).clone())
            } else {
                None
            }
        },
        false,
    )
}

/// Evaluates a Gaussian-elimination-family graph
/// ([`crate::builders::lu_graph`], [`crate::builders::faddeev_graph`])
/// numerically: `Div` nodes compute [`Semiring::div`], `MulSub` nodes
/// compute [`Semiring::elim`]. Only semirings with those operations (the
/// reals) can run this; path semirings panic by design.
///
/// The result is the in-place elimination state: for LU, the compact
/// `L\U` factor matrix; for Faddeev, the compound matrix after `n`
/// elimination levels, whose lower-right block is the Schur complement
/// `D + C·A⁻¹·B`.
///
/// # Errors
/// See [`EvalError`].
pub fn eval_elimination_graph<S: Semiring>(
    g: &DependenceGraph,
    a: &DenseMatrix<S>,
) -> Result<DenseMatrix<S>, EvalError> {
    if a.rows() != g.n() || a.cols() != g.n() {
        return Err(EvalError::ShapeMismatch);
    }
    eval_with_inputs_mode(g, |i, j| Some(a.get(i as usize, j as usize).clone()), true)
}

fn eval_with_inputs_mode<S: Semiring>(
    g: &DependenceGraph,
    input_value: impl Fn(u32, u32) -> Option<S::Elem>,
    numeric: bool,
) -> Result<DenseMatrix<S>, EvalError> {
    let order = g.topo_order().map_err(|_| EvalError::Cyclic)?;
    // Per node: the three output-lane values.
    let mut out: Vec<[Option<S::Elem>; 3]> = vec![[None, None, None]; g.node_count()];
    let inn = g.in_edges();

    // Resolve input terminals first.
    let mut input_of_node: Vec<Option<(u32, u32)>> = vec![None; g.node_count()];
    for i in 0..(2 * g.n()) as u32 {
        for j in 0..g.n() as u32 {
            if let Some(nd) = g.input(i, j) {
                input_of_node[nd.index()] = Some((i, j));
            }
        }
    }

    for &u in &order {
        let node = g.node(u);
        // Gather driven input lanes.
        let mut lanes: [Option<S::Elem>; 3] = [None, None, None];
        for e in &inn[u.index()] {
            let v =
                out[e.src.index()][lane_index(e.sport)]
                    .clone()
                    .ok_or(EvalError::MissingInput {
                        node: e.src.index(),
                        port: e.sport,
                    })?;
            lanes[lane_index(e.dport)] = Some(v);
        }
        let ui = u.index();
        match node.kind {
            OpKind::Input => {
                let (i, j) = input_of_node[ui].ok_or(EvalError::MissingInput {
                    node: ui,
                    port: Port::X,
                })?;
                let v = input_value(i, j).ok_or(EvalError::MissingInput {
                    node: ui,
                    port: Port::X,
                })?;
                out[ui][0] = Some(v);
            }
            OpKind::Fuse => {
                let x = lanes[0].clone().ok_or(EvalError::MissingInput {
                    node: ui,
                    port: Port::X,
                })?;
                let p = lanes[1].clone().ok_or(EvalError::MissingInput {
                    node: ui,
                    port: Port::P,
                })?;
                let q = lanes[2].clone().ok_or(EvalError::MissingInput {
                    node: ui,
                    port: Port::Q,
                })?;
                out[ui][0] = Some(S::fuse(&x, &p, &q));
                out[ui][1] = Some(p);
                out[ui][2] = Some(q);
            }
            OpKind::Delay => {
                // Pass every driven lane through; an undriven Delay is a 0̸
                // source on X.
                if lanes.iter().all(Option::is_none) {
                    out[ui][0] = Some(S::zero());
                } else {
                    out[ui] = lanes;
                }
            }
            // Division head of an elimination level: l = x / p.
            OpKind::Div if numeric => {
                let x = lanes[0].clone().ok_or(EvalError::MissingInput {
                    node: ui,
                    port: Port::X,
                })?;
                let p = lanes[1].clone().ok_or(EvalError::MissingInput {
                    node: ui,
                    port: Port::P,
                })?;
                out[ui][0] = Some(S::div(&x, &p));
                out[ui][1] = Some(p);
            }
            // Trailing update of an elimination level: x' = x - p·q.
            OpKind::MulSub if numeric => {
                let x = lanes[0].clone().ok_or(EvalError::MissingInput {
                    node: ui,
                    port: Port::X,
                })?;
                let p = lanes[1].clone().ok_or(EvalError::MissingInput {
                    node: ui,
                    port: Port::P,
                })?;
                let q = lanes[2].clone().ok_or(EvalError::MissingInput {
                    node: ui,
                    port: Port::Q,
                })?;
                out[ui][0] = Some(S::elim(&x, &p, &q));
                out[ui][1] = Some(p);
                out[ui][2] = Some(q);
            }
            // Arithmetic kinds outside numeric mode (and rotations, which
            // need the dedicated [`eval_givens_graph`] evaluator) are
            // structural-only: encountering one during semiring evaluation
            // is a usage error surfaced as a missing output downstream. They
            // still forward operands so pass-through analyses work.
            OpKind::Div | OpKind::MulSub | OpKind::Rot | OpKind::ApplyRot => {
                out[ui] = lanes;
            }
        }
    }

    let n = g.n();
    let mut result = DenseMatrix::<S>::zeros(n, n);
    for i in 0..n as u32 {
        for j in 0..n as u32 {
            let (nd, port) = g.output(i, j).ok_or(EvalError::MissingOutput { i, j })?;
            let v = out[nd.index()][lane_index(port)]
                .clone()
                .ok_or(EvalError::MissingOutput { i, j })?;
            result.set(i as usize, j as usize, v);
        }
    }
    Ok(result)
}

/// A dataflow value inside the Givens evaluator: either a scalar matrix
/// element or a generated rotation `(c, s)`.
#[derive(Copy, Clone, Debug)]
enum GivensLane {
    Val(f64),
    Rot { c: f64, s: f64 },
}

#[inline]
fn givens_scalar(v: Option<GivensLane>, node: usize, port: Port) -> Result<f64, EvalError> {
    match v {
        Some(GivensLane::Val(x)) => Ok(x),
        _ => Err(EvalError::MissingInput { node, port }),
    }
}

/// Evaluates a [`crate::builders::givens_graph`] numerically over the
/// reals. A `Rot` node with leading elements `(x, p)` produces
/// `r = hypot(x, p)` on its `P` lane (the new diagonal element), and the
/// rotation `(c, s) = (x/r, p/r)` on its `X` lane — which doubles as the
/// annihilated element (read back as `0.0` at the outputs). `ApplyRot`
/// rotates a column pair: `X' = c·x + s·p`, `P' = -s·x + c·p`.
///
/// # Errors
/// See [`EvalError`]; a lane carrying a rotation where a scalar is needed
/// (or vice versa) is reported as [`EvalError::MissingInput`].
pub fn eval_givens_graph(
    g: &DependenceGraph,
    a: &DenseMatrix<systolic_semiring::Real>,
) -> Result<DenseMatrix<systolic_semiring::Real>, EvalError> {
    if a.rows() != g.n() || a.cols() != g.n() {
        return Err(EvalError::ShapeMismatch);
    }
    let order = g.topo_order().map_err(|_| EvalError::Cyclic)?;
    let mut out: Vec<[Option<GivensLane>; 3]> = vec![[None, None, None]; g.node_count()];
    let inn = g.in_edges();

    let mut input_of_node: Vec<Option<(u32, u32)>> = vec![None; g.node_count()];
    for i in 0..g.n() as u32 {
        for j in 0..g.n() as u32 {
            if let Some(nd) = g.input(i, j) {
                input_of_node[nd.index()] = Some((i, j));
            }
        }
    }

    for &u in &order {
        let node = g.node(u);
        let mut lanes: [Option<GivensLane>; 3] = [None, None, None];
        for e in &inn[u.index()] {
            let v = out[e.src.index()][lane_index(e.sport)].ok_or(EvalError::MissingInput {
                node: e.src.index(),
                port: e.sport,
            })?;
            lanes[lane_index(e.dport)] = Some(v);
        }
        let ui = u.index();
        match node.kind {
            OpKind::Input => {
                let (i, j) = input_of_node[ui].ok_or(EvalError::MissingInput {
                    node: ui,
                    port: Port::X,
                })?;
                out[ui][0] = Some(GivensLane::Val(*a.get(i as usize, j as usize)));
            }
            OpKind::Delay => {
                if lanes.iter().all(Option::is_none) {
                    out[ui][0] = Some(GivensLane::Val(0.0));
                } else {
                    out[ui] = lanes;
                }
            }
            OpKind::Rot => {
                let x = givens_scalar(lanes[0], ui, Port::X)?;
                let p = givens_scalar(lanes[1], ui, Port::P)?;
                let r = x.hypot(p);
                let (c, s) = if r == 0.0 { (1.0, 0.0) } else { (x / r, p / r) };
                out[ui][0] = Some(GivensLane::Rot { c, s });
                out[ui][1] = Some(GivensLane::Val(r));
            }
            OpKind::ApplyRot => {
                let x = givens_scalar(lanes[0], ui, Port::X)?;
                let p = givens_scalar(lanes[1], ui, Port::P)?;
                let (c, s) = match lanes[2] {
                    Some(GivensLane::Rot { c, s }) => (c, s),
                    _ => {
                        return Err(EvalError::MissingInput {
                            node: ui,
                            port: Port::Q,
                        })
                    }
                };
                out[ui][0] = Some(GivensLane::Val(c * x + s * p));
                out[ui][1] = Some(GivensLane::Val(-s * x + c * p));
            }
            // Non-Givens kinds just forward, as in the structural evaluator.
            OpKind::Fuse | OpKind::Div | OpKind::MulSub => {
                out[ui] = lanes;
            }
        }
    }

    let n = g.n();
    let mut result = DenseMatrix::<systolic_semiring::Real>::zeros(n, n);
    for i in 0..n as u32 {
        for j in 0..n as u32 {
            let (nd, port) = g.output(i, j).ok_or(EvalError::MissingOutput { i, j })?;
            let v = match out[nd.index()][lane_index(port)] {
                Some(GivensLane::Val(v)) => v,
                // An output that reads a rotation lane is the annihilated
                // sub-diagonal element: exactly zero by construction.
                Some(GivensLane::Rot { .. }) => 0.0,
                None => return Err(EvalError::MissingOutput { i, j }),
            };
            result.set(i as usize, j as usize, v);
        }
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::{closure_full, closure_lean, faddeev_graph, givens_graph, lu_graph};
    use systolic_semiring::{reflexive, warshall, Bool, MinPlus, Real};

    fn bool_adj(n: usize, edges: &[(usize, usize)]) -> DenseMatrix<Bool> {
        let mut m = DenseMatrix::<Bool>::zeros(n, n);
        for &(i, j) in edges {
            m.set(i, j, true);
        }
        m
    }

    #[test]
    fn full_graph_computes_warshall_bool() {
        let a = bool_adj(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let want = warshall(&a);
        // The graph expects the reflexive matrix as X⁰ (paper convention).
        let got = eval_closure_graph::<Bool>(&closure_full(4), &reflexive(&a)).unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn lean_graph_matches_full_graph() {
        let a = bool_adj(5, &[(0, 2), (2, 4), (4, 1), (1, 3)]);
        let ar = reflexive(&a);
        let full = eval_closure_graph::<Bool>(&closure_full(5), &ar).unwrap();
        let lean = eval_closure_graph::<Bool>(&closure_lean(5), &ar).unwrap();
        assert_eq!(full, lean);
        assert_eq!(full, warshall(&a));
    }

    #[test]
    fn graphs_work_over_minplus() {
        let mut a = DenseMatrix::<MinPlus>::zeros(4, 4);
        a.set(0, 1, 3);
        a.set(1, 2, 4);
        a.set(2, 3, 1);
        a.set(0, 3, 99);
        let want = warshall(&a);
        let got = eval_closure_graph::<MinPlus>(&closure_lean(4), &reflexive(&a)).unwrap();
        assert_eq!(got, want);
        assert_eq!(*got.get(0, 3), 8);
    }

    #[test]
    fn shape_mismatch_detected() {
        let a = DenseMatrix::<Real>::zeros(3, 3);
        let err = eval_elimination_graph::<Real>(&lu_graph(4), &a).unwrap_err();
        assert_eq!(err, EvalError::ShapeMismatch);
    }

    /// Deterministic well-conditioned test matrix (diagonally dominant, so
    /// elimination without pivoting is stable).
    fn real_test_matrix(n: usize, seed: u64) -> DenseMatrix<Real> {
        DenseMatrix::<Real>::from_fn(n, n, |i, j| {
            let h = seed
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add((i * 131 + j * 17) as u64);
            let frac = (h % 1000) as f64 / 1000.0;
            if i == j {
                (n as f64) + 1.0 + frac
            } else {
                frac - 0.5
            }
        })
    }

    /// Straight-line in-place LU without pivoting: the reference every
    /// simulated elimination pipeline must match bit-for-bit.
    fn lu_reference(a: &DenseMatrix<Real>, levels: usize) -> DenseMatrix<Real> {
        let n = a.rows();
        let mut x = a.clone();
        for k in 0..levels {
            for i in k + 1..n {
                let l = x.get(i, k) / x.get(k, k);
                x.set(i, k, l);
            }
            for i in k + 1..n {
                for j in k + 1..n {
                    let v = x.get(i, j) - x.get(i, k) * x.get(k, j);
                    x.set(i, j, v);
                }
            }
        }
        x
    }

    #[test]
    fn lu_graph_matches_straight_line_reference_exactly() {
        for n in [2usize, 3, 5, 7] {
            let a = real_test_matrix(n, n as u64);
            let got = eval_elimination_graph::<Real>(&lu_graph(n), &a).unwrap();
            let want = lu_reference(&a, n - 1);
            for i in 0..n {
                for j in 0..n {
                    assert_eq!(got.get(i, j), want.get(i, j), "n={n} ({i},{j})");
                }
            }
        }
    }

    #[test]
    fn lu_factors_reproduce_the_input_matrix() {
        let n = 6;
        let a = real_test_matrix(n, 9);
        let f = eval_elimination_graph::<Real>(&lu_graph(n), &a).unwrap();
        // Expand L·U from the compact factor matrix (L unit-lower, U upper)
        // and compare to A.
        for i in 0..n {
            for j in 0..n {
                let mut v = 0.0;
                for k in 0..=i.min(j) {
                    let l = if k == i { 1.0 } else { *f.get(i, k) };
                    v += l * f.get(k, j);
                }
                assert!(
                    (v - a.get(i, j)).abs() < 1e-9,
                    "L·U mismatch at ({i},{j}): {v} vs {}",
                    a.get(i, j)
                );
            }
        }
    }

    /// Builds the Faddeev compound matrix `[[A, B], [-C, D]]`.
    fn faddeev_compound(
        a: &DenseMatrix<Real>,
        b: &DenseMatrix<Real>,
        c: &DenseMatrix<Real>,
        d: &DenseMatrix<Real>,
    ) -> DenseMatrix<Real> {
        let n = a.rows();
        DenseMatrix::<Real>::from_fn(2 * n, 2 * n, |i, j| match (i < n, j < n) {
            (true, true) => *a.get(i, j),
            (true, false) => *b.get(i, j - n),
            (false, true) => -*c.get(i - n, j),
            (false, false) => *d.get(i - n, j - n),
        })
    }

    #[test]
    fn faddeev_graph_matches_straight_line_reference_exactly() {
        let n = 3;
        let a = real_test_matrix(n, 1);
        let b = real_test_matrix(n, 2);
        let c = real_test_matrix(n, 3);
        let d = real_test_matrix(n, 4);
        let compound = faddeev_compound(&a, &b, &c, &d);
        let got = eval_elimination_graph::<Real>(&faddeev_graph(n), &compound).unwrap();
        let want = lu_reference(&compound, n); // only the first n pivots
        for i in 0..2 * n {
            for j in 0..2 * n {
                assert_eq!(got.get(i, j), want.get(i, j), "({i},{j})");
            }
        }
    }

    #[test]
    fn faddeev_lower_right_block_is_the_schur_complement() {
        // With A = I the Schur complement D + C·A⁻¹·B is exactly D + C·B.
        let n = 3;
        let a = DenseMatrix::<Real>::from_fn(n, n, |i, j| if i == j { 1.0 } else { 0.0 });
        let b = real_test_matrix(n, 11);
        let c = real_test_matrix(n, 12);
        let d = real_test_matrix(n, 13);
        let compound = faddeev_compound(&a, &b, &c, &d);
        let got = eval_elimination_graph::<Real>(&faddeev_graph(n), &compound).unwrap();
        for i in 0..n {
            for j in 0..n {
                let mut want = *d.get(i, j);
                for k in 0..n {
                    want += c.get(i, k) * b.get(k, j);
                }
                let v = *got.get(n + i, n + j);
                assert!(
                    (v - want).abs() < 1e-12,
                    "Schur mismatch at ({i},{j}): {v} vs {want}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "does not support Gaussian-elimination")]
    fn path_semirings_cannot_run_elimination_graphs() {
        let g = lu_graph(3);
        let a = DenseMatrix::<Bool>::from_fn(3, 3, |_, _| true);
        let _ = eval_elimination_graph::<Bool>(&g, &a);
    }

    /// Straight-line Givens triangularization, mirroring the graph's wave
    /// order exactly.
    fn givens_reference(a: &DenseMatrix<Real>) -> DenseMatrix<Real> {
        let n = a.rows();
        let mut x = a.clone();
        for k in 0..n - 1 {
            for i in k + 1..n {
                let (xkk, xik) = (*x.get(k, k), *x.get(i, k));
                let r = xkk.hypot(xik);
                let (c, s) = if r == 0.0 {
                    (1.0, 0.0)
                } else {
                    (xkk / r, xik / r)
                };
                for j in k + 1..n {
                    let (xkj, xij) = (*x.get(k, j), *x.get(i, j));
                    x.set(k, j, c * xkj + s * xij);
                    x.set(i, j, -s * xkj + c * xij);
                }
                x.set(k, k, r);
                x.set(i, k, 0.0);
            }
        }
        x
    }

    #[test]
    fn givens_graph_matches_straight_line_reference_exactly() {
        for n in [2usize, 3, 5] {
            let a = real_test_matrix(n, 100 + n as u64);
            let got = eval_givens_graph(&givens_graph(n), &a).unwrap();
            let want = givens_reference(&a);
            for i in 0..n {
                for j in 0..n {
                    assert_eq!(got.get(i, j), want.get(i, j), "n={n} ({i},{j})");
                }
            }
        }
    }

    #[test]
    fn givens_result_is_upper_triangular_with_preserved_norms() {
        let n = 5;
        let a = real_test_matrix(n, 77);
        let r = eval_givens_graph(&givens_graph(n), &a).unwrap();
        for i in 0..n {
            for j in 0..i {
                assert_eq!(*r.get(i, j), 0.0, "({i},{j}) not annihilated");
            }
        }
        // Orthogonal transformations preserve the Frobenius norm.
        let fro = |m: &DenseMatrix<Real>| -> f64 {
            let mut s = 0.0;
            for i in 0..n {
                for j in 0..n {
                    s += m.get(i, j) * m.get(i, j);
                }
            }
            s.sqrt()
        };
        assert!((fro(&a) - fro(&r)).abs() < 1e-9);
    }
}
