//! Builders for fully-parallel dependence graphs.
//!
//! Coordinates follow the paper: level `0` holds the input terminals
//! (`X⁰ = A`), and level `k ≥ 1` computes `X^k` using pivot `k-1`
//! (0-indexed). Layout positions place element `(i, j)` of level `k` at
//! drawing coordinates `x = j`, `y = k·n + i`, which is how Fig. 10 draws
//! the graph (levels stacked vertically).

use crate::graph::DependenceGraph;
use crate::ids::{Coord, NodeId, OpKind, Port, Pos};

/// Tracks the most recent producer of each matrix element while a builder
/// walks the levels.
struct LastWriter {
    n: usize,
    slots: Vec<(NodeId, Port)>,
}

impl LastWriter {
    fn new(n: usize, init: impl Fn(usize, usize) -> NodeId) -> Self {
        let mut slots = Vec::with_capacity(n * n);
        for i in 0..n {
            for j in 0..n {
                slots.push((init(i, j), Port::X));
            }
        }
        Self { n, slots }
    }
    #[inline]
    fn get(&self, i: usize, j: usize) -> (NodeId, Port) {
        self.slots[i * self.n + j]
    }
    #[inline]
    fn set(&mut self, i: usize, j: usize, v: (NodeId, Port)) {
        self.slots[i * self.n + j] = v;
    }
}

fn add_inputs(g: &mut DependenceGraph, n: usize) -> Vec<NodeId> {
    let mut ids = Vec::with_capacity(n * n);
    for i in 0..n {
        for j in 0..n {
            let id = g.add_node(
                OpKind::Input,
                Coord::new(0, i as u32, j as u32),
                Pos::new(j as i64, i as i64),
                0,
            );
            g.set_input(i as u32, j as u32, id);
            ids.push(id);
        }
    }
    ids
}

/// Fully-parallel transitive-closure dependence graph of **Fig. 10**:
/// every element `(i, j)` gets a `Fuse` node at every level, `n³` compute
/// nodes in total, with the two kinds of broadcast the paper describes
/// (pivot-row elements fan out down their column, pivot-column elements fan
/// out along their row).
pub fn closure_full(n: usize) -> DependenceGraph {
    let mut g = DependenceGraph::new(n);
    let inputs = add_inputs(&mut g, n);
    let mut last = LastWriter::new(n, |i, j| inputs[i * n + j]);
    for k in 0..n {
        let level = (k + 1) as u32;
        // Gather the producers of X^k before rewiring `last` for X^{k+1}.
        let prev: Vec<(NodeId, Port)> = (0..n * n).map(|t| last.get(t / n, t % n)).collect();
        for i in 0..n {
            for j in 0..n {
                let id = g.add_node(
                    OpKind::Fuse,
                    Coord::new(level, i as u32, j as u32),
                    Pos::new(j as i64, (level as i64) * n as i64 + i as i64),
                    1,
                );
                let (xs, xp) = prev[i * n + j];
                let (ps, pp) = prev[i * n + k];
                let (qs, qp) = prev[k * n + j];
                g.add_edge(xs, xp, id, Port::X);
                g.add_edge(ps, pp, id, Port::P);
                g.add_edge(qs, qp, id, Port::Q);
                last.set(i, j, (id, Port::X));
            }
        }
    }
    for i in 0..n {
        for j in 0..n {
            let (nd, p) = last.get(i, j);
            g.set_output(i as u32, j as u32, nd, p);
        }
    }
    g
}

/// Transitive-closure dependence graph with superfluous nodes removed
/// (**Fig. 11**): at level `k` the nodes with `i = k`, `j = k` or `i = j` do
/// not change their element (the paper's diagonal-element argument), so they
/// are elided and consumers read the element's previous producer directly.
///
/// Compute-node count is exactly `n(n-1)(n-2)` (§4.2).
pub fn closure_lean(n: usize) -> DependenceGraph {
    let mut g = DependenceGraph::new(n);
    let inputs = add_inputs(&mut g, n);
    let mut last = LastWriter::new(n, |i, j| inputs[i * n + j]);
    for k in 0..n {
        let level = (k + 1) as u32;
        let prev: Vec<(NodeId, Port)> = (0..n * n).map(|t| last.get(t / n, t % n)).collect();
        for i in 0..n {
            for j in 0..n {
                if i == k || j == k || i == j {
                    continue; // superfluous: x^{k+1}[i][j] = x^k[i][j]
                }
                let id = g.add_node(
                    OpKind::Fuse,
                    Coord::new(level, i as u32, j as u32),
                    Pos::new(j as i64, (level as i64) * n as i64 + i as i64),
                    1,
                );
                let (xs, xp) = prev[i * n + j];
                let (ps, pp) = prev[i * n + k];
                let (qs, qp) = prev[k * n + j];
                g.add_edge(xs, xp, id, Port::X);
                g.add_edge(ps, pp, id, Port::P);
                g.add_edge(qs, qp, id, Port::Q);
                last.set(i, j, (id, Port::X));
            }
        }
    }
    for i in 0..n {
        for j in 0..n {
            let (nd, p) = last.get(i, j);
            g.set_output(i as u32, j as u32, nd, p);
        }
    }
    g
}

/// Gaussian-elimination dependence graph (no pivoting) over an `msize ×
/// msize` matrix, eliminating pivots `0..levels` in place: level `k`
/// divides the column below pivot `k` by it (the multipliers `l_ik`) and
/// updates the trailing `(msize-k-1)²` block. LU and the Faddeev algorithm
/// are this graph with `msize - 1` and `msize / 2` levels — the shrinking
/// trapezoid behind the §4.3 varying computation times.
pub fn elimination_graph(msize: usize, levels: usize) -> DependenceGraph {
    let n = msize;
    let mut g = DependenceGraph::new(n);
    let inputs = add_inputs(&mut g, n);
    let mut last = LastWriter::new(n, |i, j| inputs[i * n + j]);
    for k in 0..levels {
        let level = (k + 1) as u32;
        let prev: Vec<(NodeId, Port)> = (0..n * n).map(|t| last.get(t / n, t % n)).collect();
        // Multiplier column: l_ik = x_ik / x_kk.
        let mut div_ids = vec![None; n];
        for i in k + 1..n {
            let id = g.add_node(
                OpKind::Div,
                Coord::new(level, i as u32, k as u32),
                Pos::new(k as i64, (level as i64) * n as i64 + i as i64),
                1,
            );
            let (xs, xp) = prev[i * n + k];
            let (ps, pp) = prev[k * n + k];
            g.add_edge(xs, xp, id, Port::X);
            g.add_edge(ps, pp, id, Port::P);
            last.set(i, k, (id, Port::X));
            div_ids[i] = Some(id);
        }
        // Trailing update: x_ij ← x_ij - l_ik · x_kj.
        for i in k + 1..n {
            for j in k + 1..n {
                let id = g.add_node(
                    OpKind::MulSub,
                    Coord::new(level, i as u32, j as u32),
                    Pos::new(j as i64, (level as i64) * n as i64 + i as i64),
                    1,
                );
                let (xs, xp) = prev[i * n + j];
                let (qs, qp) = prev[k * n + j];
                g.add_edge(xs, xp, id, Port::X);
                g.add_edge(div_ids[i].expect("divider exists"), Port::X, id, Port::P);
                g.add_edge(qs, qp, id, Port::Q);
                last.set(i, j, (id, Port::X));
            }
        }
    }
    for i in 0..n {
        for j in 0..n {
            let (nd, p) = last.get(i, j);
            g.set_output(i as u32, j as u32, nd, p);
        }
    }
    g
}

/// LU-decomposition dependence graph (no pivoting), one of the paper's §4.3
/// examples of algorithms whose G-nodes have **varying computation time**:
/// level `k` touches a shrinking `(n-k-1)²` trapezoid, so path lengths (and
/// therefore G-node times) decrease monotonically across the graph
/// (Fig. 22a's tagged computation times).
pub fn lu_graph(n: usize) -> DependenceGraph {
    elimination_graph(n, n.saturating_sub(1))
}

/// Faddeev-algorithm dependence graph: Gaussian elimination of the `A` block
/// of `[[A, B], [-C, D]]`, producing `D + C·A⁻¹·B` in the lower-right block.
/// Like LU it has a trapezoidal iteration space — the second §4.3 example of
/// varying G-node computation times (the paper's companion report \[21\]
/// partitions this algorithm).
///
/// The graph is over the `2n × 2n` augmented matrix; only the first `n`
/// pivots are eliminated.
pub fn faddeev_graph(n: usize) -> DependenceGraph {
    elimination_graph(2 * n, n)
}

/// Givens-rotation triangularization (QR) dependence graph — the paper's
/// remaining §4.3 example. Wave `k` generates one rotation against the
/// pivot row (`Rot` node at `(k, k+?, k)` per eliminated row, done row by
/// row here in the standard systolic order: row `i > k` is rotated against
/// row `k`) and applies it across columns `j > k` (`ApplyRot` nodes).
///
/// Structurally (counts, varying path lengths) this is what §4.3 uses; like
/// LU it has a shrinking trapezoid per wave.
pub fn givens_graph(n: usize) -> DependenceGraph {
    let mut g = DependenceGraph::new(n);
    let inputs = add_inputs(&mut g, n);
    let mut last = LastWriter::new(n, |i, j| inputs[i * n + j]);
    let mut level = 0u32;
    for k in 0..n.saturating_sub(1) {
        for i in k + 1..n {
            level += 1;
            let prev: Vec<(NodeId, Port)> = (0..n * n).map(|t| last.get(t / n, t % n)).collect();
            // Rotation generation from the two leading elements.
            let rot = g.add_node(
                OpKind::Rot,
                Coord::new(level, i as u32, k as u32),
                Pos::new(k as i64, (level as i64) * n as i64 + i as i64),
                1,
            );
            let (xs, xp) = prev[k * n + k];
            let (ps, pp) = prev[i * n + k];
            g.add_edge(xs, xp, rot, Port::X);
            g.add_edge(ps, pp, rot, Port::P);
            last.set(i, k, (rot, Port::X));
            last.set(k, k, (rot, Port::P));
            // Application across the remaining columns: each ApplyRot
            // updates the (k, j)/(i, j) pair; we track the updated pair via
            // the node's X (row k part) and P (row i part) lanes.
            for j in k + 1..n {
                let id = g.add_node(
                    OpKind::ApplyRot,
                    Coord::new(level, i as u32, j as u32),
                    Pos::new(j as i64, (level as i64) * n as i64 + i as i64),
                    1,
                );
                let (ks, kp) = prev[k * n + j];
                let (is_, ip) = prev[i * n + j];
                g.add_edge(ks, kp, id, Port::X);
                g.add_edge(is_, ip, id, Port::P);
                g.add_edge(rot, Port::X, id, Port::Q);
                last.set(k, j, (id, Port::X));
                last.set(i, j, (id, Port::P));
            }
        }
    }
    for i in 0..n {
        for j in 0..n {
            let (nd, p) = last.get(i, j);
            g.set_output(i as u32, j as u32, nd, p);
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn givens_graph_counts_are_trapezoidal() {
        let n = 5;
        let g = givens_graph(n);
        g.validate().unwrap();
        // For each (k, i>k): 1 Rot + (n-k-1) ApplyRot.
        let expected: usize = (0..n - 1).map(|k| (n - k - 1) * (1 + (n - k - 1))).sum();
        assert_eq!(g.compute_node_count(), expected);
        // Rotations are broadcast to their row's appliers before the
        // transformation passes, like every other algorithm here.
        let bc = crate::analysis::broadcast_census(&g);
        assert!(bc.max_fanout >= n - 2);
    }

    #[test]
    fn closure_full_counts_match_fig10() {
        for n in [2usize, 3, 4, 6] {
            let g = closure_full(n);
            g.validate().unwrap();
            assert_eq!(g.compute_node_count(), n * n * n, "n={n}");
            assert_eq!(g.node_count(), n * n * n + n * n);
            // Every compute node has exactly 3 in-edges.
            assert_eq!(g.edge_count(), 3 * n * n * n);
        }
    }

    #[test]
    fn closure_lean_counts_match_fig11() {
        for n in [3usize, 4, 5, 8] {
            let g = closure_lean(n);
            g.validate().unwrap();
            assert_eq!(
                g.compute_node_count(),
                n * (n - 1) * (n - 2),
                "useful nodes for n={n}"
            );
        }
    }

    #[test]
    fn lean_removes_exactly_3n2_minus_2n_per_paper() {
        for n in [3usize, 4, 7] {
            let full = closure_full(n).compute_node_count();
            let lean = closure_lean(n).compute_node_count();
            assert_eq!(full - lean, 3 * n * n - 2 * n, "n={n}");
        }
    }

    #[test]
    fn lu_graph_counts_are_trapezoidal() {
        let n = 5;
        let g = lu_graph(n);
        g.validate().unwrap();
        // Σ_{k=0}^{n-2} (n-k-1) divs + (n-k-1)^2 updates
        let expected: usize = (1..n).map(|r| r + r * r).sum();
        assert_eq!(g.compute_node_count(), expected);
    }

    #[test]
    fn faddeev_graph_validates() {
        let g = faddeev_graph(3);
        g.validate().unwrap();
        // Levels eliminate pivots 0..n of a 2n-wide matrix.
        let m = 6usize;
        let expected: usize = (0..3)
            .map(|k| (m - k - 1) + (m - k - 1) * (m - k - 1))
            .sum();
        assert_eq!(g.compute_node_count(), expected);
    }

    #[test]
    fn outputs_registered_for_all_elements() {
        let g = closure_lean(5);
        for i in 0..5 {
            for j in 0..5 {
                assert!(g.output(i, j).is_some(), "({i},{j})");
            }
        }
    }
}
