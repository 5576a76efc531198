//! The dependence-graph container.

use crate::ids::{Coord, NodeId, OpKind, Port, Pos};
use std::collections::HashMap;

/// One operation node.
#[derive(Clone, Debug, PartialEq)]
pub struct Node {
    /// Operation kind.
    pub kind: OpKind,
    /// Algorithm coordinates `(level, row, col)`.
    pub coord: Coord,
    /// Drawing-plane position (assigned by builders / transformation passes).
    pub pos: Pos,
    /// Computation time in cycles (the paper assumes 1 for transitive
    /// closure; the §4.3 graphs have varying costs).
    pub cost: u32,
}

/// A directed, port-typed edge `src.sport → dst.dport`.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct Edge {
    /// Producing node.
    pub src: NodeId,
    /// Output lane of the producer.
    pub sport: Port,
    /// Consuming node.
    pub dst: NodeId,
    /// Input lane of the consumer.
    pub dport: Port,
}

/// A fully-parallel dependence graph: DAG of operation nodes with typed
/// ports, plus designations of which `(i, j)` element each external input
/// provides and which node/port holds each final output element.
#[derive(Clone, Debug, Default)]
pub struct DependenceGraph {
    nodes: Vec<Node>,
    edges: Vec<Edge>,
    /// `(i, j) → input node` for the problem's input matrix.
    inputs: HashMap<(u32, u32), NodeId>,
    /// `(i, j) → (node, port)` holding the final value of element `(i, j)`.
    outputs: HashMap<(u32, u32), (NodeId, Port)>,
    /// Problem size the graph was built for.
    n: usize,
}

impl DependenceGraph {
    /// Creates an empty graph for problem size `n`.
    pub fn new(n: usize) -> Self {
        Self {
            n,
            ..Default::default()
        }
    }

    /// Problem size (`n` of the `n × n` matrix).
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Adds a node, returning its id.
    pub fn add_node(&mut self, kind: OpKind, coord: Coord, pos: Pos, cost: u32) -> NodeId {
        let id = NodeId(u32::try_from(self.nodes.len()).expect("too many nodes"));
        self.nodes.push(Node {
            kind,
            coord,
            pos,
            cost,
        });
        id
    }

    /// Adds an edge.
    pub fn add_edge(&mut self, src: NodeId, sport: Port, dst: NodeId, dport: Port) {
        debug_assert!(src.index() < self.nodes.len() && dst.index() < self.nodes.len());
        self.edges.push(Edge {
            src,
            sport,
            dst,
            dport,
        });
    }

    /// Registers an input terminal for matrix element `(i, j)`.
    pub fn set_input(&mut self, i: u32, j: u32, node: NodeId) {
        self.inputs.insert((i, j), node);
    }

    /// Registers the output location of matrix element `(i, j)`.
    pub fn set_output(&mut self, i: u32, j: u32, node: NodeId, port: Port) {
        self.outputs.insert((i, j), (node, port));
    }

    /// Input terminal for element `(i, j)`, if any.
    pub fn input(&self, i: u32, j: u32) -> Option<NodeId> {
        self.inputs.get(&(i, j)).copied()
    }

    /// Output location for element `(i, j)`, if any.
    pub fn output(&self, i: u32, j: u32) -> Option<(NodeId, Port)> {
        self.outputs.get(&(i, j)).copied()
    }

    /// All nodes.
    #[inline]
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// All edges.
    #[inline]
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Node by id.
    #[inline]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Number of nodes performing useful computation (excludes inputs and
    /// delays) — the `N` of the paper's utilization formula.
    pub fn compute_node_count(&self) -> usize {
        self.nodes.iter().filter(|nd| nd.kind.is_compute()).count()
    }

    /// Total computation time over all compute nodes: `Σ nᵢ tᵢ` in §4.1.
    pub fn total_compute_time(&self) -> u64 {
        self.nodes
            .iter()
            .filter(|nd| nd.kind.is_compute())
            .map(|nd| u64::from(nd.cost))
            .sum()
    }

    /// Out-adjacency: edges grouped by source node (index = node id).
    pub fn out_edges(&self) -> Vec<Vec<Edge>> {
        let mut adj = vec![Vec::new(); self.nodes.len()];
        for e in &self.edges {
            adj[e.src.index()].push(*e);
        }
        adj
    }

    /// In-adjacency: edges grouped by destination node.
    pub fn in_edges(&self) -> Vec<Vec<Edge>> {
        let mut adj = vec![Vec::new(); self.nodes.len()];
        for e in &self.edges {
            adj[e.dst.index()].push(*e);
        }
        adj
    }

    /// Topological order of node ids.
    ///
    /// # Errors
    /// Returns `Err(offending_nodes)` if the graph has a cycle.
    pub fn topo_order(&self) -> Result<Vec<NodeId>, Vec<NodeId>> {
        let mut indeg = vec![0usize; self.nodes.len()];
        for e in &self.edges {
            indeg[e.dst.index()] += 1;
        }
        let adj = self.out_edges();
        let mut queue: Vec<NodeId> = indeg
            .iter()
            .enumerate()
            .filter(|(_, d)| **d == 0)
            .map(|(i, _)| NodeId(i as u32))
            .collect();
        let mut order = Vec::with_capacity(self.nodes.len());
        let mut head = 0;
        while head < queue.len() {
            let u = queue[head];
            head += 1;
            order.push(u);
            for e in &adj[u.index()] {
                indeg[e.dst.index()] -= 1;
                if indeg[e.dst.index()] == 0 {
                    queue.push(e.dst);
                }
            }
        }
        if order.len() == self.nodes.len() {
            Ok(order)
        } else {
            let stuck = indeg
                .iter()
                .enumerate()
                .filter(|(_, d)| **d > 0)
                .map(|(i, _)| NodeId(i as u32))
                .collect();
            Err(stuck)
        }
    }

    /// Structural validation: edges in range, DAG, every `Fuse` node has its
    /// three input lanes driven exactly once, every declared output exists.
    ///
    /// # Errors
    /// Returns a human-readable description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        for e in &self.edges {
            if e.src.index() >= self.nodes.len() || e.dst.index() >= self.nodes.len() {
                return Err(format!("edge {:?} references missing node", e));
            }
        }
        // Each (dst, dport) driven at most once.
        let mut seen = std::collections::HashSet::new();
        for e in &self.edges {
            if !seen.insert((e.dst, e.dport)) {
                return Err(format!(
                    "input lane {:?}.{:?} driven by more than one edge",
                    e.dst, e.dport
                ));
            }
        }
        // Fuse nodes need X, P and Q.
        let inn = self.in_edges();
        for (idx, nd) in self.nodes.iter().enumerate() {
            if nd.kind == OpKind::Fuse {
                for lane in [Port::X, Port::P, Port::Q] {
                    if !inn[idx].iter().any(|e| e.dport == lane) {
                        return Err(format!(
                            "fuse node n{} at {:?} missing input lane {:?}",
                            idx, nd.coord, lane
                        ));
                    }
                }
            }
            if nd.kind == OpKind::Input && !inn[idx].is_empty() {
                return Err(format!("input node n{} has incoming edges", idx));
            }
        }
        if self.topo_order().is_err() {
            return Err("graph has a cycle".into());
        }
        for (&(i, j), &(node, _)) in &self.outputs {
            if node.index() >= self.nodes.len() {
                return Err(format!("output ({i},{j}) references missing node"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> DependenceGraph {
        // in0 --X--> fuse <--P-- in1 ; Q from in0 as well
        let mut g = DependenceGraph::new(1);
        let i0 = g.add_node(OpKind::Input, Coord::new(0, 0, 0), Pos::new(0, 0), 0);
        let i1 = g.add_node(OpKind::Input, Coord::new(0, 0, 1), Pos::new(1, 0), 0);
        let f = g.add_node(OpKind::Fuse, Coord::new(1, 0, 0), Pos::new(0, 1), 1);
        g.add_edge(i0, Port::X, f, Port::X);
        g.add_edge(i1, Port::X, f, Port::P);
        g.add_edge(i0, Port::X, f, Port::Q);
        g.set_input(0, 0, i0);
        g.set_input(0, 1, i1);
        g.set_output(0, 0, f, Port::X);
        g
    }

    #[test]
    fn validate_accepts_wellformed() {
        tiny().validate().unwrap();
    }

    #[test]
    fn validate_rejects_missing_lane() {
        let mut g = DependenceGraph::new(1);
        let i0 = g.add_node(OpKind::Input, Coord::new(0, 0, 0), Pos::new(0, 0), 0);
        let f = g.add_node(OpKind::Fuse, Coord::new(1, 0, 0), Pos::new(0, 1), 1);
        g.add_edge(i0, Port::X, f, Port::X);
        let err = g.validate().unwrap_err();
        assert!(err.contains("missing input lane"), "{err}");
    }

    #[test]
    fn validate_rejects_double_drive() {
        let mut g = tiny();
        let i0 = g.input(0, 0).unwrap();
        let f = g.output(0, 0).unwrap().0;
        g.add_edge(i0, Port::X, f, Port::X);
        let err = g.validate().unwrap_err();
        assert!(err.contains("more than one edge"), "{err}");
    }

    #[test]
    fn topo_order_detects_cycle() {
        let mut g = DependenceGraph::new(1);
        let a = g.add_node(OpKind::Delay, Coord::new(1, 0, 0), Pos::default(), 1);
        let b = g.add_node(OpKind::Delay, Coord::new(1, 0, 1), Pos::default(), 1);
        g.add_edge(a, Port::X, b, Port::X);
        g.add_edge(b, Port::X, a, Port::X);
        assert!(g.topo_order().is_err());
        assert!(g.validate().is_err());
    }

    #[test]
    fn counts() {
        let g = tiny();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.compute_node_count(), 1);
        assert_eq!(g.total_compute_time(), 1);
    }
}
