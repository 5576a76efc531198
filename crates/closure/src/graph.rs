//! Directed-graph containers and reachability results.

use systolic_semiring::{BitMatrix, Bool, DenseMatrix, MaxMin, MinMax, MinPlus};

/// An unweighted directed graph on vertices `0..n`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DiGraph {
    n: usize,
    adj: Vec<Vec<usize>>,
    edges: usize,
}

impl DiGraph {
    /// Creates an empty graph with `n` vertices.
    pub fn new(n: usize) -> Self {
        Self {
            n,
            adj: vec![Vec::new(); n],
            edges: 0,
        }
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges
    }

    /// Adds edge `u → v` (duplicates ignored).
    pub fn add_edge(&mut self, u: usize, v: usize) {
        assert!(u < self.n && v < self.n, "vertex out of range");
        if !self.adj[u].contains(&v) {
            self.adj[u].push(v);
            self.edges += 1;
        }
    }

    /// Removes edge `u → v`; returns whether it was present.
    pub fn remove_edge(&mut self, u: usize, v: usize) -> bool {
        assert!(u < self.n && v < self.n, "vertex out of range");
        if let Some(pos) = self.adj[u].iter().position(|&x| x == v) {
            self.adj[u].remove(pos);
            self.edges -= 1;
            true
        } else {
            false
        }
    }

    /// Successors of `u`.
    pub fn successors(&self, u: usize) -> &[usize] {
        &self.adj[u]
    }

    /// True iff edge `u → v` exists.
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        self.adj[u].contains(&v)
    }

    /// The paper's adjacency-matrix convention: `a_ij = 1` iff `i → j`
    /// **or** `i = j` (§3.1).
    pub fn adjacency_matrix(&self) -> DenseMatrix<Bool> {
        let mut m = DenseMatrix::<Bool>::zeros(self.n, self.n);
        for u in 0..self.n {
            m.set(u, u, true);
            for &v in &self.adj[u] {
                m.set(u, v, true);
            }
        }
        m
    }

    /// Builds a graph from any Boolean matrix (diagonal ignored).
    pub fn from_matrix(m: &DenseMatrix<Bool>) -> Self {
        assert!(m.is_square());
        let n = m.rows();
        let mut g = Self::new(n);
        for u in 0..n {
            for v in 0..n {
                if u != v && *m.get(u, v) {
                    g.add_edge(u, v);
                }
            }
        }
        g
    }
}

/// A weighted directed graph (no negative weights — the path semirings
/// here are bounded).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WeightedDiGraph {
    n: usize,
    edges: Vec<(usize, usize, u64)>,
}

impl WeightedDiGraph {
    /// Creates an empty weighted graph with `n` vertices.
    pub fn new(n: usize) -> Self {
        Self {
            n,
            edges: Vec::new(),
        }
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Adds edge `u → v` with weight/capacity `w`.
    pub fn add_edge(&mut self, u: usize, v: usize, w: u64) {
        assert!(u < self.n && v < self.n, "vertex out of range");
        self.edges.push((u, v, w));
    }

    /// Edge list.
    pub fn edges(&self) -> &[(usize, usize, u64)] {
        &self.edges
    }

    /// Distance matrix over the min-plus semiring (parallel edges keep the
    /// smallest weight).
    pub fn distance_matrix(&self) -> DenseMatrix<MinPlus> {
        let mut m = DenseMatrix::<MinPlus>::zeros(self.n, self.n);
        for &(u, v, w) in &self.edges {
            let cur = *m.get(u, v);
            m.set(u, v, cur.min(w));
        }
        m
    }

    /// Capacity matrix over the max-min semiring (parallel edges keep the
    /// largest capacity).
    pub fn capacity_matrix(&self) -> DenseMatrix<MaxMin> {
        let mut m = DenseMatrix::<MaxMin>::zeros(self.n, self.n);
        for &(u, v, w) in &self.edges {
            let cur = *m.get(u, v);
            m.set(u, v, cur.max(w));
        }
        m
    }

    /// Worst-edge matrix over the min-max semiring (parallel edges keep
    /// the smaller maximum).
    pub fn minimax_matrix(&self) -> DenseMatrix<MinMax> {
        let mut m = DenseMatrix::<MinMax>::zeros(self.n, self.n);
        for &(u, v, w) in &self.edges {
            let cur = *m.get(u, v);
            m.set(u, v, cur.min(w));
        }
        m
    }
}

/// Reachability result (`A⁺` over the Boolean semiring).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Reachability {
    bits: BitMatrix,
}

impl Reachability {
    /// Wraps a closure matrix.
    pub fn from_matrix(m: &DenseMatrix<Bool>) -> Self {
        Self::from_bits(BitMatrix::from_dense(m))
    }

    /// Wraps a closed bit matrix.
    pub(crate) fn from_bits(bits: BitMatrix) -> Self {
        Self { bits }
    }

    /// True iff a path (possibly of length 0) runs `u → v`.
    pub fn reachable(&self, u: usize, v: usize) -> bool {
        self.bits.get(u, v)
    }

    /// Number of reachable ordered pairs (including the diagonal).
    pub fn pair_count(&self) -> usize {
        self.bits.count_ones()
    }

    /// Vertices reachable from `u`.
    pub fn reachable_set(&self, u: usize) -> Vec<usize> {
        (0..self.bits.n())
            .filter(|&v| self.bits.get(u, v))
            .collect()
    }

    /// Vertices mutually reachable with `u` (u's strongly connected
    /// component, read off `A⁺ ∧ (A⁺)ᵀ`).
    pub fn scc_of(&self, u: usize) -> Vec<usize> {
        (0..self.bits.n())
            .filter(|&v| self.bits.get(u, v) && self.bits.get(v, u))
            .collect()
    }

    /// The underlying bit matrix.
    pub fn bits(&self) -> &BitMatrix {
        &self.bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digraph_roundtrip_through_matrix() {
        let mut g = DiGraph::new(4);
        g.add_edge(0, 2);
        g.add_edge(2, 3);
        g.add_edge(0, 2); // duplicate ignored
        assert_eq!(g.edge_count(), 2);
        let m = g.adjacency_matrix();
        assert!(*m.get(0, 0), "reflexive convention");
        let g2 = DiGraph::from_matrix(&m);
        assert_eq!(g, g2);
    }

    #[test]
    fn weighted_matrices_resolve_parallel_edges() {
        let mut g = WeightedDiGraph::new(3);
        g.add_edge(0, 1, 5);
        g.add_edge(0, 1, 3);
        assert_eq!(*g.distance_matrix().get(0, 1), 3);
        assert_eq!(*g.capacity_matrix().get(0, 1), 5);
        assert_eq!(*g.minimax_matrix().get(0, 1), 3);
    }

    #[test]
    fn reachability_queries() {
        let mut g = DiGraph::new(5);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(2, 0);
        g.add_edge(3, 4);
        let closed = systolic_semiring::warshall(&g.adjacency_matrix());
        let r = Reachability::from_matrix(&closed);
        assert!(r.reachable(0, 2));
        assert!(!r.reachable(3, 0));
        assert_eq!(r.scc_of(0), vec![0, 1, 2]);
        assert_eq!(r.reachable_set(3), vec![3, 4]);
    }
}
