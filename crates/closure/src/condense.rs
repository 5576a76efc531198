//! Strongly-connected-component condensation from a closure matrix.
//!
//! `A⁺` answers SCC queries directly: `u` and `v` are in one component iff
//! both `(u,v)` and `(v,u)` are reachable. [`Condensation`] groups vertices
//! accordingly and builds the component DAG with topological levels — the
//! analyses the `program_analysis` example performs, packaged.

use crate::csr::CsrGraph;
use crate::graph::{DiGraph, Reachability};
use crate::sparse::condense_csr;
use systolic_semiring::BitMatrix;

/// SCC condensation of a closed graph.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Condensation {
    /// Component id of each vertex.
    pub component_of: Vec<usize>,
    /// Vertices of each component (sorted).
    pub components: Vec<Vec<usize>>,
    /// Edges of the component DAG (deduplicated, no self-loops).
    pub dag_edges: Vec<(usize, usize)>,
    /// Topological level of each component (sources at level 0).
    pub levels: Vec<usize>,
}

impl Condensation {
    /// Builds the condensation from a reachability result.
    pub fn new(reach: &Reachability) -> Self {
        let n = reach.bits().n();
        let mut component_of = vec![usize::MAX; n];
        let mut components: Vec<Vec<usize>> = Vec::new();
        for u in 0..n {
            if component_of[u] != usize::MAX {
                continue;
            }
            let id = components.len();
            let scc = reach.scc_of(u);
            for &v in &scc {
                component_of[v] = id;
            }
            components.push(scc);
        }
        // Component DAG edges: c1 → c2 iff some u∈c1 reaches some v∈c2.
        // Using closure reachability keeps this O(n²) and transitive; we
        // reduce to the Hasse-like set of distinct pairs.
        let mut edge_set = std::collections::BTreeSet::new();
        for u in 0..n {
            for v in 0..n {
                let (cu, cv) = (component_of[u], component_of[v]);
                if cu != cv && reach.reachable(u, v) {
                    edge_set.insert((cu, cv));
                }
            }
        }
        let dag_edges: Vec<(usize, usize)> = edge_set.into_iter().collect();
        let levels = longest_path_levels(components.len(), &dag_edges);
        Self {
            component_of,
            components,
            dag_edges,
            levels,
        }
    }

    /// Builds the condensation directly from a graph's edges
    /// ([`condense_csr`] on its CSR form), without needing a closure
    /// first — the entry point of the delete-fallback recompute path:
    /// condense the *current* graph, close the (much smaller) component
    /// DAG, expand back to vertex pairs.
    ///
    /// Unlike [`Condensation::new`], `dag_edges` here are the graph's own
    /// inter-component edges (deduplicated, sorted), not their transitive
    /// closure. Component ids come out in reverse topological order
    /// (every DAG edge runs from a higher id to a lower one), which
    /// [`closure_via_condensation`] exploits.
    pub fn from_graph(g: &DiGraph) -> Self {
        let sc = condense_csr(&CsrGraph::from_digraph(g));
        let widen = |ids: &[u32]| ids.iter().map(|&x| x as usize).collect::<Vec<_>>();
        let dag_edges: Vec<(usize, usize)> = sc
            .dag
            .edges()
            .map(|(a, b)| (a as usize, b as usize))
            .collect();
        Self {
            component_of: widen(&sc.comp_of),
            components: sc.components().map(widen).collect(),
            levels: longest_path_levels(sc.len(), &dag_edges),
            dag_edges,
        }
    }

    /// Expands a *closed* component-DAG reachability matrix back to the
    /// vertex-level closure: `reach(u, v)` iff `closed(comp(u), comp(v))`
    /// (with the reflexive diagonal implied by `closed`'s own diagonal).
    ///
    /// `closed` may be larger than the component count — extra padding
    /// rows/columns (from batching recomputes at a common plan shape) are
    /// ignored.
    ///
    /// # Panics
    /// Panics if `closed` has fewer rows than there are components.
    pub fn expand_closure(&self, closed: &systolic_semiring::BitMatrix) -> BitMatrix {
        let c = self.components.len();
        assert!(closed.n() >= c, "closed DAG matrix smaller than DAG");
        let n = self.component_of.len();
        // Column sets per component, shared by every member vertex of a
        // reaching component.
        let mut comp_cols: Vec<Vec<usize>> = Vec::with_capacity(c);
        for cu in 0..c {
            let mut cols = Vec::new();
            for cv in 0..c {
                if cu == cv || closed.get(cu, cv) {
                    cols.extend_from_slice(&self.components[cv]);
                }
            }
            comp_cols.push(cols);
        }
        let mut out = BitMatrix::zeros(n);
        for u in 0..n {
            for &v in &comp_cols[self.component_of[u]] {
                out.set(u, v, true);
            }
        }
        out
    }

    /// Number of components.
    pub fn len(&self) -> usize {
        self.components.len()
    }

    /// True when the graph had no vertices.
    pub fn is_empty(&self) -> bool {
        self.components.is_empty()
    }

    /// Components with more than one vertex (cycles / recursion groups).
    pub fn nontrivial(&self) -> impl Iterator<Item = &Vec<usize>> {
        self.components.iter().filter(|c| c.len() > 1)
    }
}

/// Longest-path level of each of `c` components over the acyclic
/// `dag_edges` (sources at level 0), iterated to a fixed point (≤ c
/// rounds). Edges are scanned last to first, so a reverse-topological
/// list sorted by source settles in one round.
fn longest_path_levels(c: usize, dag_edges: &[(usize, usize)]) -> Vec<usize> {
    let mut levels = vec![0usize; c];
    let mut changed = true;
    while changed {
        changed = false;
        for &(a, b) in dag_edges.iter().rev() {
            if levels[b] < levels[a] + 1 {
                levels[b] = levels[a] + 1;
                changed = true;
            }
        }
    }
    levels
}

/// Full reflexive-transitive closure computed through the condensation:
/// SCCs by [`condense_csr`], bitset closure of the (reverse-topological)
/// component DAG, then expansion back to vertex pairs. This is the
/// software reference for the service's delete-fallback path; the served
/// variant routes the DAG closure through the admission batcher instead.
pub fn closure_via_condensation(g: &DiGraph) -> BitMatrix {
    let cond = Condensation::from_graph(g);
    // Component ids are emitted sinks-first and the edges are sorted by
    // source, so every edge (a, b) has a > b: row b is complete by the
    // time an edge out of a reads it, and holds no bit above column b.
    let mut dag_closed = BitMatrix::identity(cond.len());
    for &(a, b) in &cond.dag_edges {
        debug_assert!(a > b, "ids must be reverse-topological");
        dag_closed.or_row_prefix_into(b, a, b / 64 + 1);
    }
    cond.expand_closure(&dag_closed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::DiGraph;
    use crate::solver::{Backend, ClosureSolver};

    fn condense(edges: &[(usize, usize)], n: usize) -> Condensation {
        let mut g = DiGraph::new(n);
        for &(u, v) in edges {
            g.add_edge(u, v);
        }
        let reach = ClosureSolver::new(Backend::Reference)
            .transitive_closure(&g)
            .unwrap();
        Condensation::new(&reach)
    }

    #[test]
    fn two_cycles_and_a_bridge() {
        // (0,1,2) cycle → (3,4) cycle, 5 isolated.
        let c = condense(&[(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 3)], 6);
        assert_eq!(c.len(), 3);
        let big: Vec<_> = c.nontrivial().cloned().collect();
        assert!(big.contains(&vec![0, 1, 2]));
        assert!(big.contains(&vec![3, 4]));
        // Levels: the (0,1,2) component precedes (3,4).
        let c012 = c.component_of[0];
        let c34 = c.component_of[3];
        assert!(c.levels[c012] < c.levels[c34]);
        assert_eq!(c.levels[c.component_of[5]], 0);
    }

    #[test]
    fn dag_has_no_self_loops_or_duplicates() {
        let c = condense(&[(0, 1), (0, 1), (1, 2), (0, 2)], 3);
        assert_eq!(c.len(), 3);
        assert!(c.dag_edges.iter().all(|&(a, b)| a != b));
        let mut sorted = c.dag_edges.clone();
        sorted.dedup();
        assert_eq!(sorted, c.dag_edges);
    }

    #[test]
    fn single_scc_collapses_to_one_component() {
        let c = condense(&[(0, 1), (1, 2), (2, 3), (3, 0)], 4);
        assert_eq!(c.len(), 1);
        assert!(c.dag_edges.is_empty());
        assert!(!c.is_empty());
    }

    #[test]
    fn levels_form_valid_topological_order() {
        let c = condense(&[(0, 1), (1, 2), (2, 3), (1, 3)], 4);
        for &(a, b) in &c.dag_edges {
            assert!(c.levels[a] < c.levels[b]);
        }
    }

    fn graph(edges: &[(usize, usize)], n: usize) -> DiGraph {
        let mut g = DiGraph::new(n);
        for &(u, v) in edges {
            g.add_edge(u, v);
        }
        g
    }

    #[test]
    fn from_graph_matches_closure_based_partition() {
        let edges = [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 3), (5, 0)];
        let g = graph(&edges, 6);
        let tarjan = Condensation::from_graph(&g);
        let closed = condense(&edges, 6);
        // Component ids may differ, but the vertex partition must agree.
        let mut a: Vec<_> = tarjan.components.clone();
        let mut b: Vec<_> = closed.components.clone();
        a.sort();
        b.sort();
        assert_eq!(a, b);
        // Tarjan ids are reverse-topological: edges go high → low.
        for &(x, y) in &tarjan.dag_edges {
            assert!(x > y, "edge {x}→{y} not reverse-topological");
        }
    }

    #[test]
    fn from_graph_handles_empty_and_edgeless() {
        let c = Condensation::from_graph(&DiGraph::new(0));
        assert!(c.is_empty());
        let c = Condensation::from_graph(&DiGraph::new(3));
        assert_eq!(c.len(), 3);
        assert!(c.dag_edges.is_empty());
    }

    #[test]
    fn closure_via_condensation_matches_warshall() {
        use crate::generators::gnp;
        use systolic_semiring::BitMatrix;
        for (n, seed) in [(1usize, 7u64), (9, 11), (33, 13), (70, 17)] {
            let g = gnp(n, 0.12, seed);
            let oracle = BitMatrix::from_dense(&g.adjacency_matrix()).transitive_closure();
            let via = closure_via_condensation(&g);
            assert_eq!(via, oracle, "n={n} seed={seed}");
        }
        assert_eq!(closure_via_condensation(&DiGraph::new(0)).n(), 0);
    }

    #[test]
    fn expand_closure_ignores_padding() {
        // Path 0→1→2: three singleton components; pad the DAG matrix to 8.
        let g = graph(&[(0, 1), (1, 2)], 3);
        let cond = Condensation::from_graph(&g);
        let c = cond.len();
        let mut padded = BitMatrix::identity(8);
        let mut exact = BitMatrix::identity(c);
        for &(a, b) in &cond.dag_edges {
            padded.set(a, b, true);
            exact.set(a, b, true);
        }
        padded.warshall_in_place();
        exact.warshall_in_place();
        assert_eq!(cond.expand_closure(&padded), cond.expand_closure(&exact));
    }
}
