//! Incremental maintenance of a transitive closure under edge updates.
//!
//! [`IncrementalClosure`] keeps the mutable graph as a [`DiGraph`] and its
//! closure as a shared [`SparseClosure`]: a component id per vertex plus
//! one list-or-bits row per component, never an `n × n` matrix.
//!
//! - **Reach** is [`SparseClosure::reachable`]: two component lookups and
//!   one row test.
//! - **Insert** `u → v` on a clean closure leaves it unchanged when `u`
//!   already reaches `v`. Otherwise the closure is rebuilt, and the insert
//!   returns the exact change of the reachable-pair count.
//! - **Delete** has no local rule — removing an edge can sever pairs
//!   whose witnesses all used it — so it marks the closure dirty, and the
//!   next query rebuilds it (a *recompute*). Consecutive deletes coalesce
//!   into one recompute; an insert while dirty only changes the graph.
//! - A rebuild is [`condense_csr`](crate::condense_csr) and the
//!   ascending-id sweep over a CSR copy of the graph, the
//!   `systolic closure --sparse` path. Nothing is expanded to vertex pairs.
//! - The pair count is computed on first use after a rebuild and cached:
//!   only `STATS` and a rebuilding insert read it.
//!
//! The two-phase
//! [`prepare_recompute`](IncrementalClosure::prepare_recompute) /
//! [`complete_recompute`](IncrementalClosure::complete_recompute) API lets
//! a server batch many pending DAG closures into a single packed engine
//! run; the engine's closed DAG is encoded into the same component rows.
//! A DAG past the server's component bound is closed by the sweep in
//! `prepare_recompute` itself, from the condensation it already holds.
//!
//! Over a bounded idempotent (path) semiring, inserting edge `u → v` with
//! weight `w` into a graph whose closure `R = A*` is known updates the
//! closure in one rank-1 pass:
//!
//! ```text
//! (A ⊕ w·e_uv)*  =  R ⊕ R·(w·e_uv)·R
//! ```
//!
//! One pass suffices because boundedness (`1 ⊕ a = 1`) makes any path that
//! crosses the new edge twice no better than one that crosses it once —
//! `e·R·e ≤ e` element-wise. [`rank_one_update`] is that rule on a dense
//! matrix over any path semiring. The Boolean closure above does not use
//! it, since the dense matrix is what the component rows avoid; it is the
//! generic (min-plus) form of the insert rule, property-tested against
//! Warshall.

use crate::csr::CsrGraph;
use crate::graph::DiGraph;
use crate::sparse::{SparseClosure, SparseOptions};
use std::sync::Arc;
use systolic_semiring::{BitMatrix, Bool, DenseMatrix, PathSemiring};

/// Applies the rank-1 closure update `R ← R ⊕ R·(w·e_uv)·R` in place.
///
/// `r` must be a reflexive closure over a [`PathSemiring`] (bounded,
/// idempotent — the laws that make one pass exact). Returns the number of
/// entries that changed.
pub fn rank_one_update<S: PathSemiring>(
    r: &mut DenseMatrix<S>,
    u: usize,
    v: usize,
    w: &S::Elem,
) -> usize {
    assert!(r.is_square(), "closure matrix must be square");
    let n = r.rows();
    assert!(u < n && v < n, "vertex out of range");
    // Snapshot row v: it may itself gain entries mid-sweep (when v reaches u).
    let row_v: Vec<S::Elem> = (0..n).map(|j| r.get(v, j).clone()).collect();
    let mut changed = 0usize;
    for i in 0..n {
        let coeff = S::mul(r.get(i, u), w);
        if S::is_zero(&coeff) {
            continue;
        }
        for (j, rvj) in row_v.iter().enumerate() {
            let delta = S::mul(&coeff, rvj);
            if S::is_zero(&delta) {
                continue;
            }
            let cur = r.get(i, j);
            let next = S::add(cur, &delta);
            if next != *cur {
                r.set(i, j, next);
                changed += 1;
            }
        }
    }
    changed
}

/// Counters exposed through the service's `STATS` command.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IncrementalStats {
    /// Total `INSERT` commands applied to the graph.
    pub inserts: u64,
    /// Inserts applied to a clean closure (answered by it, or rebuilt).
    pub incremental_inserts: u64,
    /// Reachable pairs added by those inserts.
    pub pairs_added: u64,
    /// Total `DELETE` commands that removed a present edge.
    pub deletes: u64,
    /// Full recomputes triggered by deletes (coalesced: consecutive
    /// deletes share one).
    pub recomputes: u64,
}

/// A pending delete-fallback recompute, split out so a server can batch
/// many DAG closures into one packed run. Produced by
/// [`IncrementalClosure::prepare_recompute`]; the (possibly padded) closed
/// DAG matrix goes back in through
/// [`IncrementalClosure::complete_recompute`].
#[derive(Clone, Debug)]
pub struct RecomputeJob {
    /// The current graph's condensation, its component rows still to come.
    condensed: SparseClosure,
    /// Reflexive adjacency of the component DAG, padded up to
    /// [`RecomputeJob::size`] so same-bucket jobs share an engine plan.
    pub dag: DenseMatrix<Bool>,
}

impl RecomputeJob {
    /// Padded DAG dimension (power of two, at least 2 — the minimum the
    /// engines accept, and a coarse bucket that keeps plans warm).
    pub fn size(&self) -> usize {
        self.dag.rows()
    }
}

/// Rounds a component count up to its plan bucket: the next power of two,
/// floored at 2 (engines require `n ≥ 2`).
pub fn dag_bucket(components: usize) -> usize {
    components.next_power_of_two().max(2)
}

/// A transitive closure kept current under edge inserts and deletes, by
/// the rules in the module docs. The closure sits behind an `Arc`, so a
/// server publishes it to concurrent readers without copying it.
#[derive(Clone, Debug)]
pub struct IncrementalClosure {
    graph: DiGraph,
    closure: Arc<SparseClosure>,
    /// Reachable pairs of `closure`, counted on first use.
    pairs: Option<u64>,
    dirty: bool,
    stats: IncrementalStats,
}

impl IncrementalClosure {
    /// Builds the closure of `graph` and takes ownership of it.
    pub fn new(graph: DiGraph) -> Self {
        let closure = Arc::new(close(&graph));
        Self {
            graph,
            closure,
            pairs: None,
            dirty: false,
            stats: IncrementalStats::default(),
        }
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.graph.n()
    }

    /// The current graph.
    pub fn graph(&self) -> &DiGraph {
        &self.graph
    }

    /// True when a delete has invalidated the closure and a recompute is
    /// pending.
    pub fn is_dirty(&self) -> bool {
        self.dirty
    }

    /// Update counters.
    pub fn stats(&self) -> IncrementalStats {
        self.stats
    }

    /// The closure, recomputing in software first if dirty.
    pub fn closure(&mut self) -> &SparseClosure {
        self.refresh();
        &self.closure
    }

    /// The closure if it is current; `None` while dirty. The
    /// non-blocking read path of a concurrent server: answering from a
    /// clean closure needs no mutable access at all.
    pub fn closure_if_clean(&self) -> Option<&SparseClosure> {
        (!self.dirty).then_some(&*self.closure)
    }

    /// The closure as-is, possibly stale (missing the effect of deletes
    /// since the last recompute). Degraded reads under overload answer
    /// from this rather than blocking behind a recompute; callers must
    /// surface the staleness ([`IncrementalClosure::is_dirty`]).
    pub fn stale_closure(&self) -> &Arc<SparseClosure> {
        &self.closure
    }

    /// Exact number of reachable pairs, `u = v` included (refreshes a
    /// dirty closure in software). Counted once per rebuild.
    pub fn pairs(&mut self) -> u64 {
        self.refresh();
        let closure = &self.closure;
        *self.pairs.get_or_insert_with(|| closure.pair_count())
    }

    /// Reachability query (refreshes a dirty closure in software).
    pub fn reach(&mut self, u: usize, v: usize) -> bool {
        assert!(u < self.n() && v < self.n(), "vertex out of range");
        self.refresh();
        self.closure.reachable(u, v)
    }

    /// Inserts edge `u → v`. On a dirty closure the edge just joins the
    /// pending recompute. A clean closure is kept when `u` already reaches
    /// `v` and rebuilt otherwise. Returns the number of newly reachable
    /// pairs (0 when dirty or implied).
    pub fn insert(&mut self, u: usize, v: usize) -> usize {
        assert!(u < self.n() && v < self.n(), "vertex out of range");
        self.graph.add_edge(u, v);
        self.stats.inserts += 1;
        if self.dirty {
            return 0;
        }
        self.stats.incremental_inserts += 1;
        if self.closure.reachable(u, v) {
            return 0;
        }
        let before = self.pairs();
        self.install(close(&self.graph));
        let added = self.pairs() - before;
        self.stats.pairs_added += added;
        usize::try_from(added).unwrap_or(usize::MAX)
    }

    /// Deletes edge `u → v` if present, marking the closure dirty.
    /// Returns whether the edge existed. Deleting an absent edge leaves
    /// the closure clean.
    pub fn delete(&mut self, u: usize, v: usize) -> bool {
        assert!(u < self.n() && v < self.n(), "vertex out of range");
        if self.graph.remove_edge(u, v) {
            self.stats.deletes += 1;
            self.dirty = true;
            true
        } else {
            false
        }
    }

    /// Software recompute of a dirty closure.
    pub fn refresh(&mut self) {
        if self.dirty {
            self.recomputed(close(&self.graph));
        }
    }

    /// First half of an engine-batched recompute: condense the current
    /// graph and emit its padded DAG adjacency (reflexive, bucket-sized by
    /// [`dag_bucket`]). A DAG of more than `max_components` components
    /// is closed here by the sweep instead, from the same condensation,
    /// and no matrix is built. Returns `None` when the closure is clean
    /// or was recomputed here.
    pub fn prepare_recompute(&mut self, max_components: usize) -> Option<RecomputeJob> {
        if !self.dirty {
            return None;
        }
        let condensed = SparseClosure::condensed(&CsrGraph::from_digraph(&self.graph));
        let cond = condensed.condensation();
        if cond.len() > max_components {
            self.recomputed(condensed.with_sweep(SparseOptions::default()));
            return None;
        }
        let size = dag_bucket(cond.len());
        let mut dag = DenseMatrix::<Bool>::zeros(size, size);
        for d in 0..size {
            dag.set(d, d, true);
        }
        for (a, b) in cond.dag.edges() {
            dag.set(a as usize, b as usize, true);
        }
        Some(RecomputeJob { condensed, dag })
    }

    /// Second half: encodes the closed DAG matrix (same shape as
    /// [`RecomputeJob::dag`], padding ignored) into the component rows and
    /// clears the dirty flag.
    ///
    /// # Panics
    /// Panics if `closed` is smaller than the job's component count.
    pub fn complete_recompute(&mut self, job: RecomputeJob, closed: &DenseMatrix<Bool>) {
        let bits = BitMatrix::from_dense(closed);
        self.recomputed(job.condensed.with_dag_closure(&bits));
    }

    /// Installs the recomputed closure of a dirty graph.
    fn recomputed(&mut self, closure: SparseClosure) {
        self.install(closure);
        self.dirty = false;
        self.stats.recomputes += 1;
    }

    fn install(&mut self, closure: SparseClosure) {
        self.closure = Arc::new(closure);
        self.pairs = None;
    }
}

/// The closure of `g`: [`condense_csr`](crate::condense_csr) and the
/// ascending-id sweep over its CSR form.
fn close(g: &DiGraph) -> SparseClosure {
    SparseClosure::new(&CsrGraph::from_digraph(g))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::gnp;
    use systolic_semiring::{warshall, MinPlus};
    use systolic_util::Rng;

    fn oracle(g: &DiGraph) -> BitMatrix {
        BitMatrix::from_dense(&g.adjacency_matrix()).transitive_closure()
    }

    /// Inserts `u → v` into `inc`, checking its return value against the
    /// Warshall pair-count delta (0 on a dirty closure). Returns whether
    /// the insert merged two SCCs.
    fn checked_insert(inc: &mut IncrementalClosure, u: usize, v: usize) -> bool {
        let was_dirty = inc.is_dirty();
        let before = oracle(inc.graph());
        let added = inc.insert(u, v);
        let delta = oracle(inc.graph()).count_ones() - before.count_ones();
        let want = if was_dirty { 0 } else { delta };
        assert_eq!(added, want, "insert {u}→{v}");
        before.get(v, u) && !before.get(u, v)
    }

    #[test]
    fn insert_stream_matches_recompute() {
        let mut rng = Rng::seed_from_u64(97);
        for n in [3usize, 17, 50] {
            let mut inc = IncrementalClosure::new(DiGraph::new(n));
            let mut merges = 0;
            for _ in 0..4 * n {
                let u = rng.gen_usize(n);
                let v = rng.gen_usize(n);
                merges += usize::from(checked_insert(&mut inc, u, v));
                let want = oracle(inc.graph());
                assert_eq!(inc.pairs(), want.count_ones() as u64, "n={n}");
                assert_eq!(inc.closure().to_bitmatrix(), want, "n={n}");
            }
            assert!(merges > 0 || n < 17, "n={n}: no insert merged SCCs");
            let stats = inc.stats();
            assert!(stats.incremental_inserts == stats.inserts);
            assert_eq!(stats.pairs_added, inc.pairs() - n as u64);
            assert_eq!(stats.recomputes, 0, "inserts never recompute");
        }
    }

    #[test]
    fn delete_dirties_and_coalesces() {
        let mut g = DiGraph::new(6);
        for (u, v) in [(0, 1), (1, 2), (2, 3), (3, 0), (3, 4), (4, 5)] {
            g.add_edge(u, v);
        }
        let mut inc = IncrementalClosure::new(g);
        assert!(inc.reach(0, 5));
        // Two deletes, one recompute.
        assert!(inc.delete(3, 4));
        assert!(inc.delete(2, 3));
        assert!(inc.is_dirty());
        assert!(!inc.reach(0, 5));
        assert!(!inc.reach(0, 3));
        assert!(inc.reach(0, 2));
        assert_eq!(inc.stats().recomputes, 1);
        let want = oracle(inc.graph());
        assert_eq!(inc.closure().to_bitmatrix(), want);
        // Deleting an absent edge stays clean.
        assert!(!inc.delete(5, 0));
        assert!(!inc.is_dirty());
    }

    #[test]
    fn mixed_stream_matches_recompute() {
        let mut rng = Rng::seed_from_u64(4242);
        let n = 24;
        let mut inc = IncrementalClosure::new(gnp(n, 0.08, 1));
        let mut merges = 0;
        for step in 0..300 {
            let u = rng.gen_usize(n);
            let v = rng.gen_usize(n);
            match rng.gen_usize(4) {
                0 => {
                    inc.delete(u, v);
                }
                _ => {
                    merges += usize::from(checked_insert(&mut inc, u, v));
                }
            }
            // Counted on a clone, so deletes still coalesce in `inc`.
            let want = oracle(inc.graph());
            assert_eq!(inc.clone().pairs(), want.count_ones() as u64, "step {step}");
            if step % 7 == 0 {
                assert_eq!(inc.closure().to_bitmatrix(), want, "step {step}");
            }
        }
        assert!(merges > 0, "no insert merged SCCs");
        let want = oracle(inc.graph());
        assert_eq!(inc.closure().to_bitmatrix(), want);
    }

    #[test]
    fn two_phase_recompute_matches_software() {
        let mut inc = IncrementalClosure::new(gnp(20, 0.15, 9));
        assert!(
            inc.prepare_recompute(usize::MAX).is_none(),
            "clean → no job"
        );
        // Force a known deletion: remove an arbitrary existing edge.
        let (u, v) = {
            let g = inc.graph();
            (0..20)
                .find_map(|u| g.successors(u).first().map(|&v| (u, v)))
                .expect("graph has edges")
        };
        inc.delete(u, v);
        let job = inc.prepare_recompute(usize::MAX).expect("dirty → job");
        assert!(job.size().is_power_of_two() && job.size() >= 2);
        // Close the padded DAG in software, as the engine batch would.
        let closed = warshall(&job.dag);
        inc.complete_recompute(job, &closed);
        assert!(!inc.is_dirty());
        let want = oracle(inc.graph());
        assert_eq!(inc.closure().to_bitmatrix(), want);
    }

    #[test]
    fn a_recompute_past_the_bound_is_swept_without_a_job() {
        let mut inc = IncrementalClosure::new(gnp(40, 0.05, 3));
        let (u, v) = (0..40)
            .find_map(|u| inc.graph().successors(u).first().map(|&v| (u, v)))
            .expect("graph has edges");
        inc.delete(u, v);
        let want = close(inc.graph());
        let bound = want.condensation().len() - 1;
        assert!(
            inc.prepare_recompute(bound).is_none(),
            "past the bound → no job"
        );
        assert!(!inc.is_dirty());
        assert_eq!(inc.stats().recomputes, 1);
        assert_eq!(inc.closure_if_clean(), Some(&want));
    }

    #[test]
    fn rank_one_update_bool_matches_recompute() {
        let mut rng = Rng::seed_from_u64(55);
        let n = 15;
        let mut g = gnp(n, 0.1, 3);
        let mut dense = warshall(&g.adjacency_matrix());
        for _ in 0..40 {
            let (u, v) = (rng.gen_usize(n), rng.gen_usize(n));
            let before = oracle(&g).count_ones();
            g.add_edge(u, v);
            let want = oracle(&g);
            let changed = rank_one_update::<Bool>(&mut dense, u, v, &true);
            assert_eq!(changed, want.count_ones() - before, "insert {u}→{v}");
            assert_eq!(BitMatrix::from_dense(&dense), want, "insert {u}→{v}");
        }
    }

    #[test]
    fn rank_one_update_minplus_matches_recompute() {
        let mut rng = Rng::seed_from_u64(77);
        let n = 12;
        // Start from the edgeless closure (identity: 0 on the diagonal,
        // +inf elsewhere).
        let mut adj = DenseMatrix::<MinPlus>::zeros(n, n);
        for d in 0..n {
            adj.set(d, d, 0);
        }
        let mut closed = warshall(&adj);
        for _ in 0..60 {
            let (u, v) = (rng.gen_usize(n), rng.gen_usize(n));
            let w = 1 + rng.gen_usize(9) as u64;
            let cur = *adj.get(u, v);
            adj.set(u, v, cur.min(w));
            rank_one_update::<MinPlus>(&mut closed, u, v, &w);
            assert_eq!(closed, warshall(&adj), "insert {u}→{v} w={w}");
        }
    }

    #[test]
    fn dag_bucket_floors_and_rounds() {
        assert_eq!(dag_bucket(0), 2);
        assert_eq!(dag_bucket(1), 2);
        assert_eq!(dag_bucket(2), 2);
        assert_eq!(dag_bucket(3), 4);
        assert_eq!(dag_bucket(9), 16);
    }
}
