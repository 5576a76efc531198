//! Algorithm-generic G-graphs: the Fig. 17 closure parallelogram as *one
//! instance* of a wider family (§4.3).
//!
//! The partitioning method of §4 never inspects the arithmetic inside a
//! G-node — it only needs, per G-node, its **position** in `(k, h)` space,
//! its **role** (head / fuse / tail of a row), its **stream length** and
//! per-element **duration** (together, the computation time), and its
//! useful-operation count. [`GenericGGraph`] captures exactly that
//! interface, so the same G-set selection, scheduling and plan-building
//! machinery drives transitive closure, LU decomposition and the Faddeev
//! algorithm:
//!
//! * [`GenericGGraph::closure`] — `n` rows of `n + 1` uniform-time G-nodes
//!   with a delay tail (Fig. 17); [`GGraph::generic`] bridges the concrete
//!   closure G-graph into this form, byte-for-byte equivalent in geometry.
//! * [`GenericGGraph::lu`] / [`GenericGGraph::faddeev`] — shrinking
//!   trapezoids of Gaussian-elimination levels whose G-node times decrease
//!   monotonically across rows but stay uniform *within* a row: the §4.3
//!   shape that favors linear over two-dimensional partitions (Fig. 22).
//! * [`GenericGGraph::from_time_grid`] — any row-uniform
//!   [`TimeGrid`] (e.g. one produced by
//!   [`grouping_profile`](crate::grouping_profile) from an arbitrary
//!   dependence graph) becomes a generic G-graph directly.

use crate::ggraph::GGraph;
use crate::grouping::TimeGrid;

/// Role of a G-node within a generic G-graph row.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum GenRole {
    /// First node of the row: consumes its column stream and generates the
    /// rightward pivot stream (closure pivot head, LU divider head).
    Head,
    /// Interior node: fuses one column stream against the pivot stream.
    Fuse,
    /// Optional delay tail (closure only): returns the pivot stream as a
    /// column without computing.
    Tail,
}

/// Geometry of one G-graph row (one algorithm level).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct GRowSpec {
    /// Skewed coordinate `h` of the row's first (head) G-node.
    pub h_lo: usize,
    /// Number of G-nodes in the row (head + fuses, plus the tail if any).
    pub width: usize,
    /// Whether the last node is a pure delay tail (closure) rather than a
    /// fuse (elimination levels have none — their streams shrink instead).
    pub has_tail: bool,
    /// Stream length processed by every G-node in the row.
    pub len: usize,
    /// Cycles a G-node's cell stays busy per stream element (§4.3 varying
    /// computation time; `1` is the classical single-cycle G-node).
    pub duration: u32,
    /// Useful primitive operations performed by each *fuse* node of the row
    /// (heads and tails contribute none).
    pub fuse_ops: u64,
}

impl GRowSpec {
    /// Skewed coordinate of the row's last G-node.
    #[inline]
    pub fn h_hi(&self) -> usize {
        self.h_lo + self.width - 1
    }

    /// Computation time of one G-node in this row: stream length times
    /// per-element duration.
    #[inline]
    pub fn gnode_time(&self) -> u64 {
        self.len as u64 * u64::from(self.duration)
    }
}

/// An algorithm-generic G-graph: a list of rows in skewed `(k, h)`
/// coordinates, where column streams flow straight down (same `h`, next
/// `k`) and pivot streams flow right along a row.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct GenericGGraph {
    rows: Vec<GRowSpec>,
}

impl GenericGGraph {
    /// Builds a generic G-graph from explicit row specs.
    ///
    /// # Panics
    /// When a row is degenerate: zero width, zero stream length, zero
    /// duration, or a tail with no head before it.
    pub fn new(rows: Vec<GRowSpec>) -> Self {
        assert!(!rows.is_empty(), "generic G-graph needs at least one row");
        for (k, r) in rows.iter().enumerate() {
            assert!(r.width >= 1, "row {k}: width must be ≥ 1");
            assert!(r.len >= 1, "row {k}: stream length must be ≥ 1");
            assert!(r.duration >= 1, "row {k}: duration must be ≥ 1");
            assert!(
                !r.has_tail || r.width >= 2,
                "row {k}: a tail needs a head before it"
            );
        }
        Self { rows }
    }

    /// The Fig. 17 transitive-closure G-graph: `n` rows, each `n + 1` wide
    /// with a delay tail, uniform stream length `n`, unit duration, and
    /// `n - 2` useful operations per fuse.
    pub fn closure(n: usize) -> Self {
        assert!(n >= 2, "closure G-graph needs n ≥ 2");
        Self::new(
            (0..n)
                .map(|k| GRowSpec {
                    h_lo: k,
                    width: n + 1,
                    has_tail: true,
                    len: n,
                    duration: 1,
                    fuse_ops: (n - 2) as u64,
                })
                .collect(),
        )
    }

    /// The §4.3 LU-decomposition G-graph: level `k ∈ 0..n-1` spans
    /// `h = k..n-1` (matrix columns flow straight down, so the trapezoid
    /// shrinks), with stream length `n - k` and `n - k - 1` useful update
    /// operations per fuse.
    pub fn lu(n: usize) -> Self {
        assert!(n >= 2, "LU G-graph needs n ≥ 2");
        Self::elimination(n, n - 1)
    }

    /// The Faddeev-algorithm G-graph: Gaussian elimination of the first `n`
    /// columns of the `2n × 2n` compound matrix `[[A, B], [-C, D]]`; level
    /// `k ∈ 0..n` has stream length `2n - k`.
    pub fn faddeev(n: usize) -> Self {
        assert!(n >= 1, "Faddeev G-graph needs n ≥ 1");
        Self::elimination(2 * n, n)
    }

    /// Elimination-family geometry: `levels` rows over an `msize × msize`
    /// matrix, row `k` spanning `h = k..msize-1` with stream length
    /// `msize - k`.
    pub fn elimination(msize: usize, levels: usize) -> Self {
        assert!(levels >= 1 && levels < msize, "need 1 ≤ levels < msize");
        Self::new(
            (0..levels)
                .map(|k| GRowSpec {
                    h_lo: k,
                    width: msize - k,
                    has_tail: false,
                    len: msize - k,
                    duration: 1,
                    fuse_ops: (msize - k - 1) as u64,
                })
                .collect(),
        )
    }

    /// Builds a generic G-graph from any row-uniform [`TimeGrid`] (such as
    /// one computed by [`grouping_profile`](crate::grouping_profile)): row
    /// `r` gets `h_lo = r`, one G-node per grid entry, and stream length
    /// `t + 1` (a G-node of computation time `t` passes its stream head
    /// through untouched, so the stream carries `t + 1` words).
    ///
    /// # Panics
    /// When the grid is empty or some row mixes computation times.
    pub fn from_time_grid(grid: &TimeGrid) -> Self {
        assert!(
            !grid.is_empty(),
            "cannot build a G-graph from an empty grid"
        );
        assert!(
            grid.rows_uniform(),
            "generic G-graph rows must be time-uniform (equal-time paths, §4.3)"
        );
        Self::new(
            grid.times
                .iter()
                .enumerate()
                .map(|(r, row)| GRowSpec {
                    h_lo: r,
                    width: row.len(),
                    has_tail: false,
                    len: row[0] as usize + 1,
                    duration: 1,
                    fuse_ops: row[0],
                })
                .collect(),
        )
    }

    /// Overrides the per-element duration of each row (one entry per row):
    /// the §4.3 varying-computation-time knob.
    ///
    /// # Panics
    /// When `durs.len()` differs from the row count or a duration is zero.
    #[must_use]
    pub fn with_row_durations(mut self, durs: &[u32]) -> Self {
        assert_eq!(durs.len(), self.rows.len(), "one duration per row");
        for (r, &d) in self.rows.iter_mut().zip(durs) {
            assert!(d >= 1, "duration must be ≥ 1");
            r.duration = d;
        }
        self
    }

    /// Number of rows (algorithm levels).
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows.len()
    }

    /// The spec of row `k`.
    #[inline]
    pub fn row(&self, k: usize) -> &GRowSpec {
        &self.rows[k]
    }

    /// Maximum `h` coordinate over the whole graph.
    pub fn h_max(&self) -> usize {
        self.rows.iter().map(GRowSpec::h_hi).max().unwrap()
    }

    /// Total number of G-nodes.
    pub fn gnode_count(&self) -> usize {
        self.rows.iter().map(|r| r.width).sum()
    }

    /// Role of the G-node at `(k, h)`, or `None` when `h` falls outside
    /// row `k`'s span.
    pub fn at_h(&self, k: usize, h: usize) -> Option<GenRole> {
        let r = self.rows.get(k)?;
        if h < r.h_lo || h > r.h_hi() {
            return None;
        }
        Some(if h == r.h_lo {
            GenRole::Head
        } else if r.has_tail && h == r.h_hi() {
            GenRole::Tail
        } else {
            GenRole::Fuse
        })
    }

    /// Useful primitive operations of the G-node at `(k, h)` (0 outside the
    /// graph, and for heads and tails).
    pub fn useful_ops(&self, k: usize, h: usize) -> u64 {
        match self.at_h(k, h) {
            Some(GenRole::Fuse) => self.rows[k].fuse_ops,
            _ => 0,
        }
    }

    /// Sum of useful operations over the whole graph.
    pub fn total_useful_ops(&self) -> u64 {
        self.rows
            .iter()
            .map(|r| {
                let fuses = r.width - 1 - usize::from(r.has_tail);
                fuses as u64 * r.fuse_ops
            })
            .sum()
    }

    /// The computation-time grid of this G-graph: `len × duration` per
    /// G-node, row by row — the quantity the §4.3 utilization analysis in
    /// `systolic-metrics` consumes.
    pub fn time_grid(&self) -> TimeGrid {
        TimeGrid {
            times: self
                .rows
                .iter()
                .map(|r| vec![r.gnode_time(); r.width])
                .collect(),
        }
    }
}

impl GGraph {
    /// Views the concrete closure G-graph through the algorithm-generic
    /// interface (identical geometry; see the equivalence tests).
    pub fn generic(&self) -> GenericGGraph {
        GenericGGraph::closure(self.n())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ggraph::{GGraph, GNodeRole};
    use crate::grouping::{faddeev_time_grid, lu_time_grid};

    #[test]
    fn closure_generic_matches_concrete_ggraph() {
        for n in [2usize, 3, 5, 8] {
            let gg = GGraph::new(n);
            let gen = gg.generic();
            assert_eq!(gen.rows(), gg.rows());
            assert_eq!(gen.gnode_count(), gg.gnode_count());
            assert_eq!(gen.h_max(), gg.h_max());
            for k in 0..n {
                assert_eq!(gen.row(k).gnode_time(), gg.gnode_time() as u64);
                for h in 0..=gen.h_max() + 1 {
                    let got = gen.at_h(k, h);
                    let want = gg.at_h(k, h).map(|id| match gg.role(id) {
                        GNodeRole::PivotHead => GenRole::Head,
                        GNodeRole::Fuse => GenRole::Fuse,
                        GNodeRole::DelayTail => GenRole::Tail,
                    });
                    assert_eq!(got, want, "n={n} k={k} h={h}");
                    if let Some(id) = gg.at_h(k, h) {
                        assert_eq!(gen.useful_ops(k, h), gg.useful_ops(id) as u64);
                    }
                }
            }
            let concrete: usize = gg.iter().map(|id| gg.useful_ops(id)).sum();
            assert_eq!(gen.total_useful_ops(), concrete as u64);
        }
    }

    #[test]
    fn lu_geometry_shrinks_with_levels() {
        let n = 6;
        let g = GenericGGraph::lu(n);
        assert_eq!(g.rows(), n - 1);
        assert_eq!(g.h_max(), n - 1);
        for k in 0..n - 1 {
            let r = g.row(k);
            assert_eq!(r.h_lo, k);
            assert_eq!(r.width, n - k);
            assert_eq!(r.len, n - k);
            assert!(!r.has_tail);
            assert_eq!(g.at_h(k, k), Some(GenRole::Head));
            assert_eq!(g.at_h(k, n - 1), Some(GenRole::Fuse));
            assert_eq!(g.at_h(k, k.wrapping_sub(1)), None);
        }
        // One useful update per fuse per sub-diagonal row: Σ (n-k)(n-k-1)
        // over levels... expressed per-row: (width-1) fuses × (len-1) ops.
        let want: u64 = (0..n - 1).map(|k| ((n - k - 1) * (n - k - 1)) as u64).sum();
        assert_eq!(g.total_useful_ops(), want);
    }

    #[test]
    fn faddeev_covers_two_n_and_stops_after_n_levels() {
        let n = 3;
        let g = GenericGGraph::faddeev(n);
        assert_eq!(g.rows(), n);
        assert_eq!(g.h_max(), 2 * n - 1);
        assert_eq!(g.row(0).len, 2 * n);
        assert_eq!(g.row(n - 1).len, n + 1);
    }

    #[test]
    fn from_time_grid_reconstructs_elimination_geometry() {
        let n = 7;
        assert_eq!(
            GenericGGraph::from_time_grid(&lu_time_grid(n)),
            GenericGGraph::lu(n)
        );
        assert_eq!(
            GenericGGraph::from_time_grid(&faddeev_time_grid(n)),
            GenericGGraph::faddeev(n)
        );
    }

    #[test]
    fn time_grid_is_len_times_duration() {
        let g = GenericGGraph::lu(5).with_row_durations(&[3, 2, 1, 1]);
        let tg = g.time_grid();
        assert_eq!(tg.times[0], vec![15; 5]); // len 5 × dur 3
        assert_eq!(tg.times[1], vec![8; 4]);
        assert!(tg.rows_uniform());
        assert!(!tg.is_uniform());
    }

    #[test]
    #[should_panic(expected = "time-uniform")]
    fn from_time_grid_rejects_mixed_rows() {
        let grid = TimeGrid {
            times: vec![vec![3, 2]],
        };
        let _ = GenericGGraph::from_time_grid(&grid);
    }
}
