//! The G-set schedule (Fig. 20): the input every plan is compiled from.
//!
//! A mapping places the G-graph on the array as an ordered list of
//! G-sets, each member pinned to a cell. [`GsetSchedule`] is that list
//! over any [`GenericGGraph`] — closure, LU or Faddeev — and the plan
//! compiler turns it into task programs (see `compile`), so the schedule
//! experiment E10 reports, `systolic schedule` checks and
//! `metrics::tradeoff` measures is the schedule the engines run.
//! [`GsetSchedule::verify_legal`] proves that every dependence points to
//! an earlier (or the same) G-set; debug builds run it on every compiled
//! plan.

use systolic_transform::{GenRole, GenericGGraph};

/// One member of a G-set: the G-node at skewed coordinates `(k, h)` and
/// the cell that runs it.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Placed {
    /// G-graph row.
    pub k: usize,
    /// Skewed column `h` (`h = g + k` for the closure parallelogram).
    pub h: usize,
    /// Array cell.
    pub cell: usize,
}

/// One scheduled G-set.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScheduleEntry {
    /// Execution order index.
    pub order: usize,
    /// Member G-nodes, placed on cells.
    pub members: Vec<Placed>,
}

impl ScheduleEntry {
    /// True when the set uses fewer cells than the array provides — the
    /// paper's boundary sets ("might not use all cells in the array").
    pub fn is_boundary(&self, cells: usize) -> bool {
        self.members.len() < cells
    }
}

/// An ordered G-set schedule over a G-graph.
#[derive(Clone, Debug)]
pub struct GsetSchedule {
    gg: GenericGGraph,
    /// Cells in the array (m for linear, s² for grid).
    pub cells: usize,
    entries: Vec<ScheduleEntry>,
}

impl GsetSchedule {
    /// An empty schedule of `gg` on `cells` cells.
    pub(crate) fn new(gg: &GenericGGraph, cells: usize) -> Self {
        Self {
            gg: gg.clone(),
            cells,
            entries: Vec::new(),
        }
    }

    /// Appends a G-set; an empty one (a block outside the graph) is
    /// skipped.
    pub(crate) fn push(&mut self, members: Vec<Placed>) {
        if !members.is_empty() {
            self.entries.push(ScheduleEntry {
                order: self.entries.len(),
                members,
            });
        }
    }

    /// The G-set of row `k` holding the `m` consecutive positions
    /// `h = b·m + c`, member `c` on cell `c`.
    pub(crate) fn row_block(gg: &GenericGGraph, k: usize, b: usize, m: usize) -> Vec<Placed> {
        (0..m)
            .filter_map(|c| {
                let h = b * m + c;
                gg.at_h(k, h).map(|_| Placed { k, h, cell: c })
            })
            .collect()
    }

    /// The closure G-graph's linear schedule; see
    /// [`GsetSchedule::linear_of`].
    pub fn linear(n: usize, m: usize) -> Self {
        Self::linear_of(&GenericGGraph::closure(n), m)
    }

    /// The closure G-graph's grid schedule; see [`GsetSchedule::grid_of`].
    pub fn grid(n: usize, s: usize) -> Self {
        Self::grid_of(&GenericGGraph::closure(n), s)
    }

    /// The linear mapping (Fig. 18) scheduled by vertical paths (Fig. 20a):
    /// G-sets are `m` consecutive `h` positions of one row, position
    /// `h` on cell `h mod m`; blocks advance left to right, rows top to
    /// bottom within a block.
    pub fn linear_of(gg: &GenericGGraph, m: usize) -> Self {
        assert!(m >= 1);
        let mut sched = Self::new(gg, m);
        for b in 0..(gg.h_max() + 1).div_ceil(m) {
            for k in 0..gg.rows() {
                sched.push(Self::row_block(gg, k, b, m));
            }
        }
        sched
    }

    /// The grid mapping (Fig. 19) scheduled by vertical block paths:
    /// G-sets are `s × s` blocks of `(k, h)` space, `(k, h)` on cell
    /// `(k mod s, h mod s)`; `h`-blocks advance left to right, `k`-blocks
    /// top to bottom within an `h`-block.
    pub fn grid_of(gg: &GenericGGraph, s: usize) -> Self {
        assert!(s >= 1);
        let mut sched = Self::new(gg, s * s);
        for bc in 0..(gg.h_max() + 1).div_ceil(s) {
            for br in 0..gg.rows().div_ceil(s) {
                let mut members = Vec::new();
                for ri in 0..s {
                    for ci in 0..s {
                        let (k, h) = (br * s + ri, bc * s + ci);
                        if gg.at_h(k, h).is_some() {
                            members.push(Placed {
                                k,
                                h,
                                cell: ri * s + ci,
                            });
                        }
                    }
                }
                sched.push(members);
            }
        }
        sched
    }

    /// The scheduled G-graph.
    pub fn graph(&self) -> &GenericGGraph {
        &self.gg
    }

    /// Scheduled entries in execution order.
    pub fn entries(&self) -> &[ScheduleEntry] {
        &self.entries
    }

    /// Number of G-sets (the paper's `n(n+1)/m` when boundaries divide
    /// evenly; slightly more otherwise because boundary sets are partial).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// G-sets that do not fill the array (the boundary sets).
    pub fn boundary_sets(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| e.is_boundary(self.cells))
            .count()
    }

    /// Total member G-nodes across all sets — must equal the graph's
    /// G-node count (`n(n+1)` for the closure).
    pub fn total_gnodes(&self) -> usize {
        self.entries.iter().map(|e| e.members.len()).sum()
    }

    /// Verifies that the schedule places every G-node exactly once and
    /// that every dependence of every member points to a G-node scheduled
    /// in an earlier entry or the same one (a stream inside one G-set
    /// rides a neighbour link).
    ///
    /// # Errors
    /// Describes the first misplaced G-node or violated dependence, in
    /// skewed `(k, h)` coordinates.
    pub fn verify_legal(&self) -> Result<(), String> {
        // G-node (k, h) at k·width + h.
        let width = self.gg.h_max() + 1;
        let mut order_of = vec![usize::MAX; self.gg.rows() * width];
        let mut covered = 0;
        for e in &self.entries {
            for p in &e.members {
                if self.gg.at_h(p.k, p.h).is_none() {
                    return Err(format!(
                        "entry {} places ({},{}), which is not a G-node",
                        e.order, p.k, p.h
                    ));
                }
                let i = p.k * width + p.h;
                if order_of[i] != usize::MAX {
                    return Err(format!("G-node ({},{}) is scheduled twice", p.k, p.h));
                }
                order_of[i] = e.order;
                covered += 1;
            }
        }
        if covered != self.gg.gnode_count() {
            return Err(format!(
                "schedule covers {covered} of {} G-nodes",
                self.gg.gnode_count()
            ));
        }
        for e in &self.entries {
            for p in &e.members {
                for (k, h) in producers(&self.gg, p.k, p.h).into_iter().flatten() {
                    let d = order_of[k * width + h];
                    if d > e.order {
                        return Err(format!(
                            "G-node ({},{}) in entry {} depends on ({k},{h}) in later entry {d}",
                            p.k, p.h, e.order
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

/// The G-nodes whose streams `(k, h)` reads: its column from `(k-1, h)`
/// (none in row 0, and none for a delay tail, which turns the row's pivot
/// stream into a column) and its pivot from `(k, h-1)` (none for the
/// row's head, which makes it).
fn producers(gg: &GenericGGraph, k: usize, h: usize) -> [Option<(usize, usize)>; 2] {
    let role = gg.at_h(k, h);
    [
        (k > 0 && role != Some(GenRole::Tail)).then(|| (k - 1, h)),
        (role != Some(GenRole::Head)).then(|| (k, h - 1)),
    ]
    .map(|dep| dep.filter(|&(k, h)| gg.at_h(k, h).is_some()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_schedule_covers_graph_and_is_legal() {
        for (n, m) in [(6usize, 2usize), (6, 3), (7, 3), (8, 5), (5, 1), (4, 9)] {
            let s = GsetSchedule::linear(n, m);
            assert_eq!(s.total_gnodes(), n * (n + 1), "n={n} m={m}");
            s.verify_legal()
                .unwrap_or_else(|e| panic!("n={n} m={m}: {e}"));
        }
    }

    #[test]
    fn grid_schedule_covers_graph_and_is_legal() {
        for (n, s) in [(6usize, 2usize), (7, 3), (9, 2), (5, 5)] {
            let sch = GsetSchedule::grid(n, s);
            assert_eq!(sch.total_gnodes(), n * (n + 1), "n={n} s={s}");
            sch.verify_legal()
                .unwrap_or_else(|e| panic!("n={n} s={s}: {e}"));
        }
    }

    #[test]
    fn gset_count_matches_paper_in_the_divisible_interior() {
        // n(n+1)/m full sets plus partial boundary sets.
        let (n, m) = (8usize, 3usize);
        let s = GsetSchedule::linear(n, m);
        let full = s.entries().iter().filter(|e| e.members.len() == m).count();
        let boundary = s.boundary_sets();
        assert_eq!(
            full * m
                + s.entries()
                    .iter()
                    .filter(|e| e.is_boundary(m))
                    .map(|e| e.members.len())
                    .sum::<usize>(),
            n * (n + 1)
        );
        assert!(boundary > 0, "parallelogram edges produce boundary sets");
    }

    #[test]
    fn grid_boundary_sets_are_triangular() {
        // The first h-block's first k-block is cut by the parallelogram's
        // left slant: member count is the triangular number s(s+1)/2.
        let (n, s) = (8usize, 3usize);
        let sch = GsetSchedule::grid(n, s);
        let first = &sch.entries()[0];
        assert_eq!(first.members.len(), s * (s + 1) / 2);
    }

    #[test]
    fn swapped_entries_name_the_broken_dependence() {
        // Block 0 of the n = 5, m = 2 linear schedule runs rows 0 and 1 as
        // entries 0 and 1; swapping them makes row 1's head (1,1) read
        // its column before its producer (0,1) has run.
        let mut s = GsetSchedule::linear(5, 2);
        s.entries.swap(0, 1);
        for (order, e) in s.entries.iter_mut().enumerate() {
            e.order = order;
        }
        let err = s.verify_legal().unwrap_err();
        assert_eq!(
            err,
            "G-node (1,1) in entry 0 depends on (0,1) in later entry 1"
        );
    }

    #[test]
    fn a_missing_gnode_is_a_coverage_error() {
        let mut s = GsetSchedule::grid(5, 2);
        s.entries[3].members.pop();
        let err = s.verify_legal().unwrap_err();
        assert_eq!(err, "schedule covers 29 of 30 G-nodes");
    }
}
