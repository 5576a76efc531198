//! The plan compiler: a mapping's G-set assignment in, a
//! [`CompiledPlan`] out.
//!
//! Every mapping is an [`Assignment`]: its [`GsetSchedule`] (G-sets in
//! order, each member placed on a cell), its neighbour links in creation
//! order, its boundary banks and where row 0 reads its input.
//! [`compile`] is the only code that turns one into task programs, with
//! one wiring rule (the paper's §4): a stream between two G-nodes rides a
//! link when the mapping wired one from the producer's cell to the
//! consumer's, and otherwise goes through the producer cell's column or
//! pivot boundary bank. Debug builds check that this is the G-set rule —
//! links join members of one G-set, banks carry every stream that crosses
//! a G-set boundary — and that the schedule is dependence-legal.

use crate::engine::{stream_key, EngineError};
use crate::plan::{CompiledPlan, Feed};
use crate::schedule::{GsetSchedule, Placed};
use systolic_arraysim::{StreamDst, StreamSrc, Task, TaskKind, TaskLabel};
use systolic_semiring::{DenseMatrix, Semiring};
use systolic_transform::{GRowSpec, GenRole, GenericGGraph};

/// Where row 0 reads its input columns.
#[derive(Copy, Clone, Debug)]
pub(crate) enum Input {
    /// The host streams column `h` to the cell of G-node `(0, h)`, in
    /// schedule order.
    Host,
    /// Column `h` is preloaded into boundary port `h` (bank `h`).
    Ports,
}

/// A mapping's whole decision: which cell runs each G-node and in which
/// order, and the wiring around the cells. Everything else is [`compile`].
pub(crate) struct Assignment {
    pub(crate) schedule: GsetSchedule,
    /// Neighbour links `(from cell, to cell, delay)` in creation order;
    /// link ids appear in fault events, so the order is part of the plan.
    pub(crate) links: Vec<(usize, usize, u64)>,
    /// Number of boundary banks.
    pub(crate) banks: usize,
    /// Per cell: the bank its column streams cross G-set boundaries
    /// through (empty when every column stream rides a link).
    pub(crate) col_bank: Vec<usize>,
    /// Per cell: the bank its pivot streams cross G-set boundaries through.
    pub(crate) pivot_bank: Vec<usize>,
    pub(crate) input: Input,
    pub(crate) memory_connections: usize,
}

/// Compiles `batch_len` back-to-back instances of `a`'s schedule into a
/// plan with the given cycle budget.
///
/// Slots are numbered per bank and per host R-block in the order streams
/// are first written — row-0 feeds and producer writes, tasks in schedule
/// order — and the feeds replay in that order.
///
/// A closure row (one ending in a delay tail) runs pivot-head, fuse and
/// tail tasks; an elimination level (§4.3) runs divider-head and
/// elimination-fuse tasks, each fuse emitting its finished pivot-row
/// element, and drains its pivot stream at the row's right edge.
pub(crate) fn compile(a: &Assignment, batch_len: usize, max_cycles: u64) -> CompiledPlan {
    let sched = &a.schedule;
    let gg = sched.graph();
    debug_assert_eq!(sched.verify_legal(), Ok(()), "illegal schedule");
    // Per G-node (k, h), at k·width + h: its cell and its G-set.
    let width = gg.h_max() + 1;
    let mut cell_of = vec![0; gg.rows() * width];
    let mut set_of = vec![0; gg.rows() * width];
    for e in sched.entries() {
        for p in &e.members {
            cell_of[p.k * width + p.h] = p.cell;
            set_of[p.k * width + p.h] = e.order;
        }
    }
    let mut links: Vec<_> = a
        .links
        .iter()
        .enumerate()
        .map(|(id, &(from, to, _))| (from, to, id))
        .collect();
    links.sort_unstable();
    let link_start = (0..=sched.cells)
        .map(|c| links.partition_point(|&(from, ..)| from < c))
        .collect();
    let mut wiring = Wiring {
        width,
        set_of,
        links,
        link_start,
        banks: [&a.col_bank, &a.pivot_bank],
        slots: [vec![0; cell_of.len()], vec![0; cell_of.len()]],
        bank_slots: vec![Vec::new(); a.banks],
        host_slots: vec![0; sched.cells],
        feeds: Vec::new(),
        cell_of,
    };

    let layout = OutputLayout::new(gg);
    let last = gg.rows() - 1;
    let mut programs = vec![Vec::new(); sched.cells];
    for inst in 0..batch_len {
        for &Placed { k, h, cell } in sched.entries().iter().flat_map(|e| &e.members) {
            let row = gg.row(k);
            let role = gg.at_h(k, h).expect("members are G-nodes");
            let node = k * width + h;
            let kind = match (role, row.has_tail) {
                (GenRole::Head, true) => TaskKind::PivotHead,
                (GenRole::Fuse, true) => TaskKind::Fuse,
                (GenRole::Tail, _) => TaskKind::DelayTail,
                (GenRole::Head, false) => TaskKind::DivHead,
                (GenRole::Fuse, false) => TaskKind::ElimFuse,
            };
            let col_in = match role {
                GenRole::Tail => None,
                _ if k == 0 => Some(wiring.input(a.input, inst, h, cell)),
                _ => Some(wiring.src(COL, (k - 1, h), node)),
            };
            let pivot_in = match role {
                GenRole::Head => None,
                _ => Some(wiring.src(PIVOT, (k, h - 1), node)),
            };
            let col_out = match role {
                GenRole::Head => None,
                _ if k == last => Some(StreamDst::Output {
                    stream: layout.tail(inst, h),
                }),
                _ => Some(wiring.dst(inst, COL, (k, h), (k + 1, h))),
            };
            let pivot_out = match role {
                GenRole::Tail => None,
                _ if h == row.h_hi() => Some(StreamDst::Output {
                    stream: layout.lcol(inst, k),
                }),
                _ => Some(wiring.dst(inst, PIVOT, (k, h), (k, h + 1))),
            };
            let head_out = (role == GenRole::Fuse && !row.has_tail).then(|| StreamDst::Output {
                stream: layout.head(inst, k, h),
            });
            programs[cell].push(Task {
                kind,
                len: row.len,
                col_in,
                pivot_in,
                col_out,
                pivot_out,
                head_out,
                duration: row.duration,
                useful_ops: gg.useful_ops(k, h),
                label: TaskLabel {
                    k: k as u32,
                    h: h as u32,
                },
            });
        }
    }
    CompiledPlan {
        n: gg.row(0).len,
        batch_len,
        cells: sched.cells,
        link_delays: a.links.iter().map(|l| l.2).collect(),
        bank_slots: wiring.bank_slots,
        outputs: batch_len * layout.per_instance,
        memory_connections: a.memory_connections,
        max_cycles,
        feeds: wiring.feeds,
        programs: programs.into_iter().map(Into::into).collect(),
    }
}

/// The two stream kinds between G-nodes: columns flow down a G-graph
/// column, pivots flow right along a row.
const COL: usize = 0;
const PIVOT: usize = 1;

/// The link-or-bank decision for every stream, and the slots and feeds
/// it allocates.
struct Wiring<'a> {
    /// Per G-node `(k, h)`, at `k·width + h`: the cell that runs it and
    /// the G-set it belongs to.
    width: usize,
    cell_of: Vec<usize>,
    set_of: Vec<usize>,
    /// `(from cell, to cell, link id)`, sorted: cell `c`'s outgoing links
    /// are `links[link_start[c]..link_start[c + 1]]`.
    links: Vec<(usize, usize, usize)>,
    link_start: Vec<usize>,
    /// Per stream kind: each cell's boundary bank.
    banks: [&'a [usize]; 2],
    /// Per stream kind: the bank slot each G-node wrote in the current
    /// instance. A bank stream crosses a G-set boundary and a legal
    /// schedule runs the producer's G-set first, so the producer's write
    /// is the stream's first use and its consumers read the slot later.
    slots: [Vec<usize>; 2],
    /// Per bank: the stream keys written to it, indexed by slot.
    bank_slots: Vec<Vec<u64>>,
    /// Per cell: host streams queued for it so far.
    host_slots: Vec<usize>,
    /// Input columns in demand order.
    feeds: Vec<Feed>,
}

impl Wiring<'_> {
    /// The link wired from G-node `from`'s cell to G-node `to`'s, if any.
    fn link(&self, from: usize, to: usize) -> Option<usize> {
        let (from_cell, to_cell) = (self.cell_of[from], self.cell_of[to]);
        let out = &self.links[self.link_start[from_cell]..self.link_start[from_cell + 1]];
        let link = out.iter().find(|l| l.1 == to_cell).map(|l| l.2);
        debug_assert_eq!(
            link.is_some(),
            self.set_of[from] == self.set_of[to],
            "links join members of one G-set and banks cross G-set boundaries \
             (G-sets {} → {})",
            self.set_of[from],
            self.set_of[to]
        );
        link
    }

    /// Gives stream `key` the next slot of `bank`.
    fn bank_slot(&mut self, bank: usize, key: u64) -> usize {
        self.bank_slots[bank].push(key);
        self.bank_slots[bank].len() - 1
    }

    /// Where row-0 G-node `(0, h)` on `cell` reads column `h` of instance
    /// `inst`, recording the feed.
    fn input(&mut self, input: Input, inst: usize, h: usize, cell: usize) -> StreamSrc {
        let (i, col) = (inst as u32, h as u32);
        match input {
            Input::Host => {
                let slot = self.host_slots[cell];
                self.host_slots[cell] += 1;
                self.feeds.push(Feed::Host {
                    cell,
                    slot,
                    inst: i,
                    col,
                });
                StreamSrc::Host { slot }
            }
            Input::Ports => {
                let slot = self.bank_slot(h, stream_key(inst, 0, h));
                self.feeds.push(Feed::Preload {
                    bank: h,
                    slot,
                    inst: i,
                    col,
                });
                StreamSrc::Bank { bank: h, slot }
            }
        }
    }

    /// Where G-node `to` reads the `kind` stream G-node `(k, h)` wrote.
    fn src(&self, kind: usize, (k, h): (usize, usize), to: usize) -> StreamSrc {
        let from = k * self.width + h;
        match self.link(from, to) {
            Some(l) => StreamSrc::Link(l),
            None => StreamSrc::Bank {
                bank: self.banks[kind][self.cell_of[from]],
                slot: self.slots[kind][from],
            },
        }
    }

    /// Where G-node `(k, h)` of instance `inst` writes the `kind` stream
    /// G-node `to` reads; a bank write takes the bank's next slot.
    fn dst(
        &mut self,
        inst: usize,
        kind: usize,
        (k, h): (usize, usize),
        to: (usize, usize),
    ) -> StreamDst {
        let (from, to) = (k * self.width + h, to.0 * self.width + to.1);
        match self.link(from, to) {
            Some(l) => StreamDst::Link(l),
            None => {
                let bank = self.banks[kind][self.cell_of[from]];
                let slot = self.bank_slot(bank, stream_key(inst, k, h));
                self.slots[kind][from] = slot;
                StreamDst::Bank { bank, slot }
            }
        }
    }
}

/// Where a plan's results land in its output streams. Per instance:
///
/// 1. one single-word *head* stream per elimination fuse `(k, h)` — the
///    finished pivot-row element;
/// 2. one *L-column* stream per elimination level — the pivot stream
///    leaving the row's right edge;
/// 3. one stream per column the last row emits — the closure's result
///    columns, or the trailing block after the last elimination level.
///
/// [`compile`] writes it and [`OutputLayout::unload`] reads it back.
pub(crate) struct OutputLayout {
    rows: Vec<GRowSpec>,
    /// Per row: its first head stream and its L-column stream.
    heads: Vec<usize>,
    lcols: Vec<usize>,
    /// First last-row column stream.
    tail: usize,
    per_instance: usize,
}

impl OutputLayout {
    pub(crate) fn new(gg: &GenericGGraph) -> Self {
        let rows: Vec<GRowSpec> = (0..gg.rows()).map(|k| *gg.row(k)).collect();
        let drains = |r: &GRowSpec| usize::from(!r.has_tail);
        let mut next = 0;
        let mut take = |count: usize| {
            next += count;
            next - count
        };
        let heads = rows
            .iter()
            .map(|r| take(drains(r) * (r.width - 1)))
            .collect();
        let lcols = rows.iter().map(|r| take(drains(r))).collect();
        let tail = take(0);
        let per_instance = tail + rows[rows.len() - 1].width - 1;
        Self {
            rows,
            heads,
            lcols,
            tail,
            per_instance,
        }
    }

    /// Head stream of elimination fuse `(k, h)`.
    pub(crate) fn head(&self, inst: usize, k: usize, h: usize) -> usize {
        inst * self.per_instance + self.heads[k] + (h - self.rows[k].h_lo - 1)
    }

    /// L-column stream of elimination level `k`.
    pub(crate) fn lcol(&self, inst: usize, k: usize) -> usize {
        inst * self.per_instance + self.lcols[k]
    }

    /// Stream of the column the last row emits at `h`.
    pub(crate) fn tail(&self, inst: usize, h: usize) -> usize {
        let last = &self.rows[self.rows.len() - 1];
        inst * self.per_instance + self.tail + (h - last.h_lo - 1)
    }

    /// Reassembles instance `inst`'s `msize × msize` result (`msize` =
    /// row 0's stream length). Every row ends at the matrix's last column
    /// and a stream fills its column bottom-up: each draining level leaves
    /// its L-column and, through its heads, its finished pivot row; the
    /// last row's columns hold the rest — for a closure graph, which has
    /// no draining level, the whole result.
    ///
    /// # Errors
    /// [`EngineError::Corrupt`] for instance `inst` when a stream drained
    /// with the wrong word count (a dropped or duplicated word).
    pub(crate) fn unload<S: Semiring>(
        &self,
        outs: &[Vec<S::Elem>],
        inst: usize,
    ) -> Result<DenseMatrix<S>, EngineError> {
        let msize = self.rows[0].len;
        let col = |row: &GRowSpec, h: usize| msize - 1 - (row.h_hi() - h);
        let mut f = DenseMatrix::<S>::zeros(msize, msize);
        let mut fill = |(what, id): (&str, usize), stream: usize, want, top, j| {
            let got = &outs[stream];
            if got.len() != want {
                return Err(EngineError::Corrupt {
                    instance: inst,
                    detail: format!("{what} {id} has {} of {want} words", got.len()),
                });
            }
            for (r, v) in got.iter().enumerate() {
                f.set(top + r, j, v.clone());
            }
            Ok(())
        };
        for (k, row) in self.rows.iter().enumerate().filter(|(_, r)| !r.has_tail) {
            let (top, lc) = (msize - row.len, self.lcol(inst, k));
            fill(("output stream", lc), lc, row.len, top, col(row, row.h_lo))?;
            for h in row.h_lo + 1..=row.h_hi() {
                let head = self.head(inst, k, h);
                fill(("output stream", head), head, 1, top, col(row, h))?;
            }
        }
        let last = &self.rows[self.rows.len() - 1];
        let len = last.len - usize::from(!last.has_tail);
        for h in last.h_lo + 1..=last.h_hi() {
            let j = col(last, h);
            fill(
                ("output column", j),
                self.tail(inst, h),
                len,
                msize - len,
                j,
            )?;
        }
        Ok(f)
    }
}

/// Cycle budget for `batch_len` instances of any G-graph a
/// [`GraphMapping`](crate::GraphMapping) compiles, sized from the graph's
/// total G-node time.
pub(crate) fn graph_budget(gg: &GenericGGraph, batch_len: usize) -> u64 {
    let total: u64 = (0..gg.rows())
        .map(|k| gg.row(k).width as u64 * gg.row(k).gnode_time())
        .sum();
    batch_len as u64 * (total * 40 + 1_000) + 200_000
}
