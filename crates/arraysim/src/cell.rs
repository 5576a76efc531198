//! Cells and their task programs.
//!
//! A cell's firing rules depend only on stream *availability*, never on
//! the values carried (values are touched solely through `S::fuse` /
//! `S::zero` and moves), so the payload may be any semiring element — one
//! Boolean, a `u64` of 64 bit-sliced Booleans, a min-plus weight — with
//! bit-identical timing.

use crate::host::Host;
use crate::inject::{corrupt_value_in_lane, FaultInjector, LinkFate};
use crate::stream::{Bank, Link, StreamDst, StreamSrc};
use std::sync::Arc;
use systolic_semiring::Semiring;

/// The G-node role a task executes (see `systolic-transform::ggraph`), plus
/// the stationary multiply-accumulate roles used by the matrix-product
/// baseline array (Núñez–Torralba \[22\]).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum TaskKind {
    /// Consume the pivot column, emit it as the pivot stream.
    PivotHead,
    /// Fuse one matrix column against the pivot stream; forward the pivot;
    /// emit the column rotated (head last).
    Fuse,
    /// Consume the pivot stream, emit it rotated as a column.
    DelayTail,
    /// Gaussian-elimination pivot head: consume one matrix column, latch its
    /// head `x_kk`, emit the head unchanged then `x_ik / x_kk` for the rest
    /// of the stream (`pivot_out`). Requires a semiring overriding
    /// [`systolic_semiring::Semiring::div`].
    DivHead,
    /// Gaussian-elimination fuse: like `Fuse` but the update is
    /// `x − p ⊗ q` ([`systolic_semiring::Semiring::elim`]) and the latched
    /// head (the finished `u_kh` element) is re-emitted on `head_out` when
    /// set, else on `col_out`.
    ElimFuse,
    /// Pure pass-through of a column stream (used by coalescing baselines
    /// and unload chains).
    Pass,
    /// Load one word into the cell's accumulator (`col_in`, length 1).
    LoadAcc,
    /// Stationary multiply-accumulate: per element, consume an `a` word
    /// (`col_in`) and a `b` word (`pivot_in`), update `acc ← acc ⊕ (a ⊗ b)`
    /// and forward both operands (`col_out` / `pivot_out`).
    Mac,
    /// Emit the accumulator (`col_out`, length 1).
    EmitAcc,
}

/// Identifies the G-node a task implements, for tracing and assertions.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct TaskLabel {
    /// G-graph row (Warshall level).
    pub k: u32,
    /// Skewed position `h`.
    pub h: u32,
}

/// One streamed G-node execution on a cell.
#[derive(Clone, Debug)]
pub struct Task {
    /// Role.
    pub kind: TaskKind,
    /// Stream length (`n`).
    pub len: usize,
    /// Column input (required by `PivotHead`, `Fuse`, `Pass`).
    pub col_in: Option<StreamSrc>,
    /// Pivot input (required by `Fuse`, `DelayTail`).
    pub pivot_in: Option<StreamSrc>,
    /// Column output (required by `Fuse`, `DelayTail`, `Pass`).
    pub col_out: Option<StreamDst>,
    /// Pivot output (required by `PivotHead`; `Fuse` forwards when set).
    pub pivot_out: Option<StreamDst>,
    /// Where the deferred (rotated) head word goes for `ElimFuse` tasks;
    /// `None` falls back to `col_out` (the closure behaviour).
    pub head_out: Option<StreamDst>,
    /// Cycles the cell stays busy per stream element (the §4.3 varying
    /// G-node computation time; `1` is the classical single-cycle task).
    pub duration: u32,
    /// Useful primitive operations performed (`n-2` for a fuse G-node).
    pub useful_ops: u64,
    /// Traceability label.
    pub label: TaskLabel,
}

/// A cell's task program: either built in place task by task, or a shared
/// immutable program compiled once and reused across runs (and across the
/// engine replicas of a parallel batch). Execution tracks a cursor instead
/// of consuming the queue, so re-running a schedule needs no rebuild.
#[derive(Clone, Debug)]
enum Program {
    /// Locally built, mutable (the historical `push_task` path).
    Owned(Vec<Task>),
    /// Compiled once, shared by reference.
    Shared(Arc<[Task]>),
}

impl Program {
    fn tasks(&self) -> &[Task] {
        match self {
            Program::Owned(v) => v,
            Program::Shared(a) => a,
        }
    }
}

/// A task's firing rules, decoded from its kind and ports once, when the
/// program is installed, so the per-element step reads them instead of
/// matching the task kind again.
#[derive(Copy, Clone, Debug)]
struct Rule {
    /// Column input consumed by every element (`None`: the role reads none).
    col_in: Option<StreamSrc>,
    /// Pivot input consumed by every element (`None`: the role reads none).
    piv_in: Option<StreamSrc>,
    /// The role needs an input port the task leaves unset: it never fires.
    unwired: bool,
    /// Where the latched head goes after the last element (`Fuse`,
    /// `ElimFuse`, `DelayTail`).
    head_out: Option<StreamDst>,
    /// Link the column port writes, when it writes one; links are the only
    /// destinations that can refuse a word.
    col_link: Option<usize>,
    /// First element that writes the column port (the rotating roles
    /// defer element 0's word, the head).
    col_from: usize,
    /// Link the pivot port writes, when it writes one.
    piv_link: Option<usize>,
    /// Cycles per element, at least 1.
    dur: u32,
}

impl Rule {
    fn decode(t: &Task) -> Self {
        use TaskKind::*;
        let reads_col = !matches!(t.kind, DelayTail | EmitAcc);
        let reads_piv = matches!(t.kind, Fuse | ElimFuse | DelayTail | Mac);
        let link = |d: Option<StreamDst>| match d {
            Some(StreamDst::Link(l)) => Some(l),
            _ => None,
        };
        Rule {
            col_in: t.col_in.filter(|_| reads_col),
            piv_in: t.pivot_in.filter(|_| reads_piv),
            unwired: (reads_col && t.col_in.is_none()) || (reads_piv && t.pivot_in.is_none()),
            head_out: match t.kind {
                Fuse | ElimFuse => t.head_out.or(t.col_out),
                DelayTail => t.col_out,
                _ => None,
            },
            col_link: match t.kind {
                PivotHead | DivHead | LoadAcc => None,
                _ => link(t.col_out),
            },
            col_from: usize::from(matches!(t.kind, Fuse | ElimFuse | DelayTail)),
            piv_link: match t.kind {
                PivotHead | DivHead | Fuse | ElimFuse | Mac => link(t.pivot_out),
                _ => None,
            },
            dur: t.duration.max(1),
        }
    }
}

/// Progress made by a cell in one cycle.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Step {
    /// Consumed/produced words this cycle.
    Worked,
    /// Required input or output was unavailable.
    Stalled,
    /// Still executing a multi-cycle element (fired earlier, finishes at
    /// `busy_until`); the cell neither consumed nor stalled this cycle.
    Busy,
    /// No tasks remain.
    Done,
}

/// Mutable view of the shared fabric a cell interacts with.
pub struct Fabric<'a, S: Semiring> {
    /// Neighbor links.
    pub links: &'a mut [Link<S::Elem>],
    /// External memory banks.
    pub banks: &'a mut [Bank<S::Elem>],
    /// Host R-block memories.
    pub host: &'a mut Host<S>,
    /// Output collector streams.
    pub outputs: &'a mut [Vec<S::Elem>],
    /// Current cycle.
    pub now: u64,
    /// Active fault injector, if a fault plan was set on the array.
    pub inject: Option<&'a mut FaultInjector>,
    /// Net words added to bank residence (bank writes minus bank reads),
    /// for incremental `peak_bank_resident` accounting.
    pub bank_delta: isize,
}

impl<S: Semiring> Fabric<'_, S> {
    #[inline(always)]
    fn src_ready(&self, src: StreamSrc, cell: usize) -> bool {
        match src {
            StreamSrc::Bank { bank, slot } => self.banks[bank].can_read(slot, self.now),
            StreamSrc::Link(l) => self.links[l].can_read(self.now),
            StreamSrc::Host { slot } => self.host.can_read(cell, slot, self.now),
        }
    }

    #[inline(always)]
    fn src_take(&mut self, src: StreamSrc, cell: usize) -> S::Elem {
        match src {
            StreamSrc::Bank { bank, slot } => {
                self.bank_delta -= 1;
                self.banks[bank]
                    .read(slot, self.now)
                    .expect("bank readiness checked")
            }
            StreamSrc::Link(l) => self.links[l]
                .read(self.now)
                .expect("link readiness checked"),
            StreamSrc::Host { slot } => self
                .host
                .read(cell, slot, self.now)
                .expect("host readiness checked"),
        }
    }

    #[inline(always)]
    fn link_free(&self, link: Option<usize>) -> bool {
        link.is_none_or(|l| self.links[l].can_write())
    }

    #[inline(always)]
    fn dst_ready(&self, dst: StreamDst) -> bool {
        match dst {
            StreamDst::Link(l) => self.links[l].can_write(),
            StreamDst::Bank { .. } | StreamDst::Output { .. } | StreamDst::Sink => true,
        }
    }

    #[inline(always)]
    fn dst_put(&mut self, dst: StreamDst, e: S::Elem, cell: usize) {
        // Sink writes have no physical register, so no fault can land there
        // (and an unobservable corruption would poison coverage accounting).
        // An armed put whose draws all land on quiet stream positions takes
        // them inline and delivers as a clean put does.
        if let Some(inj) = self.inject.as_deref_mut() {
            if dst != StreamDst::Sink && !inj.skip_put(matches!(dst, StreamDst::Link(_))) {
                self.put_armed(dst, e, cell);
                return;
            }
        }
        self.deliver(dst, e);
    }

    /// An armed emit with a candidate position among its draws: the
    /// injector rolls for corruption, then a link-bound word's fate, in
    /// that order.
    #[inline(never)]
    fn put_armed(&mut self, dst: StreamDst, mut e: S::Elem, cell: usize) {
        let inj = self
            .inject
            .as_deref_mut()
            .expect("armed put has an injector");
        if inj.on_emit(self.now, cell) {
            e = corrupt_value_in_lane::<S>(&e, inj.target_lane());
        }
        if let StreamDst::Link(l) = dst {
            match inj.on_link_write(self.now, l) {
                LinkFate::Deliver => {}
                LinkFate::Drop => return,
                LinkFate::Duplicate => {
                    self.links[l].write(self.now, e.clone());
                    self.links[l].force_write(self.now, e);
                    return;
                }
            }
        }
        self.deliver(dst, e);
    }

    #[inline(always)]
    fn deliver(&mut self, dst: StreamDst, e: S::Elem) {
        match dst {
            StreamDst::Bank { bank, slot } => {
                self.banks[bank].write(slot, self.now, e);
                self.bank_delta += 1;
            }
            StreamDst::Link(l) => self.links[l].write(self.now, e),
            StreamDst::Output { stream } => self.outputs[stream].push(e),
            StreamDst::Sink => {}
        }
    }
}

/// A processing element executing its task program by dataflow firing.
#[derive(Clone, Debug)]
pub struct Cell<S: Semiring> {
    /// Cell index within the array.
    pub id: usize,
    program: Program,
    /// The program's firing rules, one per task.
    rules: Vec<Rule>,
    /// Next task to execute.
    cursor: usize,
    /// Element index within the current task.
    pos: usize,
    /// The latched head of the current stream (pivot-row element `q`).
    latch: Option<S::Elem>,
    /// Head word awaiting re-emission one cycle after its task's last
    /// consume cycle (the rotation's trailing slot). Keeps every link at
    /// one word per cycle; the slack is what the paper's delay column
    /// absorbs.
    deferred: Option<(StreamDst, S::Elem)>,
    /// First cycle at which the cell is free again after a multi-cycle
    /// element step (`0` when idle or running single-cycle tasks).
    pub busy_until: u64,
    /// Cycles in which this cell consumed or produced words.
    pub busy_cycles: u64,
    /// Cycles in which this cell had a task but could not fire.
    pub stall_cycles: u64,
    /// Useful primitive operations executed.
    pub useful_ops: u64,
    /// Task spans recorded when tracing is enabled.
    pub spans: Option<Vec<crate::trace::TaskSpan>>,
    cur_start: u64,
}

impl<S: Semiring> Cell<S> {
    /// Creates a cell with an empty program.
    pub fn new(id: usize) -> Self {
        Self {
            id,
            program: Program::Owned(Vec::new()),
            rules: Vec::new(),
            cursor: 0,
            pos: 0,
            latch: None,
            deferred: None,
            busy_until: 0,
            busy_cycles: 0,
            stall_cycles: 0,
            useful_ops: 0,
            spans: None,
            cur_start: 0,
        }
    }

    /// Appends a task to the cell's program.
    ///
    /// # Panics
    /// Panics if the cell runs a shared compiled program.
    pub fn push_task(&mut self, t: Task) {
        debug_assert!(t.len >= 1, "streams must be non-empty");
        match &mut self.program {
            Program::Owned(v) => {
                self.rules.push(Rule::decode(&t));
                v.push(t);
            }
            Program::Shared(_) => panic!("cannot extend a shared compiled program"),
        }
    }

    /// Installs a compiled program shared by reference (replacing any
    /// previous program) and rewinds execution to its start. Each task's
    /// firing rules are decoded here, once per simulator, not on every
    /// element.
    pub fn set_program(&mut self, tasks: Arc<[Task]>) {
        self.rules = tasks.iter().map(Rule::decode).collect();
        self.program = Program::Shared(tasks);
        self.cursor = 0;
        self.pos = 0;
    }

    /// Remaining task count (a pending deferred head counts as work).
    #[inline]
    pub fn pending(&self) -> usize {
        (self.rules.len() - self.cursor) + usize::from(self.deferred.is_some())
    }

    /// Longest per-element duration in this cell's program (`1` when the
    /// program is empty). Bounds how long a busy cell can stay silent, so
    /// the run loop folds it into its deadlock grace period.
    pub fn max_task_duration(&self) -> u64 {
        self.rules
            .iter()
            .map(|r| u64::from(r.dur))
            .max()
            .unwrap_or(1)
    }

    /// Rewinds the program and clears all dynamic state and counters,
    /// keeping the program itself (shared or owned) and allocations.
    pub fn reset(&mut self) {
        self.cursor = 0;
        self.pos = 0;
        self.latch = None;
        self.deferred = None;
        self.busy_until = 0;
        self.busy_cycles = 0;
        self.stall_cycles = 0;
        self.useful_ops = 0;
        if let Some(spans) = &mut self.spans {
            spans.clear();
        }
        self.cur_start = 0;
    }

    /// Describes what this cell is waiting on, for deadlock reports.
    /// `None` when the cell has no remaining work.
    pub fn describe_blocked(&self) -> Option<String> {
        if let Some((dst, _)) = &self.deferred {
            return Some(format!(
                "cell {}: deferred head write to {dst:?} blocked",
                self.id
            ));
        }
        let t = self.program.tasks().get(self.cursor)?;
        Some(format!(
            "cell {}: {:?} (k={}, h={}) stalled at element {}/{}; \
             col_in={:?} pivot_in={:?} col_out={:?} pivot_out={:?}",
            self.id,
            t.kind,
            t.label.k,
            t.label.h,
            self.pos,
            t.len,
            t.col_in,
            t.pivot_in,
            t.col_out,
            t.pivot_out
        ))
    }

    /// Executes at most one stream element of the current task.
    #[inline]
    pub fn step(&mut self, fab: &mut Fabric<'_, S>) -> Step {
        // A multi-cycle element occupies the ALU until `busy_until`; the
        // cell cannot consume, stall or flush before then.
        if fab.now < self.busy_until {
            if self.pending() == 0 {
                return Step::Done;
            }
            return Step::Busy;
        }
        // Flush the previous task's trailing head first; it uses the output
        // port this cycle, so a failed flush stalls the cell.
        if let Some((dst, _)) = &self.deferred {
            if fab.dst_ready(*dst) {
                let (dst, e) = self.deferred.take().expect("checked above");
                fab.dst_put(dst, e, self.id);
                self.busy_cycles += 1;
                // The current task's first element may fire in the same
                // cycle (r = 0 never writes the column port); fall through.
                if self.rules.len() == self.cursor {
                    return Step::Worked;
                }
            } else {
                self.stall_cycles += 1;
                return Step::Stalled;
            }
        }
        let Some(task) = self.program.tasks().get(self.cursor) else {
            return Step::Done;
        };
        let rule = &self.rules[self.cursor];
        let cell = self.id;
        let r = self.pos;
        let last = r + 1 == task.len;

        // Readiness of every port this element touches.
        let ready = !rule.unwired
            && rule.col_in.is_none_or(|s| fab.src_ready(s, cell))
            && rule.piv_in.is_none_or(|s| fab.src_ready(s, cell))
            && (r < rule.col_from || fab.link_free(rule.col_link))
            && fab.link_free(rule.piv_link);
        if !ready {
            self.stall_cycles += 1;
            return Step::Stalled;
        }

        let c = rule.col_in.map(|s| fab.src_take(s, cell));
        let p = rule.piv_in.map(|s| fab.src_take(s, cell));

        match task.kind {
            TaskKind::PivotHead => {
                let c = c.expect("pivot head consumes the column");
                if let Some(d) = task.pivot_out {
                    fab.dst_put(d, c, cell);
                }
            }
            TaskKind::Fuse | TaskKind::ElimFuse => {
                let c = c.expect("fuse consumes the column");
                let p = p.expect("fuse consumes the pivot");
                if r == 0 {
                    // Latch the pivot-row element q = x[k][j] (for the
                    // elimination variant: the finished element u_kh).
                    self.latch = Some(c);
                } else {
                    let q = self.latch.as_ref().expect("head latched at r=0");
                    let v = if task.kind == TaskKind::ElimFuse {
                        S::elim(&c, &p, q)
                    } else {
                        S::fuse(&c, &p, q)
                    };
                    if let Some(d) = task.col_out {
                        fab.dst_put(d, v, cell);
                    }
                }
                if last {
                    // Re-emit the latched head as the final (rotated) slot,
                    // one cycle later (deferred write).
                    let q = self.latch.take().expect("head latched at r=0");
                    self.deferred = rule.head_out.map(|d| (d, q));
                }
                if let Some(d) = task.pivot_out {
                    fab.dst_put(d, p, cell);
                }
            }
            TaskKind::DivHead => {
                let c = c.expect("div head consumes the column");
                if r == 0 {
                    // Latch the pivot element x_kk and echo it unchanged.
                    self.latch = Some(c.clone());
                    if let Some(d) = task.pivot_out {
                        fab.dst_put(d, c, cell);
                    }
                } else {
                    let q = self.latch.as_ref().expect("pivot latched at r=0");
                    let v = S::div(&c, q);
                    if let Some(d) = task.pivot_out {
                        fab.dst_put(d, v, cell);
                    }
                }
                if last {
                    self.latch = None;
                }
            }
            TaskKind::DelayTail => {
                let p = p.expect("delay tail consumes the pivot");
                if r == 0 {
                    self.latch = Some(p);
                } else if let Some(d) = task.col_out {
                    fab.dst_put(d, p, cell);
                }
                if last {
                    let head = self.latch.take().expect("head latched at r=0");
                    self.deferred = rule.head_out.map(|d| (d, head));
                }
            }
            TaskKind::Pass => {
                let c = c.expect("pass consumes the column");
                if let Some(d) = task.col_out {
                    fab.dst_put(d, c, cell);
                }
            }
            TaskKind::LoadAcc => {
                self.latch = Some(c.expect("load consumes one word"));
            }
            TaskKind::Mac => {
                let a = c.expect("mac consumes the a operand");
                let b = p.expect("mac consumes the b operand");
                let acc = self.latch.take().unwrap_or_else(S::zero);
                self.latch = Some(S::fuse(&acc, &a, &b));
                if let Some(d) = task.col_out {
                    fab.dst_put(d, a, cell);
                }
                if let Some(d) = task.pivot_out {
                    fab.dst_put(d, b, cell);
                }
            }
            TaskKind::EmitAcc => {
                let acc = self.latch.take().unwrap_or_else(S::zero);
                if let Some(d) = task.col_out {
                    fab.dst_put(d, acc, cell);
                }
            }
        }

        let dur = u64::from(rule.dur);
        self.busy_cycles += dur;
        if dur > 1 {
            self.busy_until = fab.now + dur;
        }
        if r == 0 {
            self.cur_start = fab.now;
        }
        self.pos += 1;
        if self.pos == task.len {
            self.useful_ops += task.useful_ops;
            if let Some(spans) = &mut self.spans {
                spans.push(crate::trace::TaskSpan {
                    cell: self.id,
                    start: self.cur_start,
                    end: fab.now + dur,
                    label: task.label,
                });
            }
            self.pos = 0;
            self.cursor += 1;
        }
        Step::Worked
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use systolic_semiring::Bool;

    #[test]
    fn task_label_default() {
        let l = TaskLabel::default();
        assert_eq!((l.k, l.h), (0, 0));
    }

    #[test]
    fn cell_done_without_tasks() {
        let mut cell = Cell::<Bool>::new(0);
        let mut links: Vec<Link<bool>> = vec![];
        let mut banks: Vec<Bank<bool>> = vec![];
        let mut host = Host::<Bool>::new(0, 0);
        let mut outputs: Vec<Vec<bool>> = vec![];
        let mut fab = Fabric::<Bool> {
            links: &mut links,
            banks: &mut banks,
            host: &mut host,
            outputs: &mut outputs,
            now: 0,
            inject: None,
            bank_delta: 0,
        };
        assert_eq!(cell.step(&mut fab), Step::Done);
    }

    #[test]
    fn reset_rewinds_a_shared_program() {
        let mut cell = Cell::<Bool>::new(3);
        let tasks: Arc<[Task]> = vec![Task {
            kind: TaskKind::Pass,
            len: 1,
            col_in: Some(StreamSrc::Bank { bank: 0, slot: 0 }),
            pivot_in: None,
            col_out: Some(StreamDst::Sink),
            pivot_out: None,
            head_out: None,
            duration: 1,
            useful_ops: 0,
            label: TaskLabel::default(),
        }]
        .into();
        cell.set_program(Arc::clone(&tasks));
        assert_eq!(cell.pending(), 1);
        cell.busy_cycles = 5;
        cell.reset();
        assert_eq!(cell.pending(), 1, "program survives reset");
        assert_eq!(cell.busy_cycles, 0);
    }
}
