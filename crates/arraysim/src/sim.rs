//! The simulation driver.
//!
//! [`ArraySim::run`] is one cycle loop that polls every cell every cycle,
//! for clean and fault-armed runs alike. The paper's partitioned arrays
//! keep almost every cell busy almost every cycle, so there are few
//! stalled cells to skip, and a plain poll beats tracking which cells are
//! ready on every closure shape measured (DESIGN §9).
//!
//! The whole data plane — cell payloads, link words, bank slots, host
//! streams, output collectors — is generic over the semiring element
//! `S::Elem` and never branches on its value, so the element's *lane
//! width* is the semiring's choice: a scalar run is the 1-lane
//! instantiation, while `systolic_semiring::BoolLanes` runs 64 bit-sliced
//! Boolean instances through one simulation with identical cycle-level
//! behavior. The only value-dependent machinery is fault injection
//! ([`crate::inject`]), which is why lane-packed engines fall back to the
//! scalar path when a fault plan is armed.

use crate::cell::{Cell, Fabric, Step, Task};
use crate::host::Host;
use crate::inject::{
    corrupt_value_in_lane, FaultEvent, FaultInjector, FaultLog, FaultPlan, FaultReport,
};
use crate::stats::{PhaseStats, RunStats, BUSY_HISTOGRAM_BUCKETS};
use crate::stream::{Bank, Link};
use std::sync::Arc;
use systolic_semiring::Semiring;

/// Simulation failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// No cell made progress for longer than any in-flight latency while
    /// tasks remained — the schedule violates a dependence.
    Deadlock {
        /// Cycle at which the deadlock was declared.
        cycle: u64,
        /// Tasks still pending per cell.
        pending: Vec<usize>,
        /// One line per blocked cell naming its stalled task and the
        /// streams it is waiting on.
        blocked: Vec<String>,
    },
    /// The run exceeded the configured cycle budget.
    Timeout {
        /// The configured budget.
        max_cycles: u64,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Deadlock {
                cycle,
                pending,
                blocked,
            } => {
                write!(f, "deadlock at cycle {cycle}; pending tasks {pending:?}")?;
                for line in blocked {
                    write!(f, "\n  {line}")?;
                }
                Ok(())
            }
            SimError::Timeout { max_cycles } => write!(f, "exceeded {max_cycles} cycles"),
        }
    }
}

impl std::error::Error for SimError {}

/// A configured systolic array: cells, links, banks, host and collectors.
pub struct ArraySim<S: Semiring> {
    cells: Vec<Cell<S>>,
    links: Vec<Link<S::Elem>>,
    banks: Vec<Bank<S::Elem>>,
    host: Host<S>,
    outputs: Vec<Vec<S::Elem>>,
    /// Number of memory banks that count as array↔memory connections.
    memory_connections: usize,
    max_cycles: u64,
    /// Peak external-memory footprint observed during the run.
    peak_bank_resident: usize,
    /// Transient-fault injector (absent on clean runs).
    injector: Option<FaultInjector>,
}

impl<S: Semiring> ArraySim<S> {
    /// Creates an array with `cells` cells and a host chain of equal length.
    pub fn new(cells: usize) -> Self {
        Self {
            cells: (0..cells).map(Cell::new).collect(),
            links: Vec::new(),
            banks: Vec::new(),
            host: Host::new(cells, 0),
            outputs: Vec::new(),
            memory_connections: 0,
            max_cycles: u64::MAX,
            peak_bank_resident: 0,
            injector: None,
        }
    }

    /// Arms a transient-fault plan for the run. The plan's decision stream
    /// is seeded and consulted at schedule-fixed points, so the same plan
    /// over the same programs injects the identical fault sequence.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.injector = Some(FaultInjector::new(plan, self.cells.len()));
    }

    /// The log of faults applied so far (`None` without a fault plan).
    /// Valid after [`ArraySim::run`] returns — on *both* success and error,
    /// so failed runs can still be blamed on their injected faults.
    pub fn fault_log(&self) -> Option<&FaultLog> {
        self.injector.as_ref().map(FaultInjector::log)
    }

    /// Takes the applied-fault events out of the injector without cloning
    /// (empty without a fault plan). Call after collecting stats.
    pub fn take_fault_events(&mut self) -> Vec<FaultEvent> {
        self.injector
            .as_mut()
            .map_or_else(Vec::new, FaultInjector::take_events)
    }

    /// Sets the cycle budget (default: unlimited).
    pub fn set_max_cycles(&mut self, max: u64) {
        self.max_cycles = max;
    }

    /// Declares how many bank connections the structure exposes (reported in
    /// stats; the paper compares `m+1` vs `2√m`).
    pub fn set_memory_connections(&mut self, c: usize) {
        self.memory_connections = c;
    }

    /// Adds a neighbor link, returning its index.
    pub fn add_link(&mut self) -> usize {
        self.links.push(Link::new());
        self.links.len() - 1
    }

    /// Adds a link with a multi-cycle latency (a bypass route around faulty
    /// cells, §5), returning its index.
    pub fn add_link_with_delay(&mut self, delay: u64) -> usize {
        self.links.push(Link::with_delay(delay));
        self.links.len() - 1
    }

    /// Adds an external memory bank, returning its index.
    pub fn add_bank(&mut self) -> usize {
        self.banks.push(Bank::new());
        self.banks.len() - 1
    }

    /// Adds a bank with a pre-sized slot table (one slot per interned
    /// stream key, visited in key order by fault injection).
    pub fn add_bank_with_slots(&mut self, sort_keys: Vec<u64>) -> usize {
        self.banks.push(Bank::with_slots(sort_keys));
        self.banks.len() - 1
    }

    /// Adds `count` output collector streams, returning the first index.
    pub fn add_outputs(&mut self, count: usize) -> usize {
        let first = self.outputs.len();
        self.outputs.extend((0..count).map(|_| Vec::new()));
        first
    }

    /// Host feeder access (to enqueue input streams).
    pub fn host_mut(&mut self) -> &mut Host<S> {
        &mut self.host
    }

    /// Bank access (to preload streams).
    pub fn bank_mut(&mut self, i: usize) -> &mut Bank<S::Elem> {
        &mut self.banks[i]
    }

    /// Appends a task to cell `cell`'s program.
    pub fn push_task(&mut self, cell: usize, t: Task) {
        self.cells[cell].push_task(t);
    }

    /// Installs a compiled task program on cell `cell`, decoding each
    /// task's firing rules once.
    pub fn set_cell_program(&mut self, cell: usize, tasks: Arc<[Task]>) {
        self.cells[cell].set_program(tasks);
    }

    /// Clears all dynamic state — words in flight, stream contents, output
    /// collectors, counters, the armed fault plan — while keeping the array
    /// structure, cell programs and every allocation, so a compiled
    /// schedule re-runs without rebuilding anything.
    pub fn reset(&mut self) {
        for c in &mut self.cells {
            c.reset();
        }
        for l in &mut self.links {
            l.reset();
        }
        for b in &mut self.banks {
            b.reset();
        }
        self.host.reset();
        for o in &mut self.outputs {
            o.clear();
        }
        self.peak_bank_resident = 0;
        self.injector = None;
    }

    /// Enables task-span tracing (see [`crate::trace`]).
    pub fn enable_trace(&mut self) {
        for c in &mut self.cells {
            c.spans.get_or_insert_with(Vec::new);
        }
    }

    /// All recorded task spans (empty unless tracing was enabled).
    pub fn spans(&self) -> Vec<crate::trace::TaskSpan> {
        self.cells
            .iter()
            .filter_map(|c| c.spans.as_ref())
            .flatten()
            .copied()
            .collect()
    }

    /// Collected output streams (valid after [`ArraySim::run`]).
    pub fn outputs(&self) -> &[Vec<S::Elem>] {
        &self.outputs
    }

    /// Runs the simulation to completion.
    ///
    /// One loop serves clean and armed runs alike: every cycle the host
    /// injects at most one word, then every cell is polled in ascending
    /// index order. An armed fault plan draws its decisions in that poll
    /// order, so the same plan over the same programs replays the same
    /// faults. The loop's own bookkeeping is O(1) per cycle: it counts the
    /// cells with work left, accumulates bank residency from the fabric's
    /// per-cycle delta, and asks an armed injector once whether any cell
    /// is stuck. Banks count their own write bursts as they are written,
    /// so no per-cycle sweep visits them.
    ///
    /// # Errors
    /// [`SimError::Deadlock`] when dataflow can no longer progress,
    /// [`SimError::Timeout`] when the cycle budget is exceeded.
    pub fn run(&mut self) -> Result<RunStats, SimError> {
        let started = std::time::Instant::now();
        let mut now: u64 = 0;
        let mut quiet_cycles: u64 = 0;
        let mut first_fire: Option<u64> = None;
        let mut last_fire: Option<u64> = None;
        let max_link_delay = self.links.iter().map(Link::delay).max().unwrap_or(1);
        let max_task_dur = self
            .cells
            .iter()
            .map(Cell::max_task_duration)
            .max()
            .unwrap_or(1);
        let grace = self
            .host
            .max_latency()
            .max(max_link_delay)
            .max(max_task_dur)
            + 2;
        let mut remaining = self.cells.iter().filter(|c| c.pending() > 0).count();
        let mut bank_resident: isize =
            self.banks.iter().map(Bank::resident).sum::<usize>() as isize;

        while remaining > 0 {
            if now >= self.max_cycles {
                return Err(SimError::Timeout {
                    max_cycles: self.max_cycles,
                });
            }

            // Per-cycle fault rolls: possibly stick a cell, possibly flip a
            // word resident in a bank (before any cell reads this cycle).
            let mut stuck = false;
            if let Some(inj) = &mut self.injector {
                if let Some((bank, word)) = inj.begin_cycle(now, self.banks.len()) {
                    let lane = inj.target_lane();
                    let flipped = self.banks[bank].corrupt_resident(word, |e| {
                        *e = corrupt_value_in_lane::<S>(e, lane);
                    });
                    if flipped {
                        inj.log_bank_flip(now, bank);
                    }
                }
                // Cells cannot stick or unstick mid-cycle: one check here
                // covers the whole poll.
                stuck = inj.any_stuck(now);
            }

            let injected = self.host.tick(now);
            let mut cell_fired = false;
            {
                let mut fab = Fabric::<S> {
                    links: &mut self.links,
                    banks: &mut self.banks,
                    host: &mut self.host,
                    outputs: &mut self.outputs,
                    now,
                    // An injector that draws nothing more (a zero-rate
                    // plan, a spent fault budget) leaves the puts on the
                    // clean path, unless a stick still has to be honoured.
                    inject: self.injector.as_mut().filter(|i| stuck || i.draws()),
                    bank_delta: 0,
                };
                for cell in &mut self.cells {
                    // A stuck cell's sequencer makes no progress: it neither
                    // fires nor flushes, and the lost cycle counts as a stall.
                    if stuck
                        && fab
                            .inject
                            .as_deref()
                            .is_some_and(|i| i.is_stuck(cell.id, now))
                    {
                        if cell.pending() > 0 {
                            cell.stall_cycles += 1;
                        }
                        continue;
                    }
                    if cell.step(&mut fab) == Step::Worked {
                        cell_fired = true;
                        // Only a working step retires a cell's last task.
                        if cell.pending() == 0 {
                            remaining -= 1;
                        }
                    }
                }
                bank_resident += fab.bank_delta;
            }
            if cell_fired {
                first_fire.get_or_insert(now);
                last_fire = Some(now);
            }
            // A stuck cell is pending progress, not quiescence: keep the
            // deadlock grace period from firing while a stick longer than
            // `grace` plays out.
            if injected || cell_fired || stuck {
                quiet_cycles = 0;
            } else {
                quiet_cycles += 1;
                if quiet_cycles > grace {
                    return Err(SimError::Deadlock {
                        cycle: now,
                        pending: self.cells.iter().map(Cell::pending).collect(),
                        blocked: self
                            .cells
                            .iter()
                            .filter_map(Cell::describe_blocked)
                            .collect(),
                    });
                }
            }
            now += 1;
            self.peak_bank_resident = self.peak_bank_resident.max(bank_resident as usize);
        }

        let phases = match (first_fire, last_fire) {
            (Some(f), Some(l)) => PhaseStats {
                load_cycles: f,
                compute_cycles: l - f + 1,
                drain_cycles: now - l - 1,
            },
            _ => PhaseStats {
                load_cycles: now,
                compute_cycles: 0,
                drain_cycles: 0,
            },
        };
        Ok(self.collect_stats(now, phases, started.elapsed().as_nanos() as u64))
    }

    /// Alias of [`ArraySim::run`], the only cycle loop.
    ///
    /// # Errors
    /// As [`ArraySim::run`].
    pub fn run_dense(&mut self) -> Result<RunStats, SimError> {
        self.run()
    }

    fn collect_stats(&self, cycles: u64, phases: PhaseStats, wall_nanos: u64) -> RunStats {
        let busy: Vec<u64> = self.cells.iter().map(|c| c.busy_cycles).collect();
        let mut busy_histogram = [0u64; BUSY_HISTOGRAM_BUCKETS];
        for &b in &busy {
            let frac = if cycles == 0 {
                0.0
            } else {
                b as f64 / cycles as f64
            };
            let bucket =
                ((frac * BUSY_HISTOGRAM_BUCKETS as f64) as usize).min(BUSY_HISTOGRAM_BUCKETS - 1);
            busy_histogram[bucket] += 1;
        }
        RunStats {
            cycles,
            cells: self.cells.len(),
            busy,
            stalls: self.cells.iter().map(|c| c.stall_cycles).collect(),
            useful_ops: self.cells.iter().map(|c| c.useful_ops).sum(),
            host_words: self.host.injected,
            host_first: self.host.first_injection,
            host_last: self.host.last_injection,
            host_peak_resident: self.host.peak_resident,
            bank_writes: self.banks.iter().map(|b| b.writes).sum(),
            bank_reads: self.banks.iter().map(|b| b.reads).sum(),
            max_bank_writes_per_cycle: self
                .banks
                .iter()
                .map(|b| b.max_writes_per_cycle)
                .max()
                .unwrap_or(0),
            peak_bank_resident: self.peak_bank_resident,
            bank_peak_resident: self.banks.iter().map(Bank::peak_resident).collect(),
            link_words: self.links.iter().map(|l| l.words).sum(),
            output_words: self.outputs.iter().map(Vec::len).sum::<usize>() as u64,
            memory_connections: self.memory_connections,
            phases,
            busy_histogram,
            wall_nanos,
            spans: self.spans(),
            fault: FaultReport {
                injected: self.injector.as_ref().map_or(0, |i| i.log().len() as u64),
                ..FaultReport::default()
            },
            fault_events: self
                .injector
                .as_ref()
                .map_or_else(Vec::new, |i| i.log().events.clone()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::{TaskKind, TaskLabel};
    use crate::stream::{StreamDst, StreamSrc};
    use systolic_semiring::{Bool, MinPlus};

    fn task(kind: TaskKind, len: usize) -> Task {
        Task {
            kind,
            len,
            col_in: None,
            pivot_in: None,
            col_out: None,
            pivot_out: None,
            head_out: None,
            duration: 1,
            useful_ops: 0,
            label: TaskLabel::default(),
        }
    }

    #[test]
    fn delay_tail_rotates_a_bank_stream() {
        let mut sim = ArraySim::<MinPlus>::new(1);
        let b = sim.add_bank();
        let o = sim.add_outputs(1);
        for w in [10u64, 20, 30, 40] {
            sim.bank_mut(b).preload(1, w);
        }
        let mut t = task(TaskKind::DelayTail, 4);
        t.pivot_in = Some(StreamSrc::Bank { bank: b, slot: 1 });
        t.col_out = Some(StreamDst::Output { stream: o });
        sim.push_task(0, t);
        let stats = sim.run().unwrap();
        assert_eq!(sim.outputs()[0], vec![20, 30, 40, 10]);
        // 4 consume cycles plus the deferred head-emission cycle.
        assert_eq!(stats.busy[0], 5);
        assert_eq!(stats.output_words, 4);
    }

    #[test]
    fn pivot_head_feeds_fuse_over_a_link() {
        // Column streams for a 3-element fuse: pivot head reads col k from a
        // bank and streams it over a link into a fuse cell processing col j.
        let mut sim = ArraySim::<Bool>::new(2);
        let b = sim.add_bank();
        let l = sim.add_link();
        let o = sim.add_outputs(1);
        // pivot column (x[0][k], x[1][k], x[2][k]) = (1, 1, 0)
        for w in [true, true, false] {
            sim.bank_mut(b).preload(0, w);
        }
        // processed column (x[0][j], x[1][j], x[2][j]) = (1, 0, 0); head q=1
        for w in [true, false, false] {
            sim.bank_mut(b).preload(1, w);
        }
        let mut head = task(TaskKind::PivotHead, 3);
        head.col_in = Some(StreamSrc::Bank { bank: b, slot: 0 });
        head.pivot_out = Some(StreamDst::Link(l));
        sim.push_task(0, head);
        let mut fuse = task(TaskKind::Fuse, 3);
        fuse.col_in = Some(StreamSrc::Bank { bank: b, slot: 1 });
        fuse.pivot_in = Some(StreamSrc::Link(l));
        fuse.col_out = Some(StreamDst::Output { stream: o });
        fuse.useful_ops = 1;
        sim.push_task(1, fuse);
        let stats = sim.run().unwrap();
        // out[r-1] = col[r] OR (piv[r] AND q): r=1: 0 OR (1 AND 1) = 1;
        // r=2: 0 OR (0 AND 1) = 0; head re-emitted last = 1.
        assert_eq!(sim.outputs()[0], vec![true, false, true]);
        assert_eq!(stats.useful_ops, 1);
        assert!(stats.link_words >= 3);
        assert_eq!(stats.busy, vec![3, 4]);
        // The fuse cell waits one cycle for the first pivot word.
        assert_eq!(stats.stalls, vec![0, 1]);
        assert_eq!(stats.cycles, 5);
        assert_eq!(stats.peak_bank_resident, 5);
    }

    #[test]
    fn missing_input_deadlocks_with_diagnosis() {
        let mut sim = ArraySim::<MinPlus>::new(1);
        let b = sim.add_bank();
        let mut t = task(TaskKind::DelayTail, 2);
        t.pivot_in = Some(StreamSrc::Bank { bank: b, slot: 9 }); // never filled
        sim.push_task(0, t);
        match sim.run() {
            Err(SimError::Deadlock { pending, .. }) => assert_eq!(pending, vec![1]),
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn timeout_is_reported() {
        let mut sim = ArraySim::<MinPlus>::new(1);
        let b = sim.add_bank();
        let mut t = task(TaskKind::DelayTail, 2);
        t.pivot_in = Some(StreamSrc::Bank { bank: b, slot: 9 });
        sim.push_task(0, t);
        sim.set_max_cycles(1);
        assert_eq!(sim.run(), Err(SimError::Timeout { max_cycles: 1 }));
    }

    #[test]
    fn host_stream_reaches_cell_through_chain() {
        let mut sim = ArraySim::<MinPlus>::new(2);
        let o = sim.add_outputs(1);
        sim.host_mut().enqueue_stream(1, 3, [5u64, 6, 7]);
        let mut t = task(TaskKind::Pass, 3);
        t.col_in = Some(StreamSrc::Host { slot: 3 });
        t.col_out = Some(StreamDst::Output { stream: o });
        sim.push_task(1, t);
        let stats = sim.run().unwrap();
        assert_eq!(sim.outputs()[0], vec![5, 6, 7]);
        assert_eq!(stats.host_words, 3);
        assert!(stats.io_bandwidth() <= 1.0);
    }

    #[test]
    fn load_mac_emit_computes_dot_product_plus_seed() {
        // acc ← 100 ⊕ Σ aᵢ ⊗ bᵢ over the counting semiring: 100 + 1·4 +
        // 2·5 + 3·6 = 132.
        use systolic_semiring::Counting;
        let mut sim = ArraySim::<Counting>::new(1);
        let b = sim.add_bank();
        let o = sim.add_outputs(1);
        sim.bank_mut(b).preload(0, 100); // seed
        for a in [1u64, 2, 3] {
            sim.bank_mut(b).preload(1, a);
        }
        for w in [4u64, 5, 6] {
            sim.bank_mut(b).preload(2, w);
        }
        let mut t = task(TaskKind::LoadAcc, 1);
        t.col_in = Some(StreamSrc::Bank { bank: b, slot: 0 });
        sim.push_task(0, t);
        let mut t = task(TaskKind::Mac, 3);
        t.col_in = Some(StreamSrc::Bank { bank: b, slot: 1 });
        t.pivot_in = Some(StreamSrc::Bank { bank: b, slot: 2 });
        sim.push_task(0, t);
        let mut t = task(TaskKind::EmitAcc, 1);
        t.col_out = Some(StreamDst::Output { stream: o });
        sim.push_task(0, t);
        sim.run().unwrap();
        assert_eq!(sim.outputs()[0], vec![132]);
    }

    #[test]
    fn mac_without_seed_starts_at_zero_and_forwards_operands() {
        use systolic_semiring::Counting;
        let mut sim = ArraySim::<Counting>::new(1);
        let b = sim.add_bank();
        let o = sim.add_outputs(3);
        for a in [2u64, 3] {
            sim.bank_mut(b).preload(1, a);
        }
        for w in [10u64, 20] {
            sim.bank_mut(b).preload(2, w);
        }
        let mut t = task(TaskKind::Mac, 2);
        t.col_in = Some(StreamSrc::Bank { bank: b, slot: 1 });
        t.pivot_in = Some(StreamSrc::Bank { bank: b, slot: 2 });
        t.col_out = Some(StreamDst::Output { stream: o });
        t.pivot_out = Some(StreamDst::Output { stream: o + 1 });
        sim.push_task(0, t);
        let mut t = task(TaskKind::EmitAcc, 1);
        t.col_out = Some(StreamDst::Output { stream: o + 2 });
        sim.push_task(0, t);
        sim.run().unwrap();
        assert_eq!(sim.outputs()[0], vec![2, 3], "a operands forwarded");
        assert_eq!(sim.outputs()[1], vec![10, 20], "b operands forwarded");
        assert_eq!(sim.outputs()[2], vec![2 * 10 + 3 * 20]);
    }

    #[test]
    fn emit_acc_without_mac_emits_zero() {
        let mut sim = ArraySim::<MinPlus>::new(1);
        let o = sim.add_outputs(1);
        let mut t = task(TaskKind::EmitAcc, 1);
        t.col_out = Some(StreamDst::Output { stream: o });
        sim.push_task(0, t);
        sim.run().unwrap();
        assert_eq!(sim.outputs()[0], vec![MinPlus::zero()]);
    }

    #[test]
    fn delayed_link_adds_bypass_latency() {
        let mut sim = ArraySim::<MinPlus>::new(2);
        let l = sim.add_link_with_delay(3);
        let b = sim.add_bank();
        let o = sim.add_outputs(1);
        for w in [1u64, 2, 3, 4] {
            sim.bank_mut(b).preload(0, w);
        }
        let mut t = task(TaskKind::Pass, 4);
        t.col_in = Some(StreamSrc::Bank { bank: b, slot: 0 });
        t.col_out = Some(StreamDst::Link(l));
        sim.push_task(0, t);
        let mut t = task(TaskKind::Pass, 4);
        t.col_in = Some(StreamSrc::Link(l));
        t.col_out = Some(StreamDst::Output { stream: o });
        sim.push_task(1, t);
        let stats = sim.run().unwrap();
        assert_eq!(sim.outputs()[0], vec![1, 2, 3, 4]);
        // First word crosses 1 cycle of bank latency plus 3 cycles of link
        // transit; the stream then drains one word per cycle (4 words in 7
        // cycles), strictly slower than the 1-cycle-link case (6).
        assert_eq!(stats.cycles, 7);
    }

    #[test]
    fn multi_cycle_duration_throttles() {
        let mut sim = ArraySim::<MinPlus>::new(1);
        let b = sim.add_bank();
        let o = sim.add_outputs(1);
        for w in [1u64, 2, 3, 4] {
            sim.bank_mut(b).preload(0, w);
        }
        let mut t = task(TaskKind::Pass, 4);
        t.duration = 3;
        t.col_in = Some(StreamSrc::Bank { bank: b, slot: 0 });
        t.col_out = Some(StreamDst::Output { stream: o });
        sim.push_task(0, t);
        let stats = sim.run().unwrap();
        assert_eq!(sim.outputs()[0], vec![1, 2, 3, 4]);
        // Each of the 4 elements holds the ALU for 3 cycles.
        assert_eq!(stats.busy[0], 12);
        // Elements fire 3 cycles apart, so the makespan stretches past the
        // single-cycle case (which finishes in ~5 cycles); a busy cell is
        // not stalled.
        assert_eq!(stats.cycles, 10);
        assert_eq!(stats.stalls, vec![0]);
    }

    #[test]
    fn div_head_and_elim_fuse_run_an_elimination_step() {
        use systolic_semiring::Real;
        // One LU step on [[2, 5], [6, 7]]: l10 = 6/2 = 3, u11 = 7 − 3·5.
        let mut sim = ArraySim::<Real>::new(2);
        let b = sim.add_bank();
        let l = sim.add_link();
        let o = sim.add_outputs(2);
        for w in [2.0, 6.0] {
            sim.bank_mut(b).preload(0, w);
        }
        for w in [5.0, 7.0] {
            sim.bank_mut(b).preload(1, w);
        }
        let mut head = task(TaskKind::DivHead, 2);
        head.col_in = Some(StreamSrc::Bank { bank: b, slot: 0 });
        head.pivot_out = Some(StreamDst::Link(l));
        sim.push_task(0, head);
        let mut fuse = task(TaskKind::ElimFuse, 2);
        fuse.col_in = Some(StreamSrc::Bank { bank: b, slot: 1 });
        fuse.pivot_in = Some(StreamSrc::Link(l));
        fuse.col_out = Some(StreamDst::Output { stream: o });
        fuse.head_out = Some(StreamDst::Output { stream: o + 1 });
        sim.push_task(1, fuse);
        sim.run().unwrap();
        assert_eq!(sim.outputs()[0], vec![7.0 - 3.0 * 5.0]);
        assert_eq!(sim.outputs()[1], vec![5.0], "finished head on head_out");
    }

    #[test]
    fn reset_allows_an_identical_rerun() {
        let mut sim = ArraySim::<MinPlus>::new(1);
        let b = sim.add_bank();
        let o = sim.add_outputs(1);
        let load = |sim: &mut ArraySim<MinPlus>| {
            for w in [10u64, 20, 30] {
                sim.bank_mut(b).preload(1, w);
            }
        };
        load(&mut sim);
        let mut t = task(TaskKind::DelayTail, 3);
        t.pivot_in = Some(StreamSrc::Bank { bank: b, slot: 1 });
        t.col_out = Some(StreamDst::Output { stream: o });
        let tasks: Arc<[Task]> = vec![t].into();
        sim.set_cell_program(0, tasks);
        let s1 = sim.run().unwrap();
        let out1 = sim.outputs()[0].clone();
        sim.reset();
        load(&mut sim);
        let s2 = sim.run().unwrap();
        assert_eq!(sim.outputs()[0], out1);
        assert_eq!(s1, s2);
    }
}
