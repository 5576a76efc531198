//! Measured counters of a simulation run and the paper's derived measures.

/// Number of buckets in the per-cell busy-fraction histogram.
pub const BUSY_HISTOGRAM_BUCKETS: usize = 10;

/// Cycle breakdown of a run into load / compute / drain phases.
///
/// The boundaries are the first and last cycle in which any cell fired:
/// before that the array is filling from the host and banks, after it the
/// collectors are draining in-flight words.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseStats {
    /// Cycles before the first cell firing (array fill).
    pub load_cycles: u64,
    /// Cycles from the first through the last cell firing, inclusive.
    pub compute_cycles: u64,
    /// Cycles after the last cell firing (pipeline drain).
    pub drain_cycles: u64,
}

impl PhaseStats {
    /// Total cycles across the three phases.
    pub fn total(&self) -> u64 {
        self.load_cycles + self.compute_cycles + self.drain_cycles
    }

    fn merge(&mut self, other: &PhaseStats) {
        self.load_cycles += other.load_cycles;
        self.compute_cycles += other.compute_cycles;
        self.drain_cycles += other.drain_cycles;
    }
}

/// Counters collected by [`crate::ArraySim::run`].
///
/// Equality ignores [`RunStats::wall_nanos`]: two runs of the same
/// simulation are bit-identical in every *measured* counter, while host
/// wall time is inherently noisy.
#[derive(Clone, Debug, Default)]
pub struct RunStats {
    /// Total cycles simulated.
    pub cycles: u64,
    /// Number of cells.
    pub cells: usize,
    /// Per-cell cycles in which the cell consumed/produced words.
    pub busy: Vec<u64>,
    /// Per-cell cycles in which the cell had a task but could not fire.
    pub stalls: Vec<u64>,
    /// Useful primitive operations executed (fuse updates, excluding
    /// pass-throughs and delays) — the `N` of the utilization formula.
    pub useful_ops: u64,
    /// Words injected by the host.
    pub host_words: u64,
    /// Cycle of the first host injection.
    pub host_first: Option<u64>,
    /// Cycle of the last host injection.
    pub host_last: Option<u64>,
    /// Peak words resident in the host R-block memories.
    pub host_peak_resident: usize,
    /// Total words written to external banks.
    pub bank_writes: u64,
    /// Total words read from external banks.
    pub bank_reads: u64,
    /// Largest single-cycle write burst into any one bank.
    pub max_bank_writes_per_cycle: u64,
    /// Peak words resident across all banks (external-memory footprint).
    pub peak_bank_resident: usize,
    /// Per-bank high-water marks: the largest number of words each bank
    /// held at once, indexed by bank. This is the *local-storage* measure
    /// of a mapping — for the coalescing (LSGP) engine, banks `0..m` are
    /// the cells' private column stores, so `bank_peak_resident[c]` is
    /// cell `c`'s measured `Θ(n²/m)` words of local memory.
    pub bank_peak_resident: Vec<usize>,
    /// Words transported over neighbor links.
    pub link_words: u64,
    /// Words delivered to output collectors.
    pub output_words: u64,
    /// Number of memory banks attached to the array (the paper's
    /// "connections to external memories": `m+1` linear, `2√m` grid).
    pub memory_connections: usize,
    /// Load / compute / drain cycle breakdown.
    pub phases: PhaseStats,
    /// Histogram of per-cell busy fractions: bucket `b` counts cells with
    /// `busy/cycles` in `[b/10, (b+1)/10)` (the last bucket is closed).
    pub busy_histogram: [u64; BUSY_HISTOGRAM_BUCKETS],
    /// Host wall-clock time of the run in nanoseconds. Excluded from
    /// equality; merged stats carry the sum of per-run times unless the
    /// caller overwrites it with an end-to-end measurement.
    pub wall_nanos: u64,
    /// Task spans (populated only when tracing was enabled on the array).
    pub spans: Vec<crate::trace::TaskSpan>,
    /// Aggregated fault accounting (all-zero unless a fault plan was set
    /// or a recovery wrapper filled it in).
    pub fault: crate::inject::FaultReport,
    /// Every fault the injector applied during this run, in cycle order
    /// (empty without a fault plan). Recovery layers use the sites for
    /// blame attribution; merged stats concatenate in merge order.
    pub fault_events: Vec<crate::inject::FaultEvent>,
}

impl PartialEq for RunStats {
    fn eq(&self, other: &Self) -> bool {
        // Everything except wall_nanos.
        self.cycles == other.cycles
            && self.cells == other.cells
            && self.busy == other.busy
            && self.stalls == other.stalls
            && self.useful_ops == other.useful_ops
            && self.host_words == other.host_words
            && self.host_first == other.host_first
            && self.host_last == other.host_last
            && self.host_peak_resident == other.host_peak_resident
            && self.bank_writes == other.bank_writes
            && self.bank_reads == other.bank_reads
            && self.max_bank_writes_per_cycle == other.max_bank_writes_per_cycle
            && self.peak_bank_resident == other.peak_bank_resident
            && self.bank_peak_resident == other.bank_peak_resident
            && self.link_words == other.link_words
            && self.output_words == other.output_words
            && self.memory_connections == other.memory_connections
            && self.phases == other.phases
            && self.busy_histogram == other.busy_histogram
            && self.spans == other.spans
            && self.fault == other.fault
            && self.fault_events == other.fault_events
    }
}

impl RunStats {
    /// Cell-occupancy utilization: fraction of cell-cycles spent streaming
    /// (includes pass-through cycles — an upper bound on useful utilization).
    pub fn occupancy(&self) -> f64 {
        if self.cycles == 0 || self.cells == 0 {
            return 0.0;
        }
        let busy: u64 = self.busy.iter().sum();
        busy as f64 / (self.cycles as f64 * self.cells as f64)
    }

    /// The paper's utilization `U = N / (m / T)` with `N` the useful
    /// operation count and `m/T` the total cell-cycles (§4.1).
    pub fn useful_utilization(&self) -> f64 {
        if self.cycles == 0 || self.cells == 0 {
            return 0.0;
        }
        self.useful_ops as f64 / (self.cycles as f64 * self.cells as f64)
    }

    /// Measured host I/O bandwidth in words/cycle — the paper's `D_I/O`.
    pub fn io_bandwidth(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.host_words as f64 / self.cycles as f64
    }

    /// Measured throughput for `problems` chained instances: problems per
    /// cycle (`T` of §4.1).
    pub fn throughput(&self, problems: u64) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        problems as f64 / self.cycles as f64
    }

    /// Total stall cycles across cells.
    pub fn total_stalls(&self) -> u64 {
        self.stalls.iter().sum()
    }

    /// Folds another run's counters into this one.
    ///
    /// The semantics are "aggregate of independent runs": additive
    /// counters (cycles, words, ops, phases, histograms, wall time) sum,
    /// per-cell vectors add element-wise (shorter side zero-extended),
    /// peaks take the maximum, and `host_first`/`host_last` keep the
    /// min/max of the per-run cycle coordinates. The operation is
    /// deterministic given a merge order; fold in instance order to make
    /// batch stats independent of worker count.
    pub fn merge(&mut self, other: &RunStats) {
        self.cycles += other.cycles;
        self.cells = self.cells.max(other.cells);
        if self.busy.len() < other.busy.len() {
            self.busy.resize(other.busy.len(), 0);
        }
        for (d, s) in self.busy.iter_mut().zip(other.busy.iter()) {
            *d += *s;
        }
        if self.stalls.len() < other.stalls.len() {
            self.stalls.resize(other.stalls.len(), 0);
        }
        for (d, s) in self.stalls.iter_mut().zip(other.stalls.iter()) {
            *d += *s;
        }
        self.useful_ops += other.useful_ops;
        self.host_words += other.host_words;
        self.host_first = match (self.host_first, other.host_first) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.host_last = match (self.host_last, other.host_last) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
        self.host_peak_resident = self.host_peak_resident.max(other.host_peak_resident);
        self.bank_writes += other.bank_writes;
        self.bank_reads += other.bank_reads;
        self.max_bank_writes_per_cycle = self
            .max_bank_writes_per_cycle
            .max(other.max_bank_writes_per_cycle);
        self.peak_bank_resident = self.peak_bank_resident.max(other.peak_bank_resident);
        if self.bank_peak_resident.len() < other.bank_peak_resident.len() {
            self.bank_peak_resident
                .resize(other.bank_peak_resident.len(), 0);
        }
        for (d, s) in self
            .bank_peak_resident
            .iter_mut()
            .zip(other.bank_peak_resident.iter())
        {
            *d = (*d).max(*s);
        }
        self.link_words += other.link_words;
        self.output_words += other.output_words;
        self.memory_connections = self.memory_connections.max(other.memory_connections);
        self.phases.merge(&other.phases);
        for (d, s) in self
            .busy_histogram
            .iter_mut()
            .zip(other.busy_histogram.iter())
        {
            *d += *s;
        }
        self.wall_nanos += other.wall_nanos;
        self.spans.extend(other.spans.iter().copied());
        self.fault.merge(&other.fault);
        self.fault_events.extend(other.fault_events.iter().copied());
    }

    /// Expands a clean single run into the stats of `lanes` identical
    /// independent runs: exactly [`RunStats::merge`] folded over `lanes`
    /// copies of `self`, minus the wall-time sum (each lane shared the one
    /// simulated run, so wall time is kept as measured).
    ///
    /// This is how a lane-packed run reports per-instance accounting: every
    /// simulated event moved one word per lane, so additive counters scale
    /// by the lane count while geometry, peaks and phase *boundaries*
    /// (extrema under merge) are those of the single shared run.
    ///
    /// Fault accounting does **not** scale: an applied fault is one event
    /// of the one shared run, and under a lane-targeted plan it touched
    /// exactly one resident instance — multiplying the counters would
    /// invent faults that never happened. The fault log and report are
    /// carried through unchanged.
    pub fn scaled(&self, lanes: u64) -> RunStats {
        let mut out = self.clone();
        out.cycles *= lanes;
        for b in &mut out.busy {
            *b *= lanes;
        }
        for s in &mut out.stalls {
            *s *= lanes;
        }
        out.useful_ops *= lanes;
        out.host_words *= lanes;
        out.bank_writes *= lanes;
        out.bank_reads *= lanes;
        out.link_words *= lanes;
        out.output_words *= lanes;
        out.phases.load_cycles *= lanes;
        out.phases.compute_cycles *= lanes;
        out.phases.drain_cycles *= lanes;
        for h in &mut out.busy_histogram {
            *h *= lanes;
        }
        out.spans = self
            .spans
            .iter()
            .cycle()
            .take(self.spans.len() * lanes as usize)
            .copied()
            .collect();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_measures() {
        let s = RunStats {
            cycles: 100,
            cells: 4,
            busy: vec![100, 100, 50, 50],
            stalls: vec![0, 0, 10, 10],
            useful_ops: 200,
            host_words: 25,
            ..Default::default()
        };
        assert!((s.occupancy() - 0.75).abs() < 1e-12);
        assert!((s.useful_utilization() - 0.5).abs() < 1e-12);
        assert!((s.io_bandwidth() - 0.25).abs() < 1e-12);
        assert!((s.throughput(2) - 0.02).abs() < 1e-12);
        assert_eq!(s.total_stalls(), 20);
    }

    #[test]
    fn zero_cycles_is_safe() {
        let s = RunStats::default();
        assert_eq!(s.occupancy(), 0.0);
        assert_eq!(s.io_bandwidth(), 0.0);
        assert_eq!(s.throughput(1), 0.0);
        assert_eq!(s.phases.total(), 0);
    }

    #[test]
    fn equality_ignores_wall_time() {
        let mut a = RunStats {
            cycles: 10,
            wall_nanos: 100,
            ..Default::default()
        };
        let b = RunStats {
            cycles: 10,
            wall_nanos: 999_999,
            ..Default::default()
        };
        assert_eq!(a, b);
        a.cycles = 11;
        assert_ne!(a, b);
    }

    #[test]
    fn merge_is_order_deterministic_and_additive() {
        let a = RunStats {
            cycles: 10,
            cells: 2,
            busy: vec![5, 3],
            stalls: vec![1, 0],
            useful_ops: 7,
            host_words: 4,
            host_first: Some(2),
            host_last: Some(9),
            peak_bank_resident: 6,
            bank_peak_resident: vec![4, 2],
            phases: PhaseStats {
                load_cycles: 2,
                compute_cycles: 7,
                drain_cycles: 1,
            },
            wall_nanos: 50,
            ..Default::default()
        };
        let b = RunStats {
            cycles: 20,
            cells: 2,
            busy: vec![10, 10],
            stalls: vec![0, 2],
            useful_ops: 11,
            host_words: 6,
            host_first: Some(1),
            host_last: Some(5),
            peak_bank_resident: 4,
            bank_peak_resident: vec![1, 3, 5],
            phases: PhaseStats {
                load_cycles: 3,
                compute_cycles: 15,
                drain_cycles: 2,
            },
            wall_nanos: 70,
            ..Default::default()
        };
        let mut m = a.clone();
        m.merge(&b);
        assert_eq!(m.cycles, 30);
        assert_eq!(m.busy, vec![15, 13]);
        assert_eq!(m.stalls, vec![1, 2]);
        assert_eq!(m.useful_ops, 18);
        assert_eq!(m.host_first, Some(1));
        assert_eq!(m.host_last, Some(9));
        assert_eq!(m.peak_bank_resident, 6);
        assert_eq!(
            m.bank_peak_resident,
            vec![4, 3, 5],
            "per-bank peaks take the element-wise max, zero-extended"
        );
        assert_eq!(m.phases.total(), 30);
        assert_eq!(m.wall_nanos, 120);
    }

    #[test]
    fn scaled_equals_lanewise_merge() {
        let s = RunStats {
            cycles: 38,
            cells: 4,
            busy: vec![20, 18, 15, 9],
            stalls: vec![1, 0, 3, 2],
            useful_ops: 72,
            host_words: 24,
            host_first: Some(0),
            host_last: Some(30),
            host_peak_resident: 9,
            bank_writes: 40,
            bank_reads: 40,
            max_bank_writes_per_cycle: 3,
            peak_bank_resident: 12,
            bank_peak_resident: vec![7, 5],
            link_words: 55,
            output_words: 16,
            memory_connections: 5,
            phases: PhaseStats {
                load_cycles: 2,
                compute_cycles: 33,
                drain_cycles: 3,
            },
            busy_histogram: [0, 1, 0, 0, 2, 0, 0, 1, 0, 0],
            wall_nanos: 1234,
            ..Default::default()
        };
        for lanes in [1u64, 2, 63, 64] {
            let mut merged = s.clone();
            for _ in 1..lanes {
                merged.merge(&s);
            }
            // Equality already ignores wall time; scaled keeps the single
            // shared run's measurement instead of merge's sum.
            assert_eq!(s.scaled(lanes), merged, "lanes={lanes}");
            assert_eq!(s.scaled(lanes).wall_nanos, s.wall_nanos);
        }
    }

    #[test]
    fn phase_totals() {
        let p = PhaseStats {
            load_cycles: 5,
            compute_cycles: 10,
            drain_cycles: 5,
        };
        assert_eq!(p.total(), 20);
    }
}
