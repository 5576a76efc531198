//! Runtime transient-fault injection (paper §5 made executable).
//!
//! The static bypass story (`systolic-partition::fault`) models cells that
//! are *known* dead before a run starts. This module models the faults that
//! actually happen at runtime: a seeded, fully deterministic [`FaultPlan`]
//! is consulted by the simulator every cycle and may
//!
//! * corrupt an element the moment a cell emits it ([`FaultKind::CorruptEmit`]),
//! * drop or duplicate a stream word on a neighbor link
//!   ([`FaultKind::DropWord`] / [`FaultKind::DuplicateWord`]),
//! * flip a word resident in an external memory [`crate::Bank`]
//!   ([`FaultKind::BankFlip`]),
//! * stick a cell for a bounded number of cycles ([`FaultKind::StickCell`]).
//!
//! Every fault that is *applied* (not merely rolled) is recorded in a
//! [`FaultLog`], which the run's [`crate::RunStats`] carries out verbatim so
//! detection and recovery layers can attribute blame. Determinism: the plan
//! owns a xoshiro256** stream seeded from [`FaultPlan::seed`], the simulator
//! is single-threaded, and every decision draw happens at a schedule-fixed
//! point — the same seed over the same task programs reproduces the same
//! fault sequence bit for bit.

use systolic_semiring::Semiring;
use systolic_util::Rng;

/// What a single applied fault did, and where.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// The word cell `cell` emitted this cycle was replaced by a corrupted
    /// value (zero ↔ one flip in the run's semiring).
    CorruptEmit {
        /// Emitting cell.
        cell: usize,
    },
    /// A word written to link `link` was lost in transit.
    DropWord {
        /// Link index.
        link: usize,
    },
    /// A word written to link `link` was delivered twice.
    DuplicateWord {
        /// Link index.
        link: usize,
    },
    /// A word resident in bank `bank` was flipped in place.
    BankFlip {
        /// Bank index.
        bank: usize,
    },
    /// Cell `cell` made no progress for `cycles` cycles (transient stuck-at
    /// on the cell's sequencer; pure delay, never corrupts data).
    StickCell {
        /// Stuck cell.
        cell: usize,
        /// Duration of the stick.
        cycles: u64,
    },
}

impl FaultKind {
    /// True for faults that change a data value (emit corruption, bank
    /// flip). Drops/duplicates corrupt stream *structure* (usually a
    /// deadlock or a malformed output), sticks only cost time.
    pub fn is_value_corrupting(&self) -> bool {
        matches!(
            self,
            FaultKind::CorruptEmit { .. } | FaultKind::BankFlip { .. }
        )
    }
}

/// One applied fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultEvent {
    /// Cycle at which the fault was applied.
    pub cycle: u64,
    /// What happened.
    pub kind: FaultKind,
}

/// The record of every fault applied during a run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultLog {
    /// Applied faults in cycle order.
    pub events: Vec<FaultEvent>,
}

impl FaultLog {
    /// Number of applied faults.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no fault was applied.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// Aggregated fault accounting carried by [`crate::RunStats`] and merged
/// across batch instances / parallel workers.
///
/// The simulator fills `injected`; the detection and recovery layers fill
/// the rest (the simulator cannot know which of its own faults were caught
/// downstream). All-zero for fault-free runs, so equality of golden stats
/// is unaffected.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultReport {
    /// Faults applied by the injector.
    pub injected: u64,
    /// Faults attributed to attempts that were rejected (checksum failure
    /// or simulation error) — i.e. caught before a result escaped.
    pub detected: u64,
    /// Value-corrupting faults present in an *accepted* result (silent data
    /// corruption). Filled by campaigns that compare against a reference.
    pub escaped: u64,
    /// Instance retries performed by a recovery wrapper.
    pub retries: u64,
    /// Permanent-fault escalations onto a bypass configuration.
    pub bypasses: u64,
}

impl FaultReport {
    /// Folds another report into this one (all counters are additive).
    pub fn merge(&mut self, other: &FaultReport) {
        self.injected += other.injected;
        self.detected += other.detected;
        self.escaped += other.escaped;
        self.retries += other.retries;
        self.bypasses += other.bypasses;
    }

    /// True when every counter is zero (fault-free run).
    pub fn is_empty(&self) -> bool {
        *self == FaultReport::default()
    }
}

/// A seeded description of the transient faults to inject into a run.
///
/// All rates are per-opportunity probabilities: `emit_corrupt`, `link_drop`
/// and `link_dup` are rolled once per emitted/linked word, `bank_flip` and
/// `stick` once per cycle. `max_faults` caps the total number of applied
/// faults; a zero-rate plan (the [`FaultPlan::none`] constructor) injects
/// nothing and leaves the simulation bit-identical to an uninstrumented run.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    /// Base seed of the plan's deterministic decision stream.
    pub seed: u64,
    /// Probability that an emitted word is corrupted.
    pub emit_corrupt: f64,
    /// Probability that a word written to a link is dropped.
    pub link_drop: f64,
    /// Probability that a word written to a link is duplicated.
    pub link_dup: f64,
    /// Per-cycle probability of flipping one resident bank word.
    pub bank_flip: f64,
    /// Per-cycle probability of sticking one cell.
    pub stick: f64,
    /// Duration of a stick, in cycles.
    pub stick_cycles: u64,
    /// Hard cap on applied faults (`u64::MAX` = unlimited).
    pub max_faults: u64,
    /// Optional hot cell: `(cell, weight)` multiplies `emit_corrupt` for
    /// that cell's emissions, modelling a marginal cell that keeps failing
    /// until the recovery layer reclassifies it as permanently faulty.
    pub hot_cell: Option<(usize, f64)>,
    /// Optional per-lane fault mask: when set, every value corruption
    /// (emit corrupt, bank flip) touches only lane
    /// `target_lane % LANE_COUNT` of the packed element instead of the
    /// whole word, via [`Semiring::corrupt_lane`]. `None` (the default and
    /// every constructor's choice) keeps the legacy whole-element swap —
    /// scalar semirings are unaffected either way, since their one lane
    /// *is* the whole element. This is what lets a lane-packed engine keep
    /// an armed plan on the packed path: the fault blast radius is one
    /// resident instance, not all of them.
    pub target_lane: Option<usize>,
}

impl FaultPlan {
    /// A plan that injects nothing (useful as a control: the run must be
    /// bit-identical to one without any plan).
    pub fn none(seed: u64) -> Self {
        Self {
            seed,
            emit_corrupt: 0.0,
            link_drop: 0.0,
            link_dup: 0.0,
            bank_flip: 0.0,
            stick: 0.0,
            stick_cycles: 0,
            max_faults: u64::MAX,
            hot_cell: None,
            target_lane: None,
        }
    }

    /// A balanced transient-upset plan: value corruption on emits and bank
    /// words at `rate`, structural link faults at a tenth of it, and short
    /// (3-cycle) sticks at `rate`.
    pub fn transients(seed: u64, rate: f64) -> Self {
        Self {
            seed,
            emit_corrupt: rate,
            link_drop: rate / 10.0,
            link_dup: rate / 10.0,
            bank_flip: rate,
            stick: rate,
            stick_cycles: 3,
            max_faults: u64::MAX,
            hot_cell: None,
            target_lane: None,
        }
    }

    /// Marks `cell` as hot: its emissions fail `weight` times more often.
    pub fn with_hot_cell(mut self, cell: usize, weight: f64) -> Self {
        self.hot_cell = Some((cell, weight));
        self
    }

    /// Caps the number of applied faults.
    pub fn with_max_faults(mut self, max: u64) -> Self {
        self.max_faults = max;
        self
    }

    /// Confines value corruptions to one lane of a packed element (see
    /// [`FaultPlan::target_lane`]). The decision stream is unchanged —
    /// the same seed fires the same faults at the same cycles — only the
    /// blast radius of each value fault shrinks to a single lane.
    pub fn with_target_lane(mut self, lane: usize) -> Self {
        self.target_lane = Some(lane);
        self
    }

    /// The same plan reseeded for attempt `nonce` — retries of a failed
    /// instance must see a *different* transient-fault sequence, otherwise
    /// a deterministic replay would re-inject the identical fault forever.
    pub fn reseeded(&self, nonce: u64) -> Self {
        let mut p = self.clone();
        // splitmix64-style avalanche of (seed, nonce); any bijective mix
        // works, it only has to decorrelate consecutive nonces.
        let mut z = self
            .seed
            .wrapping_add(nonce.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        p.seed = z ^ (z >> 31);
        p
    }
}

/// The canonical value corruption: swap the additive identity with the
/// multiplicative one. Guaranteed to change the element in every
/// non-trivial semiring (where `0̸ ≠ 1`), and maps interior values to `0̸`,
/// which exercises both "lost edge" and "phantom edge" corruptions.
///
/// This is the one place the simulator manufactures a *value*, which makes
/// fault injection the one lane-width-dependent mechanism: over a packed
/// semiring like `BoolLanes` a whole-element corruption hits all resident
/// instances at once. Plans without a [`FaultPlan::target_lane`] mask keep
/// that legacy behavior (and lane-packed engines route them to the scalar
/// path); masked plans go through [`corrupt_value_in_lane`] instead, which
/// confines the fault to one lane so packed engines can stay packed
/// (DESIGN §10/§16).
pub fn corrupt_value<S: Semiring>(e: &S::Elem) -> S::Elem {
    if S::is_zero(e) {
        S::one()
    } else {
        S::zero()
    }
}

/// Lane-masked value corruption: the whole-element swap of
/// [`corrupt_value`] when `target` is `None`, or the single-lane swap
/// [`Semiring::corrupt_lane`] on lane `target % LANE_COUNT` when a plan
/// carries a [`FaultPlan::target_lane`] mask.
///
/// Over scalar semirings the two are the same map, so arming a target
/// lane never changes a scalar run; over packed semirings the mask is
/// what confines a fault to one resident instance.
pub fn corrupt_value_in_lane<S: Semiring>(e: &S::Elem, target: Option<usize>) -> S::Elem {
    match target {
        None => corrupt_value::<S>(e),
        Some(l) => S::corrupt_lane(e, l % S::LANE_COUNT),
    }
}

/// What the injector decided about one link-bound word.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LinkFate {
    /// Deliver normally.
    Deliver,
    /// Lose the word.
    Drop,
    /// Deliver it twice.
    Duplicate,
}

/// Runtime state of an active fault plan: the decision RNG, the applied
/// log and the per-cell stick deadlines.
#[derive(Clone, Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    rng: Rng,
    log: FaultLog,
    stuck_until: Vec<u64>,
    /// The latest `stuck_until` deadline: some cell is stuck at `now`
    /// exactly when it lies past `now`.
    stuck_horizon: u64,
}

impl FaultInjector {
    /// Creates the injector for `cells` cells.
    pub fn new(plan: FaultPlan, cells: usize) -> Self {
        let rng = Rng::seed_from_u64(plan.seed);
        Self {
            plan,
            rng,
            log: FaultLog::default(),
            stuck_until: vec![0; cells],
            stuck_horizon: 0,
        }
    }

    /// The applied-fault log so far.
    pub fn log(&self) -> &FaultLog {
        &self.log
    }

    /// The plan's per-lane fault mask, forwarded to the corruption sites.
    pub fn target_lane(&self) -> Option<usize> {
        self.plan.target_lane
    }

    /// Takes the applied-fault events out of the log without cloning.
    pub fn take_events(&mut self) -> Vec<FaultEvent> {
        std::mem::take(&mut self.log.events)
    }

    fn budget_left(&self) -> bool {
        (self.log.len() as u64) < self.plan.max_faults
    }

    fn record(&mut self, cycle: u64, kind: FaultKind) {
        self.log.events.push(FaultEvent { cycle, kind });
    }

    /// Rolls the per-cycle faults: possibly schedules a stick and possibly
    /// requests a bank flip. Returns `Some((bank_pick, word_pick))` when a
    /// flip should be applied; the caller maps `word_pick` onto the bank's
    /// resident words (an empty bank absorbs the fault harmlessly).
    pub fn begin_cycle(&mut self, now: u64, banks: usize) -> Option<(usize, usize)> {
        if self.plan.stick > 0.0 && self.budget_left() && self.rng.gen_bool(self.plan.stick) {
            let cell = self.rng.gen_usize(self.stuck_until.len().max(1));
            if cell < self.stuck_until.len() && self.stuck_until[cell] <= now {
                let d = self.plan.stick_cycles.max(1);
                self.stuck_until[cell] = now + d;
                self.stuck_horizon = self.stuck_horizon.max(now + d);
                self.record(now, FaultKind::StickCell { cell, cycles: d });
            }
        }
        if self.plan.bank_flip > 0.0
            && banks > 0
            && self.budget_left()
            && self.rng.gen_bool(self.plan.bank_flip)
        {
            let bank = self.rng.gen_usize(banks);
            let word = self.rng.next_u64() as usize;
            return Some((bank, word));
        }
        None
    }

    /// Records an applied bank flip (the caller confirmed the bank had a
    /// resident word to corrupt).
    pub fn log_bank_flip(&mut self, now: u64, bank: usize) {
        self.record(now, FaultKind::BankFlip { bank });
    }

    /// True while `cell` is stuck at cycle `now`.
    pub fn is_stuck(&self, cell: usize, now: u64) -> bool {
        self.stuck_until.get(cell).is_some_and(|&u| u > now)
    }

    /// True when any cell is currently stuck (the deadlock detector treats
    /// stuck cycles as pending progress, not quiescence). O(1).
    pub fn any_stuck(&self, now: u64) -> bool {
        self.stuck_horizon > now
    }

    /// Decides whether the word cell `cell` emits this cycle is corrupted.
    #[inline]
    pub fn on_emit(&mut self, now: u64, cell: usize) -> bool {
        if self.plan.emit_corrupt <= 0.0 || !self.budget_left() {
            return false;
        }
        let mut p = self.plan.emit_corrupt;
        if let Some((hot, w)) = self.plan.hot_cell {
            if hot == cell {
                p *= w;
            }
        }
        if self.rng.gen_bool(p) {
            self.record(now, FaultKind::CorruptEmit { cell });
            true
        } else {
            false
        }
    }

    /// Decides the fate of a word written to link `link` this cycle.
    #[inline]
    pub fn on_link_write(&mut self, now: u64, link: usize) -> LinkFate {
        if (self.plan.link_drop <= 0.0 && self.plan.link_dup <= 0.0) || !self.budget_left() {
            return LinkFate::Deliver;
        }
        if self.plan.link_drop > 0.0 && self.rng.gen_bool(self.plan.link_drop) {
            self.record(now, FaultKind::DropWord { link });
            return LinkFate::Drop;
        }
        if self.plan.link_dup > 0.0 && self.rng.gen_bool(self.plan.link_dup) {
            self.record(now, FaultKind::DuplicateWord { link });
            return LinkFate::Duplicate;
        }
        LinkFate::Deliver
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use systolic_semiring::{Bool, MinPlus};

    #[test]
    fn corrupt_value_always_changes_nontrivial_elements() {
        assert!(corrupt_value::<Bool>(&false));
        assert!(!corrupt_value::<Bool>(&true));
        assert_eq!(corrupt_value::<MinPlus>(&MinPlus::zero()), MinPlus::one());
        assert_eq!(corrupt_value::<MinPlus>(&5), MinPlus::zero());
    }

    #[test]
    fn inert_plans_inject_nothing() {
        for plan in [
            FaultPlan::none(1),
            FaultPlan::transients(1, 0.1).with_max_faults(0),
        ] {
            let mut inj = FaultInjector::new(plan, 4);
            for now in 0..1000 {
                assert_eq!(inj.begin_cycle(now, 3), None);
                assert!(!inj.on_emit(now, 0));
                assert_eq!(inj.on_link_write(now, 0), LinkFate::Deliver);
            }
            assert!(inj.log().is_empty());
        }
    }

    #[test]
    fn decisions_are_seed_deterministic() {
        let roll = |seed: u64| {
            let mut inj = FaultInjector::new(FaultPlan::transients(seed, 0.05), 4);
            for now in 0..500 {
                inj.begin_cycle(now, 2);
                inj.on_emit(now, (now % 4) as usize);
                inj.on_link_write(now, 0);
            }
            inj.log().clone()
        };
        assert_eq!(roll(42), roll(42));
        assert_ne!(roll(42), roll(43));
        assert!(!roll(42).is_empty());
    }

    #[test]
    fn reseeding_decorrelates_attempts() {
        let plan = FaultPlan::transients(7, 0.05);
        assert_ne!(plan.reseeded(0).seed, plan.reseeded(1).seed);
        assert_eq!(plan.reseeded(3), plan.reseeded(3));
    }

    #[test]
    fn max_faults_caps_the_log() {
        let plan = FaultPlan::transients(3, 0.5).with_max_faults(5);
        let mut inj = FaultInjector::new(plan, 2);
        for now in 0..10_000 {
            inj.begin_cycle(now, 1);
            inj.on_emit(now, 0);
            inj.on_link_write(now, 0);
        }
        assert!(inj.log().len() <= 5, "log {:?}", inj.log());
    }

    #[test]
    fn sticks_expire() {
        let mut inj = FaultInjector::new(FaultPlan::transients(9, 0.0), 2);
        inj.plan.stick = 1.0;
        inj.plan.stick_cycles = 2;
        inj.begin_cycle(10, 0);
        let stuck: Vec<usize> = (0..2).filter(|&c| inj.is_stuck(c, 10)).collect();
        assert_eq!(stuck.len(), 1);
        assert!(inj.any_stuck(10));
        assert!(!inj.is_stuck(stuck[0], 12));
    }

    #[test]
    fn hot_cell_attracts_corruption() {
        let plan = FaultPlan {
            emit_corrupt: 0.01,
            ..FaultPlan::none(5)
        }
        .with_hot_cell(1, 60.0);
        let mut inj = FaultInjector::new(plan, 2);
        let mut hot = 0;
        let mut cold = 0;
        for now in 0..2000 {
            if inj.on_emit(now, 0) {
                cold += 1;
            }
            if inj.on_emit(now, 1) {
                hot += 1;
            }
        }
        assert!(hot > 10 * cold.max(1), "hot {hot} cold {cold}");
    }

    #[test]
    fn fault_log_counts_value_corrupting() {
        let log = FaultLog {
            events: vec![
                FaultEvent {
                    cycle: 1,
                    kind: FaultKind::CorruptEmit { cell: 0 },
                },
                FaultEvent {
                    cycle: 2,
                    kind: FaultKind::StickCell { cell: 1, cycles: 3 },
                },
                FaultEvent {
                    cycle: 3,
                    kind: FaultKind::BankFlip { bank: 2 },
                },
                FaultEvent {
                    cycle: 4,
                    kind: FaultKind::DropWord { link: 0 },
                },
            ],
        };
        assert_eq!(log.len(), 4);
        let corrupting: Vec<bool> = log
            .events
            .iter()
            .map(|e| e.kind.is_value_corrupting())
            .collect();
        assert_eq!(corrupting, [true, false, true, false]);
    }
}
