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
//!
//! Each consult point (an emit, a link write, and the stick and bank-flip
//! rolls of each cycle) takes one position of that stream and fires iff
//! the position's top 53 bits fall below the rate's integer
//! [`fire_threshold`], which is exactly `gen_bool(rate)`'s decision. At
//! realistic rates almost every position lies above every threshold of the
//! plan, so no consult could fire on it. The [`FaultInjector`] scans the
//! stream ahead in bounded chunks and counts those quiet positions: the
//! simulator's emits and cycles take their draws off that count inline,
//! and only a position below the largest threshold runs the exact
//! per-kind decision out of line. Every draw, fire, pick and log entry is
//! the one the per-opportunity roll made (`tests/fault_stream.rs` keeps
//! that roll as the oracle).

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
/// All rates are per-opportunity probabilities, and each opportunity is
/// one draw of the plan's stream: `emit_corrupt` is rolled once per emitted
/// word, `link_drop` and `link_dup` once per word written to a link (the
/// duplicate roll only when the word was not dropped), `bank_flip` and
/// `stick` once per cycle. A rate draws only when it is positive, except
/// `emit_corrupt`, which draws unless it is `<= 0.0`: a NaN emit rate
/// takes its draws and never fires. Rates above 1 fire on every draw. The
/// injector skips the draws that cannot fire without rolling them one by
/// one (module docs), so a low rate costs little more than a zero one,
/// yet the stream, and every decision on it, stays the per-draw one.
/// `max_faults` caps the total number of applied faults; once it is
/// reached no consult draws again. A zero-rate plan (the
/// [`FaultPlan::none`] constructor) draws nothing, injects nothing and
/// leaves the simulation bit-identical to an uninstrumented run.
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
    /// resident instance, not all of them. The Boolean packed engine runs a
    /// targeted batch in 64-lane groups (a clean batch takes up to 256 per
    /// group), so the mask names lane `target_lane % 64` of every group.
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

/// Stream positions the injector generates past the last consult, at most.
const SCAN_CHUNK: u64 = 64;

/// The integer form of [`Rng::gen_bool`]'s decision: a draw `x` fires
/// with probability `p` iff `(x >> 11) < fire_threshold(p)`.
///
/// `gen_bool(p)` fires iff `(x >> 11)·2⁻⁵³ < clamp(p, 0, 1)`. Both sides
/// scale exactly by 2⁵³ (the left is an integer below 2⁵³, the right a
/// power-of-two multiple), and an integer lies below a real exactly when
/// it lies below the real's ceiling, so the threshold is
/// `⌈clamp(p)·2⁵³⌉ ∈ [0, 2⁵³]`. A NaN rate compares false against every
/// draw, so its threshold is 0.
pub fn fire_threshold(p: f64) -> u64 {
    if p.is_nan() {
        return 0;
    }
    (p.clamp(0.0, 1.0) * (1u64 << 53) as f64).ceil() as u64
}

/// Runtime state of an active fault plan: the decision stream, the
/// applied log and the per-cell stick deadlines.
///
/// Every consult point takes the next position of the plan's stream, as
/// one `gen_bool` draw did, and fires iff the position's `x >> 11` lies
/// below the consult's [`fire_threshold`]. The thresholds are derived
/// once, here; a position at or above the largest of them (`floor`) is
/// *quiet*: no consult can fire on it. The injector scans the stream
/// ahead, at most one chunk of 64 positions past the last consult, and
/// counts the quiet run before the next *candidate* position, which it
/// holds. A consult on the quiet run is a decrement
/// ([`FaultInjector::skip_put`] and the fast path of
/// [`FaultInjector::begin_cycle`] take a whole put's or cycle's draws at
/// once); only a candidate runs the exact per-kind comparison. The scan
/// stops at the candidate, so the raw picks that follow a fire (the stuck
/// cell, the bank and the word) read the positions right after it, the
/// ones a roll of every draw in turn reads.
#[derive(Clone, Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    rng: Rng,
    log: FaultLog,
    stuck_until: Vec<u64>,
    /// The latest `stuck_until` deadline: some cell is stuck at `now`
    /// exactly when it lies past `now`.
    stuck_horizon: u64,
    /// Per-kind thresholds; `None` where the plan's guard skips the draw
    /// (`emit_corrupt <= 0.0`, every other rate `!(rate > 0.0)`, so a NaN
    /// emit rate draws and never fires while a NaN link, bank or stick
    /// rate draws nothing).
    emit: Option<u64>,
    /// The hot cell and its emit threshold (`emit_corrupt · weight`).
    hot: Option<(usize, u64)>,
    drop: Option<u64>,
    dup: Option<u64>,
    stick: Option<u64>,
    flip: Option<u64>,
    /// Draws a quiet put takes, indexed by whether it writes a link: its
    /// emit roll, plus a link write's drop and duplicate rolls.
    put_draws: [u64; 2],
    /// Draws a quiet cycle takes, indexed by whether the array has banks:
    /// the stick roll, plus the bank-flip roll. Both tables follow the
    /// guards above while the fault budget lasts and are zero after.
    cycle_draws: [u64; 2],
    /// The largest threshold: positions with `x >> 11` at or above it are
    /// quiet.
    floor: u64,
    /// Scanned positions ahead of the cursor, all quiet.
    quiet: u64,
    /// The scanned position right after the quiet run, when the last scan
    /// ended on a candidate rather than at its chunk's end.
    candidate: Option<u64>,
}

impl FaultInjector {
    /// Creates the injector for `cells` cells.
    pub fn new(plan: FaultPlan, cells: usize) -> Self {
        let positive = |p: f64| (p > 0.0).then(|| fire_threshold(p));
        let emit = if plan.emit_corrupt <= 0.0 {
            None
        } else {
            Some(fire_threshold(plan.emit_corrupt))
        };
        let hot = plan
            .hot_cell
            .filter(|_| emit.is_some())
            .map(|(cell, w)| (cell, fire_threshold(plan.emit_corrupt * w)));
        let (drop, dup) = (positive(plan.link_drop), positive(plan.link_dup));
        let (stick, flip) = (positive(plan.stick), positive(plan.bank_flip));
        let floor = [emit, hot.map(|(_, t)| t), drop, dup, stick, flip]
            .into_iter()
            .flatten()
            .max()
            .unwrap_or(0);
        let mut inj = Self {
            rng: Rng::seed_from_u64(plan.seed),
            plan,
            log: FaultLog::default(),
            stuck_until: vec![0; cells],
            stuck_horizon: 0,
            emit,
            hot,
            drop,
            dup,
            stick,
            flip,
            put_draws: [0; 2],
            cycle_draws: [0; 2],
            floor,
            quiet: 0,
            candidate: None,
        };
        inj.count_draws();
        inj
    }

    /// The applied-fault log so far.
    pub fn log(&self) -> &FaultLog {
        &self.log
    }

    /// The plan's per-lane fault mask, forwarded to the corruption sites.
    pub fn target_lane(&self) -> Option<usize> {
        self.plan.target_lane
    }

    /// False once no consult point draws: every rate is zero or the fault
    /// budget is spent. Nothing can fire after that, and a put or cycle
    /// takes no position of the stream.
    pub(crate) fn draws(&self) -> bool {
        self.put_draws[1] + self.cycle_draws[1] > 0
    }

    /// Takes the applied-fault events out of the log without cloning.
    pub fn take_events(&mut self) -> Vec<FaultEvent> {
        let events = std::mem::take(&mut self.log.events);
        self.count_draws();
        events
    }

    fn budget_left(&self) -> bool {
        (self.log.len() as u64) < self.plan.max_faults
    }

    /// Re-evaluates each consult point's guards; the budget is the only
    /// one that changes, and only when the log does.
    fn count_draws(&mut self) {
        let live = u64::from(self.budget_left());
        let n = |t: Option<u64>| live * u64::from(t.is_some());
        let emit = n(self.emit);
        self.put_draws = [emit, emit + n(self.drop) + n(self.dup)];
        let stick = n(self.stick);
        self.cycle_draws = [stick, stick + n(self.flip)];
    }

    fn record(&mut self, cycle: u64, kind: FaultKind) {
        self.log.events.push(FaultEvent { cycle, kind });
        self.count_draws();
    }

    /// Scans up to one chunk past the last scanned position: counts quiet
    /// positions and stops on the first candidate.
    fn scan(&mut self) {
        // Locals, so the loop keeps the generator and the count in registers.
        let mut rng = self.rng.clone();
        let mut quiet = 0;
        while quiet < SCAN_CHUNK {
            let x = rng.next_u64();
            if (x >> 11) < self.floor {
                self.candidate = Some(x);
                break;
            }
            quiet += 1;
        }
        self.quiet += quiet;
        self.rng = rng;
    }

    /// Takes the next position as one draw against threshold `t`.
    fn draw(&mut self, t: u64) -> bool {
        loop {
            if self.quiet > 0 {
                self.quiet -= 1;
                return false;
            }
            if let Some(x) = self.candidate.take() {
                return (x >> 11) < t;
            }
            self.scan();
        }
    }

    /// Takes `need` draws at once when every one lands on a quiet
    /// position; false leaves the stream as it was.
    #[inline(always)]
    fn skip(&mut self, need: u64) -> bool {
        if self.quiet < need && !self.refill(need) {
            return false;
        }
        self.quiet -= need;
        true
    }

    /// Scans until `need` positions are known quiet or a candidate ends
    /// the quiet run.
    #[inline(never)]
    fn refill(&mut self, need: u64) -> bool {
        while self.quiet < need && self.candidate.is_none() {
            self.scan();
        }
        self.quiet >= need
    }

    /// Takes the draws of one emit, and of its link write when `link`,
    /// when none of them can fire: the caller then delivers the word
    /// untouched. False leaves the stream as it was, for the exact path
    /// ([`FaultInjector::on_emit`], then [`FaultInjector::on_link_write`]).
    #[inline(always)]
    pub fn skip_put(&mut self, link: bool) -> bool {
        self.skip(self.put_draws[usize::from(link)])
    }

    /// Rolls the per-cycle faults: possibly schedules a stick and possibly
    /// requests a bank flip. Returns `Some((bank_pick, word_pick))` when a
    /// flip should be applied; the caller maps `word_pick` onto the bank's
    /// resident words (an empty bank absorbs the fault harmlessly).
    #[inline(always)]
    pub fn begin_cycle(&mut self, now: u64, banks: usize) -> Option<(usize, usize)> {
        if self.skip(self.cycle_draws[usize::from(banks > 0)]) {
            return None;
        }
        self.roll_cycle(now, banks)
    }

    /// [`FaultInjector::begin_cycle`] with a candidate among its draws.
    #[inline(never)]
    fn roll_cycle(&mut self, now: u64, banks: usize) -> Option<(usize, usize)> {
        if let Some(t) = self.stick.filter(|_| self.budget_left()) {
            if self.draw(t) {
                let cell = self.rng.gen_usize(self.stuck_until.len().max(1));
                if cell < self.stuck_until.len() && self.stuck_until[cell] <= now {
                    let d = self.plan.stick_cycles.max(1);
                    self.stuck_until[cell] = now + d;
                    self.stuck_horizon = self.stuck_horizon.max(now + d);
                    self.record(now, FaultKind::StickCell { cell, cycles: d });
                }
            }
        }
        if let Some(t) = self.flip.filter(|_| banks > 0 && self.budget_left()) {
            if self.draw(t) {
                let bank = self.rng.gen_usize(banks);
                let word = self.rng.next_u64() as usize;
                return Some((bank, word));
            }
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
    pub fn on_emit(&mut self, now: u64, cell: usize) -> bool {
        let Some(mut t) = self.emit.filter(|_| self.budget_left()) else {
            return false;
        };
        if let Some((hot, ht)) = self.hot {
            if hot == cell {
                t = ht;
            }
        }
        if self.draw(t) {
            self.record(now, FaultKind::CorruptEmit { cell });
            true
        } else {
            false
        }
    }

    /// Decides the fate of a word written to link `link` this cycle.
    pub fn on_link_write(&mut self, now: u64, link: usize) -> LinkFate {
        if !self.budget_left() {
            return LinkFate::Deliver;
        }
        if let Some(t) = self.drop {
            if self.draw(t) {
                self.record(now, FaultKind::DropWord { link });
                return LinkFate::Drop;
            }
        }
        if let Some(t) = self.dup {
            if self.draw(t) {
                self.record(now, FaultKind::DuplicateWord { link });
                return LinkFate::Duplicate;
            }
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
        let plan = FaultPlan {
            stick: 1.0,
            stick_cycles: 2,
            ..FaultPlan::transients(9, 0.0)
        };
        let mut inj = FaultInjector::new(plan, 2);
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
