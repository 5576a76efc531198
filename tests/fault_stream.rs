//! The fault injector's decision stream, pinned to the per-opportunity
//! roll it replaced.
//!
//! `FaultInjector` scans its plan's xoshiro256** stream ahead and lets a
//! consult on a quiet position (one no threshold can fire on) pass as a
//! decrement. `Rolling` below is the injector as it was before: one
//! `gen_bool(p)` per consult, with every guard in its original form. Both
//! are driven by the same seeded call sequences and must agree call for
//! call: decisions, picks, stick state and the fault log.

use systolic::arraysim::inject::{fire_threshold, FaultInjector, LinkFate};
use systolic::arraysim::{FaultEvent, FaultKind, FaultLog, FaultPlan};
use systolic_util::Rng;

/// The oracle: the per-opportunity `gen_bool` injector, kept verbatim.
struct Rolling {
    plan: FaultPlan,
    rng: Rng,
    log: FaultLog,
    stuck_until: Vec<u64>,
    stuck_horizon: u64,
}

impl Rolling {
    fn new(plan: FaultPlan, cells: usize) -> Self {
        let rng = Rng::seed_from_u64(plan.seed);
        Self {
            plan,
            rng,
            log: FaultLog::default(),
            stuck_until: vec![0; cells],
            stuck_horizon: 0,
        }
    }

    fn budget_left(&self) -> bool {
        (self.log.len() as u64) < self.plan.max_faults
    }

    fn record(&mut self, cycle: u64, kind: FaultKind) {
        self.log.events.push(FaultEvent { cycle, kind });
    }

    fn begin_cycle(&mut self, now: u64, banks: usize) -> Option<(usize, usize)> {
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

    fn log_bank_flip(&mut self, now: u64, bank: usize) {
        self.record(now, FaultKind::BankFlip { bank });
    }

    fn is_stuck(&self, cell: usize, now: u64) -> bool {
        self.stuck_until.get(cell).is_some_and(|&u| u > now)
    }

    fn any_stuck(&self, now: u64) -> bool {
        self.stuck_horizon > now
    }

    fn on_emit(&mut self, now: u64, cell: usize) -> bool {
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

    fn on_link_write(&mut self, now: u64, link: usize) -> LinkFate {
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

/// Drives both injectors through `steps` seeded calls and asserts they
/// agree on every one. A put goes through `skip_put` first, as
/// `Fabric::dst_put` does, and through the exact calls only when that
/// declines. Returns the number of applied faults.
fn agree(plan: &FaultPlan, cells: usize, steps: usize, seed: u64) -> usize {
    let mut fast = FaultInjector::new(plan.clone(), cells);
    let mut slow = Rolling::new(plan.clone(), cells);
    let mut calls = Rng::seed_from_u64(seed);
    let mut now = 0u64;
    let ctx = |step: usize| format!("{plan:?} cells {cells} seed {seed} step {step}");
    for step in 0..steps {
        let cell = calls.gen_usize(cells.max(1) + 1);
        let link = calls.gen_usize(5);
        match calls.gen_usize(8) {
            0 => {
                now += 1;
                let banks = [0, 1, 3][calls.gen_usize(3)];
                let picked = fast.begin_cycle(now, banks);
                assert_eq!(picked, slow.begin_cycle(now, banks), "{}", ctx(step));
                // A flip lands only on a bank holding a word: model the
                // empty ones by the word pick's parity.
                if let Some((bank, word)) = picked {
                    if word % 2 == 0 {
                        fast.log_bank_flip(now, bank);
                        slow.log_bank_flip(now, bank);
                    }
                }
                assert_eq!(fast.any_stuck(now), slow.any_stuck(now), "{}", ctx(step));
                for c in 0..=cells {
                    assert_eq!(
                        fast.is_stuck(c, now),
                        slow.is_stuck(c, now),
                        "{}",
                        ctx(step)
                    );
                }
            }
            1 => {
                let got = fast.on_emit(now, cell);
                assert_eq!(got, slow.on_emit(now, cell), "{}", ctx(step));
            }
            2 => {
                let got = fast.on_link_write(now, link);
                assert_eq!(got, slow.on_link_write(now, link), "{}", ctx(step));
            }
            _ => {
                let to_link = calls.gen_bool(0.7);
                let want = (
                    slow.on_emit(now, cell),
                    if to_link {
                        slow.on_link_write(now, link)
                    } else {
                        LinkFate::Deliver
                    },
                );
                let got = if fast.skip_put(to_link) {
                    (false, LinkFate::Deliver)
                } else {
                    (
                        fast.on_emit(now, cell),
                        if to_link {
                            fast.on_link_write(now, link)
                        } else {
                            LinkFate::Deliver
                        },
                    )
                };
                assert_eq!(got, want, "{}", ctx(step));
            }
        }
        assert_eq!(fast.log().len(), slow.log.len(), "{}", ctx(step));
    }
    assert_eq!(*fast.log(), slow.log, "{}", ctx(steps));
    slow.log.len()
}

const RATES: [f64; 9] = [
    0.0,
    3e-5,
    1e-2,
    0.5,
    1.0,
    1.5,
    -0.25,
    f64::NAN,
    f64::INFINITY,
];

#[test]
fn every_kind_at_every_rate_draws_the_same_stream() {
    type Set = fn(&mut FaultPlan, f64);
    let kinds: [Set; 6] = [
        |p, r| p.emit_corrupt = r,
        |p, r| p.link_drop = r,
        |p, r| p.link_dup = r,
        |p, r| p.bank_flip = r,
        |p, r| p.stick = r,
        |p, r| {
            p.emit_corrupt = r;
            p.link_drop = r;
            p.link_dup = r;
            p.bank_flip = r;
            p.stick = r;
        },
    ];
    let mut fired = 0;
    for (k, set) in kinds.iter().enumerate() {
        for (r, &rate) in RATES.iter().enumerate() {
            for max_faults in [0, 1, u64::MAX] {
                let seed = (k * 100 + r * 10) as u64 + max_faults.min(2);
                let mut plan = FaultPlan {
                    stick_cycles: 3,
                    max_faults,
                    ..FaultPlan::none(seed)
                };
                set(&mut plan, rate);
                fired += agree(&plan, 4, 2_000, seed);
                fired += agree(&plan.clone().with_hot_cell(2, 60.0), 4, 2_000, seed + 1);
                fired += agree(&plan.with_target_lane(5), 1, 500, seed + 2);
            }
        }
    }
    assert!(fired > 1_000, "only {fired} faults fired");
}

#[test]
fn mixed_rates_and_hot_weights_draw_the_same_stream() {
    // Each kind at its own rate, so one position can be a candidate for
    // one consult and quiet for the next; hot weights that push the hot
    // cell's rate above 1, to 0, negative and to NaN.
    let mut rng = Rng::seed_from_u64(17);
    for case in 0..200u64 {
        let pick = |rng: &mut Rng| RATES[rng.gen_usize(RATES.len())];
        let mut plan = FaultPlan {
            emit_corrupt: pick(&mut rng),
            link_drop: pick(&mut rng),
            link_dup: pick(&mut rng),
            bank_flip: pick(&mut rng),
            stick: pick(&mut rng),
            stick_cycles: rng.gen_range_u64(0, 4),
            max_faults: [0, 1, 7, u64::MAX][rng.gen_usize(4)],
            ..FaultPlan::none(case)
        };
        if rng.gen_bool(0.5) {
            let w = [60.0, 1e6, 0.0, -3.0, f64::NAN][rng.gen_usize(5)];
            plan = plan.with_hot_cell(rng.gen_usize(3), w);
        }
        agree(&plan, [0, 1, 3][rng.gen_usize(3)], 1_500, case);
    }
}

#[test]
fn the_benchmark_rate_draws_the_same_stream_over_long_runs() {
    // At 3e-5 a candidate comes about once in 33 000 positions, so quiet
    // runs cross many scan chunks between fires.
    let mut fired = 0;
    for seed in 1..=4 {
        let plan = FaultPlan::transients(seed, 3e-5);
        fired += agree(&plan, 4, 150_000, seed);
        fired += agree(&plan.with_max_faults(1), 4, 150_000, seed);
    }
    fired += agree(
        &FaultPlan::transients(9, 1e-3).with_hot_cell(1, 60.0),
        4,
        150_000,
        9,
    );
    assert!(fired >= 20, "only {fired} faults fired");
}

/// `Rng::next_f64`'s map from a raw draw to `[0, 1)`.
fn unit(x: u64) -> f64 {
    (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

#[test]
fn the_integer_threshold_is_gen_bool_at_the_edges() {
    let two53 = (1u64 << 53) as f64;
    let edges = [
        1.0 / two53,             // 2⁻⁵³: only k = 0 fires
        1.0 - 1.0 / two53,       // 1 − 2⁻⁵³: all but k = 2⁵³ − 1 fire
        f64::from_bits(1),       // the least subnormal
        f64::MIN_POSITIVE / 3.0, // a subnormal
        0.5 / two53,
        1.5 / two53,
        0.0,
        -0.0,
        1.0,
        3e-5,
        0.3,
        1.0 + f64::EPSILON,
        -1e-300,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ];
    let mut rng = Rng::seed_from_u64(53);
    let mut ps: Vec<f64> = edges.to_vec();
    for _ in 0..2_000 {
        // Random rates, and their neighbours one ulp either side.
        let p = rng.next_f64();
        ps.extend([
            p,
            f64::from_bits(p.to_bits() + 1),
            f64::from_bits(p.to_bits().saturating_sub(1)),
        ]);
    }
    let top = (1u64 << 53) - 1;
    for &p in &ps {
        let t = fire_threshold(p);
        assert!(t <= 1 << 53, "p {p:e}: threshold {t}");
        let ks = [0, 1, t.saturating_sub(1), t, t + 1, top - 1, top];
        for k in ks.into_iter().filter(|&k| k <= top) {
            let x = (k << 11) | rng.gen_range_u64(0, (1 << 11) - 1);
            assert_eq!(
                (x >> 11) < t,
                unit(x) < p.clamp(0.0, 1.0),
                "p {p:e} (bits {:#x}), k {k}, threshold {t}",
                p.to_bits()
            );
        }
    }
    // And on the generator itself: the same stream decided both ways.
    for &p in &ps[..edges.len() + 300] {
        let t = fire_threshold(p);
        let mut a = Rng::seed_from_u64(p.to_bits());
        let mut b = a.clone();
        for _ in 0..64 {
            assert_eq!(a.gen_bool(p), (b.next_u64() >> 11) < t, "p {p:e}");
        }
    }
}
