//! Failure injection: the simulator and engines must *diagnose* broken
//! configurations, not hang or silently corrupt results.

use systolic::arraysim::{ArraySim, SimError, StreamDst, StreamSrc, Task, TaskKind, TaskLabel};
use systolic::partition::{ClosureEngine, EngineError, GridEngine, LinearEngine};
use systolic_semiring::{Bool, DenseMatrix, MinPlus};

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
fn missing_stream_is_reported_as_deadlock() {
    let mut sim = ArraySim::<MinPlus>::new(2);
    let b = sim.add_bank();
    let mut t = task(TaskKind::DelayTail, 3);
    t.pivot_in = Some(StreamSrc::Bank { bank: b, slot: 123 });
    sim.push_task(0, t);
    match sim.run() {
        Err(SimError::Deadlock {
            pending,
            cycle,
            blocked,
        }) => {
            assert_eq!(pending, vec![1, 0]);
            assert!(cycle < 100, "deadlock detected promptly");
            // The diagnostic must name the starved stream endpoint.
            assert!(
                blocked.iter().any(|d| d.contains("cell 0")),
                "blocked diagnostics: {blocked:?}"
            );
        }
        other => panic!("expected deadlock, got {other:?}"),
    }
}

#[test]
fn circular_link_dependency_deadlocks() {
    // Two fuse tasks each waiting on the other's pivot output.
    let mut sim = ArraySim::<Bool>::new(2);
    let b = sim.add_bank();
    let l01 = sim.add_link();
    let l10 = sim.add_link();
    for k in [0usize, 1] {
        for v in [true, false, true] {
            sim.bank_mut(b).preload(k, v);
        }
    }
    let mut t0 = task(TaskKind::Fuse, 3);
    t0.col_in = Some(StreamSrc::Bank { bank: b, slot: 0 });
    t0.pivot_in = Some(StreamSrc::Link(l10));
    t0.pivot_out = Some(StreamDst::Link(l01));
    sim.push_task(0, t0);
    let mut t1 = task(TaskKind::Fuse, 3);
    t1.col_in = Some(StreamSrc::Bank { bank: b, slot: 1 });
    t1.pivot_in = Some(StreamSrc::Link(l01));
    t1.pivot_out = Some(StreamDst::Link(l10));
    sim.push_task(1, t1);
    assert!(matches!(sim.run(), Err(SimError::Deadlock { .. })));
}

#[test]
fn timeout_budget_is_honored() {
    let mut sim = ArraySim::<Bool>::new(1);
    let b = sim.add_bank();
    let mut t = task(TaskKind::Pass, 4);
    t.col_in = Some(StreamSrc::Bank { bank: b, slot: 1 });
    sim.push_task(0, t);
    sim.set_max_cycles(2);
    assert_eq!(sim.run(), Err(SimError::Timeout { max_cycles: 2 }));
}

#[test]
fn engines_reject_bad_shapes() {
    let eng = LinearEngine::new(3);
    // Too small.
    let a = DenseMatrix::<Bool>::zeros(1, 1);
    assert!(matches!(
        ClosureEngine::<Bool>::closure(&eng, &a),
        Err(EngineError::BadInput(_))
    ));
    // Mixed batch sizes.
    let a = DenseMatrix::<Bool>::zeros(3, 3);
    let b = DenseMatrix::<Bool>::zeros(4, 4);
    assert!(matches!(
        ClosureEngine::<Bool>::closure_many(&eng, &[a, b]),
        Err(EngineError::BadInput(_))
    ));
    // Empty batch.
    assert!(matches!(
        ClosureEngine::<Bool>::closure_many(&eng, &[]),
        Err(EngineError::BadInput(_))
    ));
    // Grid with the same constraints.
    let g = GridEngine::new(2);
    let a = DenseMatrix::<Bool>::zeros(0, 0);
    assert!(ClosureEngine::<Bool>::closure(&g, &a).is_err());
}

#[test]
fn engine_error_messages_are_informative() {
    let eng = LinearEngine::new(2);
    let a = DenseMatrix::<Bool>::zeros(1, 1);
    let err = ClosureEngine::<Bool>::closure(&eng, &a).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("n=1"), "{msg}");
    let fmt = format!("{}", SimError::Timeout { max_cycles: 7 });
    assert!(fmt.contains('7'));
}

#[test]
fn pass_through_chain_preserves_order_under_backpressure() {
    // A three-cell pass chain with single-word links: output must preserve
    // stream order even though every link backpressures.
    let mut sim = ArraySim::<MinPlus>::new(3);
    let b = sim.add_bank();
    let l0 = sim.add_link();
    let l1 = sim.add_link();
    let o = sim.add_outputs(1);
    let n = 16;
    for v in 0..n {
        sim.bank_mut(b).preload(0, v as u64);
    }
    let mut t0 = task(TaskKind::Pass, n);
    t0.col_in = Some(StreamSrc::Bank { bank: b, slot: 0 });
    t0.col_out = Some(StreamDst::Link(l0));
    sim.push_task(0, t0);
    let mut t1 = task(TaskKind::Pass, n);
    t1.col_in = Some(StreamSrc::Link(l0));
    t1.col_out = Some(StreamDst::Link(l1));
    sim.push_task(1, t1);
    let mut t2 = task(TaskKind::Pass, n);
    t2.col_in = Some(StreamSrc::Link(l1));
    t2.col_out = Some(StreamDst::Output { stream: o });
    sim.push_task(2, t2);
    let stats = sim.run().unwrap();
    let want: Vec<u64> = (0..n as u64).collect();
    assert_eq!(sim.outputs()[0], want);
    // Pipeline: total ≈ n + chain depth, not 3n.
    assert!(stats.cycles < (n + 8) as u64, "cycles {}", stats.cycles);
}

// ---------------------------------------------------------------------------
// Runtime fault injection: plans, checksum detection, checkpoint recovery.
// ---------------------------------------------------------------------------

use systolic::arraysim::{FaultKind, FaultPlan};
use systolic::partition::{
    verify_closure, Escalation, FaultyLinearEngine, RecoveringEngine, RecoveryPolicy,
};
use systolic_semiring::{warshall, Semiring};
use systolic_util::Rng;

fn random_bool(n: usize, p: f64, seed: u64) -> DenseMatrix<Bool> {
    let mut rng = Rng::seed_from_u64(seed);
    DenseMatrix::from_fn(n, n, |i, j| i != j && rng.gen_bool(p))
}

fn random_minplus(n: usize, seed: u64) -> DenseMatrix<MinPlus> {
    let mut rng = Rng::seed_from_u64(seed);
    DenseMatrix::from_fn(n, n, |i, j| {
        if i != j && rng.gen_bool(0.25) {
            rng.gen_range_u64(1, 12)
        } else {
            MinPlus::zero()
        }
    })
}

#[test]
fn zero_fault_plan_is_bit_identical_to_uninstrumented_runs() {
    let batch: Vec<_> = (0..4).map(|i| random_bool(9, 0.2, 400 + i)).collect();
    let plain = LinearEngine::new(3);
    let armed = LinearEngine::new(3).with_fault_plan(FaultPlan::none(77));
    let (res_p, stats_p) = ClosureEngine::<Bool>::closure_many(&plain, &batch).unwrap();
    let (res_a, stats_a) = ClosureEngine::<Bool>::closure_many(&armed, &batch).unwrap();
    assert_eq!(res_p, res_a, "inert plan must not change results");
    // RunStats::PartialEq ignores wall time but covers every counter,
    // including the fault report and event log (both must be empty).
    assert_eq!(stats_p, stats_a, "inert plan must not change stats");
    assert!(stats_a.fault.is_empty());
    assert!(stats_a.fault_events.is_empty());
    assert!(armed.recent_fault_events().is_empty());

    // The recovery wrapper over an inert plan returns the same closures
    // with no retries. (Its stats differ structurally: checkpointing runs
    // one instance per attempt instead of pipelining the whole batch.)
    let rec = RecoveringEngine::new(LinearEngine::new(3).with_fault_plan(FaultPlan::none(77)));
    let (res_r, stats_r) = ClosureEngine::<Bool>::closure_many(&rec, &batch).unwrap();
    assert_eq!(res_r, res_p);
    assert!(stats_r.fault.is_empty());
    assert!(rec.outcomes().iter().all(|o| o.attempts == 1));
}

#[test]
fn a_spent_fault_budget_still_honours_a_pending_stick() {
    // The first cycle sticks a cell for 40 cycles and spends the budget of
    // one fault, so from then on the injector draws nothing and the puts
    // take the clean path; the stuck cell must still lose its cycles.
    let batch = [random_bool(9, 0.2, 410)];
    let plan = FaultPlan {
        stick: 1.0,
        stick_cycles: 40,
        ..FaultPlan::none(5)
    }
    .with_max_faults(1);
    let plain = LinearEngine::new(3);
    let armed = LinearEngine::new(3).with_fault_plan(plan);
    let (res_p, stats_p) = ClosureEngine::<Bool>::closure_many(&plain, &batch).unwrap();
    let (res_a, stats_a) = ClosureEngine::<Bool>::closure_many(&armed, &batch).unwrap();
    assert_eq!(res_a, res_p, "a stick only costs time");
    let [event] = stats_a.fault_events[..] else {
        panic!("expected one fault, got {:?}", stats_a.fault_events);
    };
    let FaultKind::StickCell { cell, cycles: 40 } = event.kind else {
        panic!("expected a 40-cycle stick, got {event:?}");
    };
    assert_eq!(event.cycle, 0);
    assert!(stats_a.stalls[cell] >= 40, "stalls {:?}", stats_a.stalls);
    assert_ne!(
        (stats_a.cycles, &stats_a.stalls),
        (stats_p.cycles, &stats_p.stalls),
        "the stick was not honoured"
    );
}

#[test]
fn single_bool_corruptions_are_detected_masked_or_principled_escapes() {
    // One value-corrupting fault per run, then audit the verifier: a run
    // whose result equals the reference must be accepted (no false
    // alarms); a diverging result must either be rejected (detected) or
    // be the documented blind spot — a transitively closed superset of
    // the true closure, i.e. the exact closure of a larger input.
    let (mut fired, mut detected, mut masked, mut escaped) = (0, 0, 0, 0);
    for seed in 0..120u64 {
        let a = random_bool(10, 0.12, 900 + seed);
        let reference = warshall(&a);
        let mut plan = FaultPlan::none(7 * seed + 1).with_max_faults(1);
        plan.emit_corrupt = 4e-3;
        plan.bank_flip = 4e-3;
        let eng = LinearEngine::new(3).with_fault_plan(plan);
        let (res, _) = ClosureEngine::<Bool>::closure(&eng, &a).unwrap();
        let events = eng.recent_fault_events();
        assert!(events.len() <= 1, "max_faults cap violated");
        if events.is_empty() {
            continue;
        }
        assert!(events[0].kind.is_value_corrupting());
        fired += 1;
        let verdict = verify_closure(&a, &res);
        if res == reference {
            assert_eq!(verdict, Ok(()), "false alarm on an exact result");
            masked += 1;
        } else if verdict.is_err() {
            detected += 1;
        } else {
            assert_eq!(warshall(&res), res, "escape must be transitively closed");
            for i in 0..10 {
                for j in 0..10 {
                    assert!(
                        !*reference.get(i, j) || *res.get(i, j),
                        "escape must contain the true closure"
                    );
                }
            }
            escaped += 1;
        }
    }
    assert!(fired >= 40, "only {fired}/120 runs injected a fault");
    assert!(detected > 0, "no corruption was ever detected");
    // Density 0.12 at n = 10 is cycle-rich — the verifier's hardest case,
    // where self-witnessing phantom closures are most likely. Every escape
    // above was individually proven to be that exact shape; the ≥95%
    // coverage claim holds at the sparser E22 operating point, while here
    // we only require a solid majority.
    assert!(
        4 * detected >= 3 * (detected + escaped),
        "coverage below 75%: {detected} detected, {escaped} escaped, {masked} masked"
    );
}

#[test]
fn single_minplus_corruptions_are_detected_masked_or_principled_escapes() {
    let (mut fired, mut detected, mut escaped) = (0, 0, 0);
    for seed in 0..80u64 {
        let a = random_minplus(8, 500 + seed);
        let reference = warshall(&a);
        let mut plan = FaultPlan::none(13 * seed + 5).with_max_faults(1);
        plan.emit_corrupt = 4e-3;
        plan.bank_flip = 4e-3;
        let eng = LinearEngine::new(2).with_fault_plan(plan);
        let (res, _) = ClosureEngine::<MinPlus>::closure(&eng, &a).unwrap();
        if eng.recent_fault_events().is_empty() {
            continue;
        }
        fired += 1;
        let verdict = verify_closure(&a, &res);
        if res == reference {
            assert_eq!(verdict, Ok(()), "false alarm on an exact result");
        } else if verdict.is_err() {
            detected += 1;
        } else {
            // Blind spot, min-plus shape: a self-consistent set of
            // shortcuts — still a closure, and it only improves distances.
            assert_eq!(warshall(&res), res, "escape must be a closure");
            for i in 0..8 {
                for j in 0..8 {
                    let r = res.get(i, j);
                    assert_eq!(
                        MinPlus::add(reference.get(i, j), r),
                        *r,
                        "escape may only shorten distances"
                    );
                }
            }
            escaped += 1;
        }
    }
    assert!(fired >= 25, "only {fired}/80 runs injected a fault");
    assert!(detected > 0, "no corruption was ever detected");
    assert!(
        20 * detected >= 19 * (detected + escaped),
        "coverage below 95%: {detected} detected, {escaped} escaped"
    );
}

#[test]
fn recovering_engine_over_degraded_array_stays_exact() {
    // A bypass-degraded array with live transient faults, wrapped in the
    // recovery layer: every accepted closure must be exact. Seeds are
    // pinned, so the retry/escalation trace is reproducible.
    let inner = FaultyLinearEngine::new(5, &[1, 3])
        .unwrap()
        .with_fault_plan(FaultPlan::transients(31, 2e-4));
    let eng = RecoveringEngine::new(inner).with_policy(RecoveryPolicy {
        max_retries: 8,
        escalation: Escalation::Bypass,
    });
    let batch: Vec<_> = (0..12).map(|i| random_bool(8, 0.15, 600 + i)).collect();
    let (res, stats) = ClosureEngine::<Bool>::closure_many(&eng, &batch).unwrap();
    for (a, r) in batch.iter().zip(&res) {
        assert_eq!(*r, warshall(a), "degraded + faulty run must stay exact");
    }
    // The faults actually fired and at least one retry happened at this
    // seed; the report is reproducible run-over-run.
    assert!(stats.fault.injected > 0, "no fault fired: weak test");
    let eng2 = RecoveringEngine::new(
        FaultyLinearEngine::new(5, &[1, 3])
            .unwrap()
            .with_fault_plan(FaultPlan::transients(31, 2e-4)),
    )
    .with_policy(RecoveryPolicy {
        max_retries: 8,
        escalation: Escalation::Bypass,
    });
    let (res2, stats2) = ClosureEngine::<Bool>::closure_many(&eng2, &batch).unwrap();
    assert_eq!(res, res2);
    assert_eq!(stats.fault, stats2.fault);
    assert_eq!(stats, stats2);
}
