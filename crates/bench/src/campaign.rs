//! Seeded fault-injection campaigns over the recovering linear engine.
//!
//! A campaign runs a deterministic batch of random closure instances
//! through a [`RecoveringEngine`] wrapping a fault-armed [`LinearEngine`],
//! then audits every instance outcome against the software reference
//! (`warshall`) to classify each injected fault:
//!
//! * **detected** — the fault hit an attempt whose result the verifier (or
//!   the simulator itself) rejected; the attempt was retried, so nothing
//!   escaped;
//! * **harmless** — the fault hit an accepted attempt whose result still
//!   equals the reference (the upset was masked by the semiring fold);
//! * **escaped** — the fault hit an accepted attempt whose result differs
//!   from the reference: silent data corruption.
//!
//! Coverage is reported over *value-corrupting* faults only (corrupted
//! emissions and bank flips); dropped/duplicated words and stuck cells are
//! structural faults that surface as simulation errors or schedule skew and
//! are tabulated separately. The whole campaign is a pure function of its
//! [`CampaignConfig`], so running it twice must reproduce the identical
//! [`CampaignReport`] — the CLI and experiment E22 both assert this.

use std::fmt::Write as _;
use systolic_arraysim::{FaultKind, FaultPlan, FaultReport};
use systolic_closure::gnp;
use systolic_partition::{
    ClosureEngine, EngineError, Escalation, LinearEngine, PackedEngine, RecoveringEngine,
    RecoveryPolicy,
};
use systolic_semiring::{warshall, Bool, DenseMatrix};

/// Parameters of a fault-injection campaign (see [`run_campaign`]).
#[derive(Clone, Debug, PartialEq)]
pub struct CampaignConfig {
    /// Base seed for graph generation and the fault plan.
    pub seed: u64,
    /// Vertices per instance.
    pub n: usize,
    /// Edge probability of the random instance graphs. Escape rates are
    /// density-dependent: a fabricated reachability bit can only masquerade
    /// as a valid closure when it points into a cycle (see
    /// `systolic-partition::verify`), so mid-density graphs with a large
    /// strongly-connected component are the verifier's hardest case.
    pub density: f64,
    /// Linear-array cells `m`.
    pub cells: usize,
    /// Batch size (problem instances).
    pub instances: usize,
    /// Transient-fault rate fed to [`FaultPlan::transients`].
    pub rate: f64,
    /// Retry budget per array configuration before escalating.
    pub max_retries: u32,
    /// Optional marginal cell `(index, weight)`: its emissions fail
    /// `weight` times more often, driving the escalation-to-bypass path.
    pub hot_cell: Option<(usize, f64)>,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        Self {
            seed: 2026,
            n: 16,
            density: 0.06,
            cells: 4,
            instances: 300,
            rate: 3e-5,
            max_retries: 10,
            hot_cell: None,
        }
    }
}

/// Names of the per-kind tally rows, in `kind_index` order.
pub const KIND_NAMES: [&str; 5] = [
    "corrupt-emit",
    "drop-word",
    "dup-word",
    "bank-flip",
    "stick-cell",
];

fn kind_index(k: &FaultKind) -> usize {
    match k {
        FaultKind::CorruptEmit { .. } => 0,
        FaultKind::DropWord { .. } => 1,
        FaultKind::DuplicateWord { .. } => 2,
        FaultKind::BankFlip { .. } => 3,
        FaultKind::StickCell { .. } => 4,
    }
}

/// Per-fault-kind audit counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KindTally {
    /// Faults of this kind applied by the injector.
    pub injected: u64,
    /// Faults whose attempt was rejected (retried before escaping).
    pub detected: u64,
    /// Faults present in an accepted result that differs from the
    /// reference.
    pub escaped: u64,
    /// Faults present in an accepted result that still equals the
    /// reference (masked upsets).
    pub harmless: u64,
}

/// The audited outcome of one campaign run.
#[derive(Clone, Debug, PartialEq)]
pub struct CampaignReport {
    /// Merged engine-side counters, with `escaped` filled in from the
    /// reference comparison.
    pub fault: FaultReport,
    /// Per-kind tallies, indexed like [`KIND_NAMES`].
    pub kinds: [KindTally; 5],
    /// Detected value-corrupting faults (corrupt-emit + bank-flip).
    pub detected_vc: u64,
    /// Escaped value-corrupting faults (silent data corruption).
    pub escaped_vc: u64,
    /// True iff every accepted closure equals the software reference.
    pub results_match: bool,
    /// Instances whose accepted closure differs from the reference.
    pub mismatched_instances: u64,
    /// Mismatching instances with *no* accepted fault to blame — this
    /// would mean the engine corrupts results without any injected cause,
    /// and must always be zero.
    pub unexplained_mismatches: u64,
    /// Batch cycles of a fault-free run of the same engine.
    pub clean_cycles: u64,
    /// Batch cycles of the faulty run, retries included.
    pub faulty_cycles: u64,
    /// Cells retired onto the bypass chain by the end of the batch.
    pub bypassed_cells: usize,
    /// Total attempts consumed across the batch.
    pub attempts: u64,
}

impl CampaignReport {
    /// Detection coverage over value-corrupting faults, `None` when no
    /// such fault was injected.
    pub fn coverage(&self) -> Option<f64> {
        let total = self.detected_vc + self.escaped_vc;
        (total > 0).then(|| self.detected_vc as f64 / total as f64)
    }

    /// Structural throughput factor `(m − f)/m` after retiring `f` cells.
    pub fn degradation(&self, cells: usize) -> f64 {
        (cells - self.bypassed_cells) as f64 / cells as f64
    }

    /// Measured cycle inflation of the faulty run over the clean run.
    pub fn cycle_overhead(&self) -> f64 {
        self.faulty_cycles as f64 / self.clean_cycles as f64
    }
}

/// Runs one campaign: clean baseline, faulty recovering run, reference
/// audit. Deterministic in `cfg` — same config, same report.
pub fn run_campaign(cfg: &CampaignConfig) -> Result<CampaignReport, EngineError> {
    let batch: Vec<DenseMatrix<Bool>> = (0..cfg.instances)
        .map(|i| gnp(cfg.n, cfg.density, cfg.seed.wrapping_add(i as u64)).adjacency_matrix())
        .collect();
    let reference: Vec<_> = batch.iter().map(warshall).collect();

    let clean = LinearEngine::new(cfg.cells);
    let (clean_res, clean_stats) = ClosureEngine::<Bool>::closure_many(&clean, &batch)?;
    assert_eq!(clean_res, reference, "clean baseline must be exact");

    let mut plan = FaultPlan::transients(cfg.seed ^ 0xFA57_FA57, cfg.rate);
    if let Some((cell, weight)) = cfg.hot_cell {
        plan = plan.with_hot_cell(cell, weight);
    }
    let eng = RecoveringEngine::new(LinearEngine::new(cfg.cells).with_fault_plan(plan))
        .with_policy(RecoveryPolicy {
            max_retries: cfg.max_retries,
            escalation: Escalation::Bypass,
        });
    let (res, stats) = ClosureEngine::<Bool>::closure_many(&eng, &batch)?;

    let mut kinds = [KindTally::default(); 5];
    let (mut detected_vc, mut escaped_vc) = (0u64, 0u64);
    let (mut attempts, mut bypassed_cells) = (0u64, 0usize);
    let mut results_match = true;
    let (mut mismatched_instances, mut unexplained_mismatches) = (0u64, 0u64);
    for o in eng.outcomes() {
        attempts += u64::from(o.attempts);
        bypassed_cells = bypassed_cells.max(o.bypassed.len());
        for ev in &o.rejected_events {
            let k = kind_index(&ev.kind);
            kinds[k].injected += 1;
            kinds[k].detected += 1;
            if ev.kind.is_value_corrupting() {
                detected_vc += 1;
            }
        }
        let exact = res[o.instance] == reference[o.instance];
        results_match &= exact;
        if !exact {
            mismatched_instances += 1;
            if o.accepted_events.is_empty() {
                unexplained_mismatches += 1;
            }
        }
        for ev in &o.accepted_events {
            let k = kind_index(&ev.kind);
            kinds[k].injected += 1;
            if exact {
                kinds[k].harmless += 1;
            } else {
                kinds[k].escaped += 1;
                if ev.kind.is_value_corrupting() {
                    escaped_vc += 1;
                }
            }
        }
    }
    let mut fault = stats.fault;
    fault.escaped = escaped_vc;
    debug_assert_eq!(
        fault.injected,
        kinds.iter().map(|k| k.injected).sum::<u64>(),
        "engine and audit disagree on injected faults"
    );

    Ok(CampaignReport {
        fault,
        kinds,
        detected_vc,
        escaped_vc,
        results_match,
        mismatched_instances,
        unexplained_mismatches,
        clean_cycles: clean_stats.cycles,
        faulty_cycles: stats.cycles,
        bypassed_cells,
        attempts,
    })
}

/// Parameters of a packed-plane campaign (see [`run_packed_campaign`]).
#[derive(Clone, Debug, PartialEq)]
pub struct PackedCampaignConfig {
    /// Base seed for graph generation and the fault plan.
    pub seed: u64,
    /// Vertices per instance.
    pub n: usize,
    /// Edge probability of the random instance graphs.
    pub density: f64,
    /// Linear-array cells `m`.
    pub cells: usize,
    /// Batch size; pick `> 64` so the batch spans several lane groups.
    pub instances: usize,
    /// Per-opportunity rate of the value faults (`emit_corrupt` and
    /// `bank_flip`). Structural faults are left off: they tear the shared
    /// stream of a whole lane group, which is the scalar campaign's story.
    pub rate: f64,
    /// The lane the armed plan confines every value fault to.
    pub target_lane: usize,
    /// Value-fault rate of the recovering phase. Retries re-run one
    /// instance at a time, so this phase pins the plan to lane 0 (the only
    /// occupied lane of a group of one) and needs a rate low enough that a
    /// retry can come back clean — the raw phase's blast-radius rate would
    /// fault every attempt.
    pub recovery_rate: f64,
    /// Retry budget of the recovering phase.
    pub max_retries: u32,
}

impl Default for PackedCampaignConfig {
    fn default() -> Self {
        Self {
            seed: 2026,
            n: 12,
            density: 0.12,
            cells: 4,
            instances: 160,
            rate: 4e-3,
            target_lane: 9,
            recovery_rate: 4e-5,
            max_retries: 10,
        }
    }
}

/// The audited outcome of one packed-plane campaign.
#[derive(Clone, Debug, PartialEq)]
pub struct PackedCampaignReport {
    /// Lane count of the packed plane (64 for the Boolean default).
    pub lanes: usize,
    /// Faults applied during the raw packed batch.
    pub injected: u64,
    /// Instances whose raw packed result differs from the reference.
    pub mismatched_instances: u64,
    /// Mismatches at instances *outside* the target lane — corruption that
    /// leaked across lanes. Must be zero.
    pub off_target_mismatches: u64,
    /// Mismatched instances with no blame record attributing a
    /// value-corrupting fault to them. Must be zero.
    pub unexplained_mismatches: u64,
    /// Per-instance blame records the engine attributed to the target lane.
    pub blame_records: u64,
    /// Batches the raw phase ran packed / routed to the scalar path.
    pub raw_packed_runs: u64,
    /// Scalar fallbacks of the raw phase. Must be zero.
    pub raw_fallback_runs: u64,
    /// True iff every recovered closure equals the reference.
    pub recovered_exact: bool,
    /// Recovered instances that differ from the reference because an
    /// accepted fault escaped the verifier (its documented blind spot).
    pub recovery_escapes: u64,
    /// Recovered instances that differ from the reference with *no*
    /// accepted fault to blame. Must be zero.
    pub recovery_unexplained: u64,
    /// Verifier-driven retries consumed by the recovering phase.
    pub recovery_retries: u64,
    /// Packed batches executed by the recovering phase (includes retries).
    pub recovering_packed_runs: u64,
    /// Scalar fallbacks of the recovering phase. Must be zero.
    pub recovering_fallback_runs: u64,
}

impl PackedCampaignReport {
    /// True iff the packed fault story held end to end: no scalar
    /// fallback, no cross-lane leak, and every mismatch — raw or
    /// recovered — explained by a blamed or accepted fault. Escapes
    /// through the verifier's documented blind spot are tolerated (as in
    /// the scalar campaign); unexplained corruption is not.
    pub fn contained(&self) -> bool {
        self.raw_fallback_runs == 0
            && self.recovering_fallback_runs == 0
            && self.off_target_mismatches == 0
            && self.unexplained_mismatches == 0
            && self.recovery_unexplained == 0
    }
}

/// Runs a packed-plane fault campaign over the Boolean packed engine,
/// which keeps a lane-targeted batch in 64-lane groups.
///
/// Phase 1 (raw audit) runs the batch straight through a [`PackedEngine`]
/// whose armed plan targets one lane, and checks the blast radius: the run
/// stays packed, only instances `≡ target_lane (mod 64)` may differ from
/// `warshall`, and each mismatch is explained by a recorded per-instance
/// blame. Phase 2 wraps the same engine in a [`RecoveringEngine`] and
/// checks the campaign recovers to exact results without ever leaving the
/// packed path. Deterministic in `cfg`.
pub fn run_packed_campaign(
    cfg: &PackedCampaignConfig,
) -> Result<PackedCampaignReport, EngineError> {
    let lanes = <systolic_semiring::BoolLanes as systolic_semiring::Semiring>::LANE_COUNT;
    let batch: Vec<DenseMatrix<Bool>> = (0..cfg.instances)
        .map(|i| gnp(cfg.n, cfg.density, cfg.seed.wrapping_add(i as u64)).adjacency_matrix())
        .collect();
    let reference: Vec<_> = batch.iter().map(warshall).collect();

    let plan = FaultPlan {
        emit_corrupt: cfg.rate,
        bank_flip: cfg.rate,
        ..FaultPlan::none(cfg.seed ^ 0xFA57_FA57)
    }
    .with_target_lane(cfg.target_lane);

    // Phase 1: raw packed batch, audited against the reference.
    let raw = PackedEngine::from_engine(LinearEngine::new(cfg.cells).with_fault_plan(plan.clone()));
    let (res, stats) = raw.closure_many(&batch)?;
    let blame = raw.take_lane_blame();
    let target = cfg.target_lane % lanes;
    let (mut mismatched, mut off_target, mut unexplained) = (0u64, 0u64, 0u64);
    for (i, (got, expect)) in res.iter().zip(&reference).enumerate() {
        if got == expect {
            continue;
        }
        mismatched += 1;
        if i % lanes != target {
            off_target += 1;
        }
        if !blame.iter().any(|(inst, _)| *inst == i) {
            unexplained += 1;
        }
    }

    // Phase 2: a lane-targeted plan under the recovering wrapper. The
    // wrapper retries one instance at a time, and a group of one occupies
    // lane 0 only, so the plan targets lane 0 at the (lower) recovery
    // rate — otherwise every fault would land in an empty lane (trivially
    // clean) or every retry would be faulted (never converging).
    let recovery_plan = FaultPlan {
        emit_corrupt: cfg.recovery_rate,
        bank_flip: cfg.recovery_rate,
        ..FaultPlan::none(cfg.seed ^ 0x5EED_F00D)
    }
    .with_target_lane(0);
    let rec = RecoveringEngine::new(PackedEngine::from_engine(
        LinearEngine::new(cfg.cells).with_fault_plan(recovery_plan),
    ))
    .with_policy(RecoveryPolicy {
        max_retries: cfg.max_retries,
        escalation: Escalation::Fail,
    });
    let (rec_res, rec_stats) = ClosureEngine::<Bool>::closure_many(&rec, &batch)?;
    let recovered_exact = rec_res == reference;
    let (mut recovery_escapes, mut recovery_unexplained) = (0u64, 0u64);
    for o in rec.outcomes() {
        if rec_res[o.instance] == reference[o.instance] {
            continue;
        }
        if o.accepted_events
            .iter()
            .any(|e| e.kind.is_value_corrupting())
        {
            recovery_escapes += 1;
        } else {
            recovery_unexplained += 1;
        }
    }

    Ok(PackedCampaignReport {
        lanes,
        injected: stats.fault.injected,
        mismatched_instances: mismatched,
        off_target_mismatches: off_target,
        unexplained_mismatches: unexplained,
        blame_records: blame.len() as u64,
        raw_packed_runs: raw.packed_runs(),
        raw_fallback_runs: raw.fallback_runs(),
        recovered_exact,
        recovery_escapes,
        recovery_unexplained,
        recovery_retries: rec_stats.fault.retries,
        recovering_packed_runs: rec.inner().packed_runs(),
        recovering_fallback_runs: rec.inner().fallback_runs(),
    })
}

/// Renders a packed campaign report as the CLI's containment table.
pub fn render_packed_campaign(cfg: &PackedCampaignConfig, r: &PackedCampaignReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "packed fault campaign: seed {}, {} instances of n = {} (density {}), linear m = {}, \
         value-fault rate {:.1e}, target lane {} of {}",
        cfg.seed,
        cfg.instances,
        cfg.n,
        cfg.density,
        cfg.cells,
        cfg.rate,
        cfg.target_lane % r.lanes,
        r.lanes,
    );
    let _ = writeln!(out);
    let _ = writeln!(out, "| phase | packed runs | scalar fallbacks |");
    let _ = writeln!(out, "|---|---:|---:|");
    let _ = writeln!(
        out,
        "| raw batch | {} | {} |",
        r.raw_packed_runs, r.raw_fallback_runs
    );
    let _ = writeln!(
        out,
        "| recovering | {} | {} |",
        r.recovering_packed_runs, r.recovering_fallback_runs
    );
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "blast radius: {} fault(s) injected, {} instance(s) mismatched, {} outside the target \
         lane, {} unexplained by the {} blame record(s)",
        r.injected,
        r.mismatched_instances,
        r.off_target_mismatches,
        r.unexplained_mismatches,
        r.blame_records,
    );
    let _ = writeln!(
        out,
        "recovery (lane-0 plan at rate {:.1e}): {} retry(ies), exact: {}, verifier escapes: {}, \
         unexplained: {}; containment held: {}",
        cfg.recovery_rate,
        r.recovery_retries,
        r.recovered_exact,
        r.recovery_escapes,
        r.recovery_unexplained,
        r.contained()
    );
    out
}

/// Renders a campaign report as the CLI's detection-coverage table.
pub fn render_campaign(cfg: &CampaignConfig, r: &CampaignReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "fault campaign: seed {}, {} instances of n = {} (density {}), linear m = {}, rate {:.1e}, retry budget {}{}",
        cfg.seed,
        cfg.instances,
        cfg.n,
        cfg.density,
        cfg.cells,
        cfg.rate,
        cfg.max_retries,
        match cfg.hot_cell {
            Some((c, w)) => format!(", hot cell {c} (×{w:.0})"),
            None => String::new(),
        }
    );
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "| fault kind | injected | detected | escaped | harmless |"
    );
    let _ = writeln!(out, "|---|---:|---:|---:|---:|");
    for (name, k) in KIND_NAMES.iter().zip(r.kinds.iter()) {
        let _ = writeln!(
            out,
            "| {name} | {} | {} | {} | {} |",
            k.injected, k.detected, k.escaped, k.harmless
        );
    }
    let _ = writeln!(
        out,
        "| total | {} | {} | {} | {} |",
        r.fault.injected,
        r.fault.detected,
        r.kinds.iter().map(|k| k.escaped).sum::<u64>(),
        r.kinds.iter().map(|k| k.harmless).sum::<u64>()
    );
    let _ = writeln!(out);
    match r.coverage() {
        Some(c) => {
            let _ = writeln!(
                out,
                "detection coverage (value-corrupting): {}/{} = {:.1}%",
                r.detected_vc,
                r.detected_vc + r.escaped_vc,
                100.0 * c
            );
        }
        None => {
            let _ = writeln!(
                out,
                "detection coverage: n/a (no value-corrupting fault injected)"
            );
        }
    }
    let _ = writeln!(
        out,
        "recovery: {} attempts for {} instances, {} retries, {} bypass escalations; all closures exact: {}",
        r.attempts, cfg.instances, r.fault.retries, r.fault.bypasses, r.results_match
    );
    if !r.results_match {
        let _ = writeln!(
            out,
            "silent corruption: {} instance(s) differ from the reference, every one explained \
             by an escaped fault: {}",
            r.mismatched_instances,
            r.unexplained_mismatches == 0
        );
    }
    let _ = writeln!(
        out,
        "throughput: {} cycles faulty vs {} clean ({:.2}× overhead); structural (m−f)/m = {:.2}",
        r.faulty_cycles,
        r.clean_cycles,
        r.cycle_overhead(),
        r.degradation(cfg.cells)
    );
    out
}
