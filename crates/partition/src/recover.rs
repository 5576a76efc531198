//! Checkpoint-retry-bypass recovery around any closure engine.
//!
//! The escalation ladder (§5's fault-tolerance argument made operational):
//!
//! 1. **Checkpoint** — inputs are immutable at instance boundaries, so the
//!    checkpoint of an instance is simply its input matrix; a failed
//!    instance re-runs without disturbing its neighbors.
//! 2. **Verify** — every result passes [`verify_closure`]'s semiring
//!    checksum and closure invariants before it is accepted.
//! 3. **Retry** — a rejected (or structurally failed) attempt re-runs up
//!    to [`RecoveryPolicy::max_retries`] times. Transient-fault plans
//!    reseed per attempt, so a retry faces fresh (not replayed) faults.
//! 4. **Bypass** — when one configuration keeps failing, the faults of the
//!    rejected attempts are blamed on cells ([`FaultAware::blame_cell`]);
//!    the most-struck cell is reclassified as *permanently* faulty and the
//!    batch resumes on a [`FaultyLinearEngine`] bypass configuration
//!    ([`FaultAware::bypass_plan`]) with a fresh retry budget. Bypassed
//!    spare configurations are modelled as clean hardware (no fault plan):
//!    escalation replaces the marginal cell, it does not re-roll it.
//!
//! Accounting: the merged [`RunStats`] of the accepted attempts (folded in
//! instance order, so deterministic) carries a `FaultReport` that also
//! includes the injected/detected counts of every *rejected* attempt, plus
//! the retry and bypass totals.
//!
//! Retries are cheap: the wrapped engine memoizes its compiled schedule
//! (see [`crate::plan::CompiledPlan`]), so a retry replays the cached plan
//! on a reset simulator instead of rebuilding the G-set schedule per
//! attempt. Only an escalation to a new bypass configuration (a different
//! healthy-cell topology) compiles a new plan.

use crate::engine::{ClosureEngine, EngineError};
use crate::fault::FaultyLinearEngine;
use crate::verify::verify_closure;
use std::collections::HashMap;
use std::sync::Mutex;
use systolic_arraysim::{FaultEvent, FaultReport, RunStats};
use systolic_semiring::{DenseMatrix, PathSemiring};

/// An engine that can report and react to runtime faults.
///
/// The default methods describe an engine with no fault instrumentation:
/// nothing to report, no blame, no bypass — [`RecoveringEngine`] over such
/// an engine still verifies and retries, it just cannot escalate.
/// [`crate::PackedEngine`] implements this by delegation: armed fault
/// plans run on its inner scalar engine (lane packing and fault injection
/// don't compose, see DESIGN §10), so blame and bypass see exactly the
/// scalar engine's events.
pub trait FaultAware<S: PathSemiring>: ClosureEngine<S> {
    /// Faults applied during the engine's most recent run (success or
    /// failure); empty for uninstrumented engines.
    fn recent_faults(&self) -> Vec<FaultEvent> {
        Vec::new()
    }

    /// Maps a fault event to the physical cell it indicts, if any (a fault
    /// on link `i` indicts its writer cell `i`; a pivot-boundary bank has
    /// no single owner).
    fn blame_cell(&self, _event: &FaultEvent) -> Option<usize> {
        None
    }

    /// A degraded configuration with the given physical cells bypassed,
    /// if this engine family supports bypass reconfiguration.
    fn bypass_plan(&self, _faulty: &[usize]) -> Option<FaultyLinearEngine> {
        None
    }
}

// Engines without fault instrumentation: defaults only (verify + retry,
// no blame, no bypass).
impl<S: PathSemiring> FaultAware<S> for crate::grid::GridEngine {}
impl<S: PathSemiring> FaultAware<S> for crate::fixed::FixedArrayEngine {}
impl<S: PathSemiring> FaultAware<S> for crate::fixed::FixedLinearEngine {}
impl<S: PathSemiring> FaultAware<S> for crate::lsgp::LsgpEngine {}

/// What to do when an instance keeps failing after `max_retries` retries.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Escalation {
    /// Give up with [`EngineError::Corrupt`].
    Fail,
    /// Reclassify the most-blamed cell as permanently faulty, reconfigure
    /// onto the bypass path and grant a fresh retry budget.
    #[default]
    Bypass,
}

/// Bounds on the recovery effort.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Retries per configuration (so `max_retries + 1` attempts before an
    /// escalation decision).
    pub max_retries: u32,
    /// What happens when a configuration's budget is exhausted.
    pub escalation: Escalation,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        Self {
            max_retries: 3,
            escalation: Escalation::Bypass,
        }
    }
}

/// Per-instance recovery record, for campaign accounting.
#[derive(Clone, Debug, Default)]
pub struct InstanceOutcome {
    /// Batch index.
    pub instance: usize,
    /// Attempts consumed (1 = clean first try).
    pub attempts: u32,
    /// Faults injected during the attempt whose result was accepted.
    pub accepted_events: Vec<FaultEvent>,
    /// Faults injected during rejected attempts (all were detected).
    pub rejected_events: Vec<FaultEvent>,
    /// Verification/engine diagnostics of the rejected attempts.
    pub rejections: Vec<String>,
    /// Physical cells bypassed by the time this instance was accepted.
    pub bypassed: Vec<usize>,
}

/// A [`ClosureEngine`] wrapper that verifies, retries and escalates.
#[derive(Debug)]
pub struct RecoveringEngine<E> {
    inner: E,
    policy: RecoveryPolicy,
    outcomes: Mutex<Vec<InstanceOutcome>>,
}

impl<E: Clone> Clone for RecoveringEngine<E> {
    fn clone(&self) -> Self {
        Self {
            inner: self.inner.clone(),
            policy: self.policy,
            outcomes: Mutex::new(Vec::new()),
        }
    }
}

impl<E> RecoveringEngine<E> {
    /// Wraps `inner` with the default policy (3 retries, then bypass).
    pub fn new(inner: E) -> Self {
        Self {
            inner,
            policy: RecoveryPolicy::default(),
            outcomes: Mutex::new(Vec::new()),
        }
    }

    /// Overrides the policy.
    pub fn with_policy(mut self, p: RecoveryPolicy) -> Self {
        self.policy = p;
        self
    }

    /// The wrapped engine.
    pub fn inner(&self) -> &E {
        &self.inner
    }

    /// Per-instance recovery records of the most recent
    /// [`ClosureEngine::closure_many`] call.
    pub fn outcomes(&self) -> Vec<InstanceOutcome> {
        self.outcomes.lock().expect("outcomes poisoned").clone()
    }
}

impl<S: PathSemiring, E: FaultAware<S>> ClosureEngine<S> for RecoveringEngine<E> {
    fn name(&self) -> &'static str {
        "recovering"
    }

    fn cells(&self) -> usize {
        self.inner.cells()
    }

    fn closure_many(
        &self,
        mats: &[DenseMatrix<S>],
    ) -> Result<(Vec<DenseMatrix<S>>, RunStats), EngineError> {
        let mut results = Vec::with_capacity(mats.len());
        let mut merged: Option<RunStats> = None;
        let mut extra = FaultReport::default();
        let mut outcomes = Vec::with_capacity(mats.len());

        // Degraded-configuration state persists across the batch: a cell
        // reclassified as permanently faulty stays bypassed.
        let mut bypassed: Vec<usize> = Vec::new();
        let mut degraded: Option<FaultyLinearEngine> = None;
        let mut strikes: HashMap<usize, u32> = HashMap::new();

        for (instance, a) in mats.iter().enumerate() {
            let mut outcome = InstanceOutcome {
                instance,
                ..InstanceOutcome::default()
            };
            let mut attempts_left = self.policy.max_retries + 1;

            let (result, stats) = loop {
                if attempts_left == 0 {
                    match self.policy.escalation {
                        Escalation::Fail => {
                            self.outcomes
                                .lock()
                                .expect("outcomes poisoned")
                                .clone_from(&outcomes);
                            return Err(EngineError::Corrupt {
                                instance,
                                detail: format!(
                                    "rejected {} attempts; last: {}",
                                    outcome.attempts,
                                    outcome.rejections.last().cloned().unwrap_or_default()
                                ),
                            });
                        }
                        Escalation::Bypass => {
                            // Reclassify the most-struck not-yet-bypassed
                            // cell (ties broken toward the lowest index).
                            let blamed = strikes
                                .iter()
                                .filter(|(c, _)| !bypassed.contains(c))
                                .max_by(|(c1, s1), (c2, s2)| s1.cmp(s2).then(c2.cmp(c1)))
                                .map(|(c, _)| *c);
                            let next = blamed.and_then(|cell| {
                                let mut set = bypassed.clone();
                                set.push(cell);
                                set.sort_unstable();
                                self.inner.bypass_plan(&set).map(|eng| (cell, set, eng))
                            });
                            let Some((cell, set, eng)) = next else {
                                self.outcomes
                                    .lock()
                                    .expect("outcomes poisoned")
                                    .clone_from(&outcomes);
                                return Err(EngineError::Corrupt {
                                    instance,
                                    detail: format!(
                                        "rejected {} attempts and no bypass is \
                                         possible; last: {}",
                                        outcome.attempts,
                                        outcome.rejections.last().cloned().unwrap_or_default()
                                    ),
                                });
                            };
                            let _ = cell;
                            bypassed = set;
                            degraded = Some(eng);
                            extra.bypasses += 1;
                            attempts_left = self.policy.max_retries + 1;
                            continue;
                        }
                    }
                }
                attempts_left -= 1;
                outcome.attempts += 1;

                let (run, events) = match &degraded {
                    Some(d) => {
                        let run = ClosureEngine::<S>::closure(d, a);
                        (run, d.recent_fault_events())
                    }
                    None => {
                        let run = self.inner.closure(a);
                        (run, self.inner.recent_faults())
                    }
                };

                match run {
                    Ok((r, stats)) => match verify_closure(a, &r) {
                        Ok(()) => break (r, stats),
                        Err(msg) => {
                            extra.injected += events.len() as u64;
                            extra.detected += events.len() as u64;
                            self.strike(&degraded, &events, &mut strikes);
                            outcome.rejected_events.extend(events);
                            outcome.rejections.push(format!("verifier: {msg}"));
                        }
                    },
                    Err(EngineError::BadInput(msg)) => {
                        return Err(EngineError::BadInput(msg));
                    }
                    Err(e) => {
                        // Sim error (deadlock/timeout under injection) or a
                        // structurally corrupt output: detected by
                        // construction.
                        extra.injected += events.len() as u64;
                        extra.detected += events.len() as u64;
                        self.strike(&degraded, &events, &mut strikes);
                        outcome.rejected_events.extend(events);
                        outcome.rejections.push(format!("engine: {e}"));
                    }
                }
            };

            extra.retries += u64::from(outcome.attempts - 1);
            outcome.accepted_events = stats.fault_events.clone();
            outcome.bypassed = bypassed.clone();
            outcomes.push(outcome);
            results.push(result);
            match &mut merged {
                Some(m) => m.merge(&stats),
                None => merged = Some(stats),
            }
        }

        let mut stats = merged.unwrap_or_default();
        stats.fault.merge(&extra);
        self.outcomes
            .lock()
            .expect("outcomes poisoned")
            .clone_from(&outcomes);
        Ok((results, stats))
    }
}

impl<E> RecoveringEngine<E> {
    /// Charges each blamed cell of `events` with one strike. Sticks are
    /// pure delay faults and carry no blame.
    fn strike<S: PathSemiring>(
        &self,
        degraded: &Option<FaultyLinearEngine>,
        events: &[FaultEvent],
        strikes: &mut HashMap<usize, u32>,
    ) where
        E: FaultAware<S>,
    {
        for ev in events {
            if !ev.kind.is_value_corrupting()
                && !matches!(
                    ev.kind,
                    systolic_arraysim::FaultKind::DropWord { .. }
                        | systolic_arraysim::FaultKind::DuplicateWord { .. }
                )
            {
                continue;
            }
            let cell = match degraded {
                Some(d) => <FaultyLinearEngine as FaultAware<S>>::blame_cell(d, ev),
                None => self.inner.blame_cell(ev),
            };
            if let Some(c) = cell {
                *strikes.entry(c).or_insert(0) += 1;
            }
        }
    }
}
