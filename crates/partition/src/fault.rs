//! Fault tolerance (§5): *"linear arrays are more advantageous than
//! two-dimensional ones because they are better suited to incorporate
//! fault-tolerant capabilities."*
//!
//! This module makes that claim measurable:
//!
//! * [`FaultyLinearEngine`] — a linear partitioned array with a set of
//!   failed cells, reconfigured by the classical bypass scheme: each faulty
//!   cell's pivot-chain register is switched to a pass-through, so the `f`
//!   healthy cells form a working linear array whose inter-cell links have
//!   one extra cycle of latency per bypassed neighbor. The engine still
//!   computes exact closures; throughput degrades gracefully by the factor
//!   `(m-f)/m` (work is redistributed), which experiment E18 measures.
//! * [`grid_fault_capacity`] — the matching 2-D story: without per-cell
//!   routing muxes, reconfiguring a `√m × √m` mesh around a fault requires
//!   retiring the fault's whole row and column (the standard spare-row/
//!   column argument), so `f` worst-case faults leave `(√m - f)²` usable
//!   cells — a much steeper loss than the linear array's `m - f`.

use crate::engine::{ClosureEngine, EngineError};
use crate::linear::LinearEngine;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use systolic_arraysim::{FaultEvent, FaultPlan, RunStats};
use systolic_semiring::{DenseMatrix, PathSemiring};

/// A linear partitioned array with failed cells bypassed.
#[derive(Debug)]
pub struct FaultyLinearEngine {
    physical: usize,
    faulty: Vec<usize>,
    healthy: Vec<usize>,
    /// Pivot-link delays between consecutive healthy cells (1 + number of
    /// bypassed cells in between).
    delays: Vec<u64>,
    /// Transient-fault plan injected into the *healthy* cells (bypassed
    /// cells carry no tasks, so no fault can land there).
    plan: Option<FaultPlan>,
    /// Per-run reseed nonce (see `LinearEngine::nonce`).
    nonce: AtomicU64,
    /// Faults applied during the most recent run.
    last_faults: Mutex<Vec<FaultEvent>>,
    /// The reconfigured array: a persistent linear engine over the healthy
    /// cells with delayed pivot links, kept across runs so its compiled
    /// plans and cached simulator are reused by every retry.
    inner: LinearEngine,
}

impl Clone for FaultyLinearEngine {
    fn clone(&self) -> Self {
        Self {
            physical: self.physical,
            faulty: self.faulty.clone(),
            healthy: self.healthy.clone(),
            delays: self.delays.clone(),
            plan: self.plan.clone(),
            nonce: AtomicU64::new(self.nonce.load(Ordering::Relaxed)),
            last_faults: Mutex::new(Vec::new()),
            inner: self.inner.clone(),
        }
    }
}

impl FaultyLinearEngine {
    /// Creates the engine from a physical cell count and a fault set.
    ///
    /// # Errors
    /// Rejects out-of-range or duplicate fault indices and arrays with no
    /// healthy cell.
    pub fn new(physical: usize, faulty: &[usize]) -> Result<Self, EngineError> {
        let mut f: Vec<usize> = faulty.to_vec();
        f.sort_unstable();
        f.dedup();
        if f.len() != faulty.len() {
            return Err(EngineError::BadInput("duplicate fault index".into()));
        }
        if f.iter().any(|&c| c >= physical) {
            return Err(EngineError::BadInput(format!(
                "fault index out of range (physical = {physical})"
            )));
        }
        let healthy: Vec<usize> = (0..physical).filter(|c| !f.contains(c)).collect();
        if healthy.is_empty() {
            return Err(EngineError::BadInput("no healthy cells remain".into()));
        }
        let delays: Vec<u64> = healthy.windows(2).map(|w| (w[1] - w[0]) as u64).collect();
        let inner = LinearEngine::with_link_delays(healthy.len(), delays.clone());
        Ok(Self {
            physical,
            faulty: f,
            healthy,
            delays,
            plan: None,
            nonce: AtomicU64::new(0),
            last_faults: Mutex::new(Vec::new()),
            inner,
        })
    }

    /// Arms a transient-fault plan on the healthy cells of the degraded
    /// array (logical cell coordinates — see [`Self::physical_cell`]).
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.plan = Some(plan);
        self
    }

    /// Maps a logical (healthy-chain) cell index to its physical position
    /// in the original `m`-cell array.
    pub fn physical_cell(&self, logical: usize) -> Option<usize> {
        self.healthy.get(logical).copied()
    }

    /// Faults applied during the most recent run (logical coordinates).
    pub fn recent_fault_events(&self) -> Vec<FaultEvent> {
        self.last_faults.lock().expect("fault log poisoned").clone()
    }

    /// Healthy (working) cells.
    pub fn healthy_cells(&self) -> usize {
        self.healthy.len()
    }

    /// The fault set.
    pub fn faults(&self) -> &[usize] {
        &self.faulty
    }

    /// Pivot-link delays of the reconfigured chain (for inspection).
    pub fn link_delays(&self) -> &[u64] {
        &self.delays
    }
}

impl<S: PathSemiring> ClosureEngine<S> for FaultyLinearEngine {
    fn name(&self) -> &'static str {
        "linear-partitioned-degraded"
    }

    fn cells(&self) -> usize {
        self.healthy.len()
    }

    fn closure_many(
        &self,
        mats: &[DenseMatrix<S>],
    ) -> Result<(Vec<DenseMatrix<S>>, RunStats), EngineError> {
        // Run on the persistent reconfigured array. The double reseed
        // reproduces the historical chain exactly: a per-call reseed from
        // this engine's nonce, then the (fresh) inner engine's own nonce-0
        // reseed — so fault sequences are bit-identical to when the inner
        // engine was rebuilt per call, while plans and simulators persist.
        let armed = self.plan.as_ref().map(|p| {
            p.reseeded(self.nonce.fetch_add(1, Ordering::Relaxed))
                .reseeded(0)
        });
        let record = armed.is_some();
        let run = self.inner.closure_many_with_plan(mats, armed);
        if record {
            *self.last_faults.lock().expect("fault log poisoned") =
                self.inner.take_recent_fault_events();
        }
        run
    }
}

impl<S: PathSemiring> crate::recover::FaultAware<S> for FaultyLinearEngine {
    fn recent_faults(&self) -> Vec<FaultEvent> {
        self.recent_fault_events()
    }

    fn blame_cell(&self, event: &FaultEvent) -> Option<usize> {
        use systolic_arraysim::FaultKind;
        // Events carry logical (healthy-chain) coordinates; map back to
        // the physical array so escalation bypasses the right hardware.
        let logical = match event.kind {
            FaultKind::CorruptEmit { cell } | FaultKind::StickCell { cell, .. } => cell,
            FaultKind::DropWord { link } | FaultKind::DuplicateWord { link } => link,
            FaultKind::BankFlip { bank } => {
                if bank >= self.healthy.len() {
                    return None; // shared pivot bank
                }
                bank
            }
        };
        self.physical_cell(logical)
    }

    fn bypass_plan(&self, faulty: &[usize]) -> Option<FaultyLinearEngine> {
        let mut all = self.faulty.clone();
        all.extend_from_slice(faulty);
        all.sort_unstable();
        all.dedup();
        FaultyLinearEngine::new(self.physical, &all).ok()
    }
}

/// Usable computational capacity of a `side × side` mesh after `faults`
/// worst-case cell failures, under spare-row/column reconfiguration: each
/// fault retires one row and one column.
pub fn grid_fault_capacity(side: usize, faults: usize) -> f64 {
    if faults >= side {
        return 0.0;
    }
    let left = side - faults;
    (left * left) as f64 / (side * side) as f64
}

/// Usable capacity of a linear array after `faults` failures with bypass
/// reconfiguration.
pub fn linear_fault_capacity(m: usize, faults: usize) -> f64 {
    if faults >= m {
        return 0.0;
    }
    (m - faults) as f64 / m as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use systolic_semiring::{warshall, Bool};

    fn bool_adj(n: usize, edges: &[(usize, usize)]) -> DenseMatrix<Bool> {
        let mut a = DenseMatrix::<Bool>::zeros(n, n);
        for &(i, j) in edges {
            a.set(i, j, true);
        }
        a
    }

    #[test]
    fn degraded_array_still_computes_exact_closures() {
        let a = bool_adj(7, &[(0, 3), (3, 6), (6, 1), (1, 5), (5, 0), (2, 4)]);
        let want = warshall(&a);
        for faults in [vec![1], vec![0, 3], vec![2, 3, 4]] {
            let eng = FaultyLinearEngine::new(5, &faults).unwrap();
            let (got, stats) = ClosureEngine::<Bool>::closure(&eng, &a).unwrap();
            assert_eq!(got, want, "faults {faults:?}");
            assert_eq!(stats.cells, 5 - faults.len());
        }
    }

    #[test]
    fn bypass_delays_reflect_gap_sizes() {
        let eng = FaultyLinearEngine::new(6, &[2, 3]).unwrap();
        assert_eq!(eng.healthy_cells(), 4);
        // healthy = [0,1,4,5]: gaps 1, 3, 1.
        assert_eq!(eng.link_delays(), &[1, 3, 1]);
    }

    #[test]
    fn throughput_degrades_gracefully_not_catastrophically() {
        let a = bool_adj(12, &[(0, 11), (11, 5), (5, 9), (9, 2), (2, 7), (7, 0)]);
        let healthy = LinearEngine::new(4);
        let (_, h) = ClosureEngine::<Bool>::closure(&healthy, &a).unwrap();
        let degraded = FaultyLinearEngine::new(4, &[2]).unwrap();
        let (_, d) = ClosureEngine::<Bool>::closure(&degraded, &a).unwrap();
        let slowdown = d.cycles as f64 / h.cycles as f64;
        // Ideal slowdown is 4/3 ≈ 1.33; allow scheduling slack but insist
        // it is nowhere near losing the whole array.
        assert!((1.0..1.9).contains(&slowdown), "slowdown {slowdown}");
    }

    #[test]
    fn linear_beats_grid_capacity_under_faults() {
        // §5's argument quantified at equal cell budget m = 16.
        for f in 1..4 {
            let lin = linear_fault_capacity(16, f);
            let grid = grid_fault_capacity(4, f);
            assert!(lin > grid, "f={f}: linear {lin} vs grid {grid}");
        }
        assert_eq!(grid_fault_capacity(4, 4), 0.0);
        assert_eq!(linear_fault_capacity(16, 4), 0.75);
    }

    #[test]
    fn invalid_fault_sets_are_rejected() {
        assert!(FaultyLinearEngine::new(4, &[4]).is_err());
        assert!(FaultyLinearEngine::new(4, &[1, 1]).is_err());
        assert!(FaultyLinearEngine::new(2, &[0, 1]).is_err());
    }
}
