//! The common engine interface and shared task-construction helpers.

use systolic_arraysim::{RunStats, SimError};
use systolic_semiring::{reflexive, DenseMatrix, PathSemiring};

/// Engine failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EngineError {
    /// Underlying simulation failed (deadlock/timeout indicates a schedule
    /// or wiring bug — engines are expected to be deadlock-free).
    Sim(SimError),
    /// The input was rejected (shape, size constraints).
    BadInput(String),
    /// A result was detected as corrupt and could not be recovered —
    /// either the engine produced a malformed output (e.g. an incomplete
    /// column under fault injection) or a recovery wrapper exhausted its
    /// retry/bypass budget with the verifier still rejecting the result.
    Corrupt {
        /// Batch index of the corrupt instance.
        instance: usize,
        /// What was detected and what recovery was attempted.
        detail: String,
    },
    /// An admission queue refused the request because it is at capacity —
    /// transient overload, not a malformed request: the caller should shed
    /// load (answer `ERR BUSY`) and retry later rather than treat the
    /// input as bad.
    Busy {
        /// Requests already pending.
        pending: usize,
        /// The queue's capacity.
        cap: usize,
    },
}

impl From<SimError> for EngineError {
    fn from(e: SimError) -> Self {
        EngineError::Sim(e)
    }
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Sim(e) => write!(f, "simulation failed: {e}"),
            EngineError::BadInput(s) => write!(f, "bad input: {s}"),
            EngineError::Corrupt { instance, detail } => {
                write!(f, "corrupt result for instance {instance}: {detail}")
            }
            EngineError::Busy { pending, cap } => {
                write!(f, "BUSY admission queue at capacity ({pending}/{cap})")
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// An array engine computing algebraic path closures.
pub trait ClosureEngine<S: PathSemiring> {
    /// Engine name for reports.
    fn name(&self) -> &'static str;

    /// Number of processing cells in the array.
    fn cells(&self) -> usize;

    /// Computes `A⁺` (with reflexive diagonal) for a batch of equally-sized
    /// problem instances, chained through the array, returning the results
    /// and the measured run statistics.
    ///
    /// # Errors
    /// [`EngineError::BadInput`] on shape mismatch;
    /// [`EngineError::Sim`] if the simulation deadlocks or times out.
    fn closure_many(
        &self,
        mats: &[DenseMatrix<S>],
    ) -> Result<(Vec<DenseMatrix<S>>, RunStats), EngineError>;

    /// Convenience wrapper for a single instance.
    ///
    /// # Errors
    /// See [`ClosureEngine::closure_many`].
    fn closure(&self, a: &DenseMatrix<S>) -> Result<(DenseMatrix<S>, RunStats), EngineError> {
        let (mut v, stats) = self.closure_many(std::slice::from_ref(a))?;
        Ok((v.pop().expect("one instance in, one out"), stats))
    }

    /// Smallest batch slice this engine processes at full efficiency.
    ///
    /// Batch sharders (e.g. [`crate::ParallelEngine`]) hand out work in
    /// multiples of this: 1 for scalar engines (the default), one whole
    /// simulation's group for lane-packed engines, whose throughput
    /// collapses when a sharder feeds them one instance — one lane — at a
    /// time.
    fn preferred_chunk(&self) -> usize {
        1
    }
}

/// Largest batch the 16-bit instance field of [`stream_key`] can address.
pub(crate) const MAX_BATCH: usize = 1 << 16;

/// Largest problem size the 24-bit `k`/`h` fields of [`stream_key`] can
/// address (`h` ranges up to `2n` in the skewed schedules).
pub(crate) const MAX_N: usize = (1 << 23) - 1;

/// Validates a batch: non-empty, within the stream-key addressing limits,
/// all square and of the same size `n ≥ 2`. Returns `n`.
pub(crate) fn validate_batch<S: PathSemiring>(
    mats: &[DenseMatrix<S>],
) -> Result<usize, EngineError> {
    let Some(first) = mats.first() else {
        return Err(EngineError::BadInput("empty batch".into()));
    };
    if mats.len() > MAX_BATCH {
        return Err(EngineError::BadInput(format!(
            "batch of {} instances exceeds the {MAX_BATCH} the 16-bit \
             stream-key instance field can address",
            mats.len()
        )));
    }
    let n = first.rows();
    if n < 2 {
        return Err(EngineError::BadInput(format!(
            "problem size n={n} must be ≥ 2"
        )));
    }
    if n > MAX_N {
        return Err(EngineError::BadInput(format!(
            "problem size n={n} exceeds the {MAX_N} the 24-bit stream-key \
             coordinate fields can address"
        )));
    }
    for (idx, a) in mats.iter().enumerate() {
        if !a.is_square() || a.rows() != n {
            return Err(EngineError::BadInput(format!(
                "instance {idx} is {}x{}, expected {n}x{n}",
                a.rows(),
                a.cols()
            )));
        }
    }
    Ok(n)
}

/// Validates a batch and returns `n` plus the reflexive copies the arrays
/// consume (the paper's `a_ii = 1` convention).
pub(crate) fn prepare_batch<S: PathSemiring>(
    mats: &[DenseMatrix<S>],
) -> Result<(usize, Vec<DenseMatrix<S>>), EngineError> {
    let n = validate_batch(mats)?;
    Ok((n, mats.iter().map(reflexive).collect()))
}

/// Ideal cycle count per problem instance on `m` cells: `n²(n+1)/m`.
///
/// The schedule executes `n(n+1)` G-nodes of `n` cycles each, spread over
/// `m` cells with data transfer overlapped with computation, so the ideal
/// (zero-stall, perfectly balanced) runtime is `n²(n+1)/m` cycles — the
/// reciprocal of the paper's §4 throughput `T = m/(n²(n+1))`. Engines
/// derive their cycle budgets from this one formula: the linear and grid
/// engines add 1 for the pipeline-fill rounding slack, and the fixed linear
/// array is the `m = 1` (per-column) case.
#[inline]
pub(crate) fn ideal_cycles_per_instance(n: usize, m: usize) -> u64 {
    (n as u64) * (n as u64) * (n as u64 + 1) / m as u64
}

/// Packs `(instance, k, h)` into a unique stream key.
///
/// The field widths are enforced by [`validate_batch`] before any engine
/// builds tasks, so in-range arguments are an invariant here, not a hope.
#[inline]
pub(crate) fn stream_key(inst: usize, k: usize, h: usize) -> u64 {
    debug_assert!(
        inst < MAX_BATCH && k < (1 << 24) && h < (1 << 24),
        "stream_key out of range: inst={inst} k={k} h={h}"
    );
    ((inst as u64) << 48) | ((k as u64) << 24) | h as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use systolic_semiring::Bool;

    #[test]
    fn prepare_batch_rejects_empty_and_small() {
        let err = prepare_batch::<Bool>(&[]).unwrap_err();
        assert!(matches!(err, EngineError::BadInput(_)));
        let a = DenseMatrix::<Bool>::zeros(1, 1);
        assert!(prepare_batch::<Bool>(&[a]).is_err());
    }

    #[test]
    fn prepare_batch_rejects_mixed_sizes() {
        let a = DenseMatrix::<Bool>::zeros(3, 3);
        let b = DenseMatrix::<Bool>::zeros(4, 4);
        let err = prepare_batch::<Bool>(&[a, b]).unwrap_err();
        assert!(matches!(err, EngineError::BadInput(_)));
    }

    #[test]
    fn prepare_batch_makes_reflexive() {
        let a = DenseMatrix::<Bool>::zeros(3, 3);
        let (n, v) = prepare_batch::<Bool>(&[a]).unwrap();
        assert_eq!(n, 3);
        assert!(*v[0].get(1, 1));
    }

    #[test]
    fn oversized_batch_is_rejected_at_the_boundary() {
        let a = DenseMatrix::<Bool>::zeros(2, 2);
        let at_limit: Vec<_> = vec![a.clone(); MAX_BATCH];
        assert!(validate_batch::<Bool>(&at_limit).is_ok());
        let over: Vec<_> = vec![a; MAX_BATCH + 1];
        match validate_batch::<Bool>(&over) {
            Err(EngineError::BadInput(msg)) => assert!(msg.contains("16-bit"), "{msg}"),
            other => panic!("expected BadInput, got {other:?}"),
        }
    }

    #[test]
    fn ideal_cycles_is_n_squared_n_plus_one_over_m() {
        // Pin the budget formula: n²(n+1)/m, integer division.
        assert_eq!(ideal_cycles_per_instance(6, 3), 36 * 7 / 3);
        assert_eq!(ideal_cycles_per_instance(6, 3), 84);
        assert_eq!(ideal_cycles_per_instance(4, 1), 16 * 5);
        assert_eq!(ideal_cycles_per_instance(5, 4), 25 * 6 / 4);
        assert_eq!(ideal_cycles_per_instance(5, 4), 37, "rounds down");
    }

    #[test]
    fn stream_keys_unique() {
        let mut seen = std::collections::HashSet::new();
        for inst in 0..3 {
            for k in 0..9 {
                for h in 0..19 {
                    assert!(seen.insert(stream_key(inst, k, h)));
                }
            }
        }
    }
}
