//! Elimination-algorithm pipelines (§4.3): LU decomposition and the
//! Faddeev algorithm executed by the *same* partitioned-array engines that
//! run transitive closure.
//!
//! The closure engines map the uniform Fig. 17 parallelogram; here the
//! G-graph is a [`GenericGGraph`] elimination trapezoid whose rows shrink
//! (`len = msize - k`), so G-node computation times *vary* across rows
//! while staying uniform within a row — exactly the §4.3 situation. Any
//! engine whose mapping is a [`GraphMapping`] runs it, with the mapping's
//! own G-set assignment compiled over the trapezoid:
//!
//! * [`LinearEngine`](crate::LinearEngine) — LPGS onto `m` chained cells:
//!   cell `c` owns skewed positions `h ≡ c (mod m)`; every G-set is a
//!   slice of *one* row, so members share a computation time and no cell
//!   idles inside a set (Fig. 22b's equal-time paths).
//! * [`GridEngine`](crate::GridEngine) — cut-and-pile onto `√m × √m`
//!   cells: a G-set is an `s × s` block of `(k, h)` space mixing `s`
//!   different row times, so fast members idle until the slowest finishes
//!   — the *time mixing* that §4.3 charges against two-dimensional G-sets.
//!
//! Cells run [`DivHead`](systolic_arraysim::TaskKind::DivHead) /
//! [`ElimFuse`](systolic_arraysim::TaskKind::ElimFuse) programs over the
//! [`Real`] semiring; each fuse's finished pivot-row element leaves
//! through the task's dedicated `head_out` stream, each level's pivot
//! stream (the `L` column) drains at the row's right edge, and the last
//! level's fused sub-columns are the remaining trailing block. The run goes
//! through the engine's one runner — the plan cache, recycled simulator,
//! fault arming and output-layout unload that closure batches use — which
//! reassembles those streams into the full in-place elimination state: for
//! LU the compact `L\U` factors, bit-identical to the straight-line
//! reference (identical expression trees, same f64 operations in the same
//! order). This module keeps what is elimination's own: the input checks
//! and the numerics contract.

use crate::engine::EngineError;
use crate::mapping::{GraphMapping, MappedEngine};
use systolic_arraysim::RunStats;
use systolic_semiring::{DenseMatrix, Real};
use systolic_transform::GenericGGraph;

/// Which elimination algorithm to pipeline.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Algo {
    /// LU decomposition without pivoting of an `n × n` matrix
    /// (`n - 1` elimination levels).
    Lu,
    /// The Faddeev algorithm: eliminate the first `n` columns of the
    /// `2n × 2n` compound matrix `[[A, B], [-C, D]]`, leaving the Schur
    /// complement `D + C·A⁻¹·B` in the lower-right block.
    Faddeev,
}

impl Algo {
    /// Algorithm name for reports and CLI output.
    pub fn name(self) -> &'static str {
        match self {
            Algo::Lu => "lu",
            Algo::Faddeev => "faddeev",
        }
    }

    /// Side length of the matrix the pipeline consumes for problem size
    /// `n` (`n` for LU, `2n` for Faddeev's compound matrix).
    pub fn msize(self, n: usize) -> usize {
        match self {
            Algo::Lu => n,
            Algo::Faddeev => 2 * n,
        }
    }

    /// Number of elimination levels for problem size `n`.
    pub fn levels(self, n: usize) -> usize {
        match self {
            Algo::Lu => n - 1,
            Algo::Faddeev => n,
        }
    }

    /// The algorithm's generic G-graph for problem size `n`.
    pub fn graph(self, n: usize) -> GenericGGraph {
        match self {
            Algo::Lu => GenericGGraph::lu(n),
            Algo::Faddeev => GenericGGraph::faddeev(n),
        }
    }
}

/// Deterministic diagonally-dominant `msize × msize` input matrix —
/// numerically stable under elimination without pivoting, shared by the
/// CLI, the benchmarks and the tests so runs are reproducible.
pub fn elimination_input(msize: usize, seed: u64) -> DenseMatrix<Real> {
    DenseMatrix::<Real>::from_fn(msize, msize, |i, j| {
        let h = seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add((i * 131 + j * 17) as u64);
        let frac = (h % 1000) as f64 / 1000.0;
        if i == j {
            (msize as f64) + 1.0 + frac
        } else {
            frac - 0.5
        }
    })
}

/// The §4.3 per-level durations: level `k` still works on an
/// `(msize-k) × (msize-k)` trailing submatrix, so its per-word duration is
/// `msize - k` — monotone decreasing, uniform within a row.
pub fn level_durations(algo: Algo, n: usize) -> Vec<u32> {
    let msize = algo.msize(n);
    (0..algo.levels(n)).map(|k| (msize - k) as u32).collect()
}

/// Runs one elimination instance on `engine` — a [`crate::LinearEngine`]
/// or a [`crate::GridEngine`] — and reassembles the full in-place
/// elimination state (`msize × msize`).
///
/// For [`Algo::Lu`] the result is the compact `L\U` factor matrix; for
/// [`Algo::Faddeev`] it is the compound matrix after `n` levels, whose
/// lower-right `n × n` block is the Schur complement. Both match the
/// straight-line `systolic_dgraph::eval_elimination_graph` reference
/// bit-for-bit.
///
/// Elimination runs without pivoting, so its numerics contract is a
/// refusal, not a growth bound: a non-finite input entry is rejected
/// before the run, and a result in which some level met a zero pivot or
/// produced a non-finite value is never returned.
///
/// # Errors
/// [`EngineError::BadInput`] for shape/geometry problems, for a non-finite
/// input entry (naming its `(i, j)`) and for the first level whose pivot is
/// `0.0` or that produced an inf/NaN (naming the level); simulator errors
/// (deadlock, runaway) forwarded, [`EngineError::Corrupt`] when an output
/// stream drained with the wrong word count.
pub fn run_elimination<M: GraphMapping>(
    engine: &MappedEngine<M>,
    algo: Algo,
    a: &DenseMatrix<Real>,
) -> Result<(DenseMatrix<Real>, RunStats), EngineError> {
    eliminate(engine, algo, a, None)
}

/// [`run_elimination`] with varying per-row G-node durations (§4.3):
/// `durs[k]` cycles per word on row `k`. The result matrix is bit-identical
/// to the uniform-duration run; only [`RunStats`] (cycles, occupancy)
/// change — this is the measurement knob behind experiment E30.
///
/// # Errors
/// As [`run_elimination`], plus [`EngineError::BadInput`] when `durs` does
/// not provide exactly one duration ≥ 1 per elimination level.
pub fn run_elimination_timed<M: GraphMapping>(
    engine: &MappedEngine<M>,
    algo: Algo,
    a: &DenseMatrix<Real>,
    durs: &[u32],
) -> Result<(DenseMatrix<Real>, RunStats), EngineError> {
    eliminate(engine, algo, a, Some(durs))
}

/// The input checks, the engine's runner over the algorithm's G-graph,
/// and the numerics contract on the result.
fn eliminate<M: GraphMapping>(
    engine: &MappedEngine<M>,
    algo: Algo,
    a: &DenseMatrix<Real>,
    durs: Option<&[u32]>,
) -> Result<(DenseMatrix<Real>, RunStats), EngineError> {
    let msize = a.rows();
    if a.cols() != msize {
        return Err(EngineError::BadInput(format!(
            "elimination input must be square, got {}×{}",
            a.rows(),
            a.cols()
        )));
    }
    let n = match algo {
        Algo::Lu => msize,
        Algo::Faddeev => {
            if !msize.is_multiple_of(2) {
                return Err(EngineError::BadInput(format!(
                    "Faddeev consumes a 2n×2n compound matrix, got {msize}×{msize}"
                )));
            }
            msize / 2
        }
    };
    if algo.msize(n) < 2 || algo.levels(n) < 1 {
        return Err(EngineError::BadInput(format!(
            "{} needs a problem size of at least 2",
            algo.name()
        )));
    }

    if let Some(p) = a.as_slice().iter().position(|x| !x.is_finite()) {
        let (i, j) = (p / msize, p % msize);
        return Err(EngineError::BadInput(format!(
            "{} input entry ({i}, {j}) is {}",
            algo.name(),
            a.get(i, j)
        )));
    }

    let gg = match durs {
        None => algo.graph(n),
        Some(d) => {
            if d.len() != algo.levels(n) || d.iter().any(|&x| x < 1) {
                return Err(EngineError::BadInput(format!(
                    "need {} per-level durations ≥ 1, got {:?}",
                    algo.levels(n),
                    d
                )));
            }
            algo.graph(n).with_row_durations(d)
        }
    };
    let (f, stats) = engine.run_graph(&gg, a)?;

    let levels = algo.levels(n);
    // Entry (i, j) is last written by level min(i - 1, j): the division
    // that makes it an `L` entry, or the update that finishes its row. The
    // first such level holding an inf/NaN met a zero pivot or overflowed.
    let first_bad = f
        .as_slice()
        .iter()
        .enumerate()
        .filter(|(_, x)| !x.is_finite())
        .map(|(p, _)| {
            let (i, j) = (p / msize, p % msize);
            (i.saturating_sub(1).min(j).min(levels - 1), i, j)
        })
        .min();
    if let Some((k, i, j)) = first_bad {
        return Err(EngineError::BadInput(if *f.get(k, k) == 0.0 {
            format!("{} level {k} has a zero pivot (no pivoting)", algo.name())
        } else {
            format!(
                "{} level {k} produced a non-finite value at ({i}, {j})",
                algo.name()
            )
        }));
    }
    Ok((f, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GridEngine, LinearEngine};

    fn test_matrix(msize: usize, seed: u64) -> DenseMatrix<Real> {
        elimination_input(msize, seed)
    }

    /// Straight-line in-place elimination: the bit-exact reference.
    fn elimination_reference(a: &DenseMatrix<Real>, levels: usize) -> DenseMatrix<Real> {
        let n = a.rows();
        let mut x = a.clone();
        for k in 0..levels {
            for i in k + 1..n {
                let l = x.get(i, k) / x.get(k, k);
                x.set(i, k, l);
            }
            for i in k + 1..n {
                for j in k + 1..n {
                    let v = x.get(i, j) - x.get(i, k) * x.get(k, j);
                    x.set(i, j, v);
                }
            }
        }
        x
    }

    fn assert_bit_equal(got: &DenseMatrix<Real>, want: &DenseMatrix<Real>, tag: &str) {
        let n = got.rows();
        for i in 0..n {
            for j in 0..n {
                assert_eq!(got.get(i, j), want.get(i, j), "{tag} ({i},{j})");
            }
        }
    }

    #[test]
    fn lu_linear_matches_reference_across_cell_counts() {
        for n in [2usize, 3, 5, 8] {
            let a = test_matrix(n, n as u64);
            let want = elimination_reference(&a, n - 1);
            for m in [1usize, 2, 3, 4, 7] {
                let (got, stats) = run_elimination(&LinearEngine::new(m), Algo::Lu, &a).unwrap();
                assert_bit_equal(&got, &want, &format!("n={n} m={m}"));
                assert_eq!(stats.memory_connections, m + 1);
            }
        }
    }

    #[test]
    fn lu_grid_matches_reference_across_sides() {
        for n in [3usize, 5, 8] {
            let a = test_matrix(n, 40 + n as u64);
            let want = elimination_reference(&a, n - 1);
            for s in [1usize, 2, 3] {
                let (got, stats) = run_elimination(&GridEngine::new(s), Algo::Lu, &a).unwrap();
                assert_bit_equal(&got, &want, &format!("n={n} s={s}"));
                assert_eq!(stats.memory_connections, 2 * s);
            }
        }
    }

    #[test]
    fn faddeev_matches_reference_on_both_mappings() {
        let n = 3;
        let a = test_matrix(2 * n, 7);
        let want = elimination_reference(&a, n);
        for (tag, run) in [
            (
                "lpgs m=2",
                run_elimination(&LinearEngine::new(2), Algo::Faddeev, &a),
            ),
            (
                "lpgs m=4",
                run_elimination(&LinearEngine::new(4), Algo::Faddeev, &a),
            ),
            (
                "grid s=2",
                run_elimination(&GridEngine::new(2), Algo::Faddeev, &a),
            ),
        ] {
            assert_bit_equal(&run.unwrap().0, &want, tag);
        }
    }

    #[test]
    fn useful_ops_match_the_generic_graph() {
        let n = 6;
        let a = test_matrix(n, 3);
        let (_, stats) = run_elimination(&LinearEngine::new(3), Algo::Lu, &a).unwrap();
        assert_eq!(stats.useful_ops, GenericGGraph::lu(n).total_useful_ops());
    }

    fn lu_durations(n: usize) -> Vec<u32> {
        level_durations(Algo::Lu, n)
    }

    #[test]
    fn varying_durations_never_change_the_result() {
        let n = 7;
        let a = test_matrix(n, 9);
        let (want, uniform) = run_elimination(&LinearEngine::new(3), Algo::Lu, &a).unwrap();
        let durs = lu_durations(n);
        for (tag, run) in [
            (
                "lpgs m=3",
                run_elimination_timed(&LinearEngine::new(3), Algo::Lu, &a, &durs),
            ),
            (
                "grid s=2",
                run_elimination_timed(&GridEngine::new(2), Algo::Lu, &a, &durs),
            ),
        ] {
            let (got, timed) = run.unwrap();
            assert_bit_equal(&got, &want, &format!("{tag} timed"));
            assert!(timed.cycles > uniform.cycles, "durations must cost cycles");
        }
    }

    #[test]
    fn linear_beats_grid_occupancy_under_varying_times() {
        // §4.3: with monotone per-row durations, linear G-sets never mix
        // times (one row per set) while an s×s block chains a fast row
        // behind a slow one, throttling it to the slow row's word rate.
        // At equal cell counts (m = s² = 4) measured occupancy must favor
        // the linear chain.
        let n = 12;
        let a = test_matrix(n, 5);
        let durs = lu_durations(n);
        let (_, lin) = run_elimination_timed(&LinearEngine::new(4), Algo::Lu, &a, &durs).unwrap();
        let (_, grid) = run_elimination_timed(&GridEngine::new(2), Algo::Lu, &a, &durs).unwrap();
        assert!(
            lin.occupancy() >= grid.occupancy(),
            "linear {} < grid {}",
            lin.occupancy(),
            grid.occupancy()
        );
    }

    type Eliminated = Result<(DenseMatrix<Real>, RunStats), EngineError>;
    type Run = fn(Algo, &DenseMatrix<Real>) -> Eliminated;

    fn on_chain(algo: Algo, a: &DenseMatrix<Real>) -> Eliminated {
        run_elimination(&LinearEngine::new(2), algo, a)
    }

    fn on_grid(algo: Algo, a: &DenseMatrix<Real>) -> Eliminated {
        run_elimination(&GridEngine::new(2), algo, a)
    }

    /// The numerics contract's cases: both algorithms on a 4×4 input (LU
    /// at n = 4, Faddeev at n = 2), each on a two-cell chain and a 2×2
    /// grid.
    const NUMERICS: [(Algo, usize, &str, Run); 4] = [
        (Algo::Lu, 4, "lpgs m=2", on_chain),
        (Algo::Lu, 4, "grid s=2", on_grid),
        (Algo::Faddeev, 2, "lpgs m=2", on_chain),
        (Algo::Faddeev, 2, "grid s=2", on_grid),
    ];

    fn refusal(algo: Algo, engine: &str, run: Run, a: &DenseMatrix<Real>) -> String {
        match run(algo, a) {
            Err(EngineError::BadInput(msg)) => msg,
            other => panic!("{algo:?} on {engine}: expected BadInput, got {other:?}"),
        }
    }

    #[test]
    fn a_zero_pivot_at_level_zero_is_refused() {
        let mut a = test_matrix(4, 2);
        a.set(0, 0, 0.0);
        for (algo, _, engine, run) in NUMERICS {
            let msg = refusal(algo, engine, run, &a);
            assert!(msg.contains("level 0 has a zero pivot"), "{msg}");
        }
    }

    #[test]
    fn a_pivot_that_cancels_to_zero_is_refused_at_its_level() {
        // Level 0 subtracts row 0 from row 1 exactly: a[1][1] = 2 - 1·2 = 0.
        let rows = [
            [1.0, 2.0, 3.0, 4.0],
            [1.0, 2.0, 5.0, 1.0],
            [2.0, 1.0, 1.0, 3.0],
            [3.0, 1.0, 2.0, 1.0],
        ];
        let a = DenseMatrix::<Real>::from_fn(4, 4, |i, j| rows[i][j]);
        for (algo, _, engine, run) in NUMERICS {
            let msg = refusal(algo, engine, run, &a);
            assert!(msg.contains("level 1 has a zero pivot"), "{msg}");
        }
    }

    #[test]
    fn a_non_finite_input_entry_is_refused_by_position() {
        for bad in [f64::NAN, f64::NEG_INFINITY] {
            let mut a = test_matrix(4, 3);
            a.set(2, 1, bad);
            for (algo, _, engine, run) in NUMERICS {
                let msg = refusal(algo, engine, run, &a);
                assert!(msg.contains("input entry (2, 1)"), "{msg}");
            }
        }
    }

    #[test]
    fn an_overflow_is_refused_at_the_level_that_produced_it() {
        let mut a = test_matrix(4, 5);
        a.set(0, 0, 1e-300);
        a.set(1, 0, 1e300); // l = 1e600 overflows at level 0
        for (algo, _, engine, run) in NUMERICS {
            let msg = refusal(algo, engine, run, &a);
            assert!(
                msg.contains("level 0 produced a non-finite value at (1, 0)"),
                "{msg}"
            );
        }
    }

    #[test]
    fn near_singular_finite_input_stays_bit_exact() {
        let mut a = test_matrix(4, 4);
        a.set(0, 0, 1e-9);
        for (algo, n, engine, run) in NUMERICS {
            let (got, _) = run(algo, &a).unwrap();
            let want = elimination_reference(&a, algo.levels(n));
            assert_bit_equal(&got, &want, &format!("{algo:?} {engine}"));
            assert!(
                got.as_slice().iter().any(|x| x.abs() > 1e8),
                "a 1e-9 pivot grows the factors"
            );
        }
    }

    #[test]
    fn bad_inputs_are_rejected() {
        let a = test_matrix(5, 1); // odd size: no Faddeev compound
        assert!(matches!(
            run_elimination(&LinearEngine::new(2), Algo::Faddeev, &a),
            Err(EngineError::BadInput(_))
        ));
        assert!(matches!(
            run_elimination(&LinearEngine::new(0), Algo::Lu, &a),
            Err(EngineError::BadInput(_))
        ));
        let tiny = test_matrix(1, 1);
        assert!(matches!(
            run_elimination(&LinearEngine::new(1), Algo::Lu, &tiny),
            Err(EngineError::BadInput(_))
        ));
    }
}
