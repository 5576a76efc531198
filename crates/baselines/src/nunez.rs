//! The Núñez–Torralba decomposition baseline \[22\].
//!
//! Their partitioning transforms transitive closure into a *block*
//! algorithm: for each diagonal block, (1) close the block, (2) propagate
//! through the block's row and column panels, (3) rank-update the rest —
//! every step a sequence of `b × b` matrix multiplications executed on a
//! `b × b` array. The decomposition is algorithm-specific (the paper's
//! point: such schemes "depend on the algorithm and consequently might be
//! different from one algorithm to another") and the chaining needs host
//! control between every sub-problem.

use systolic_partition::EngineError;
use systolic_semiring::{matmul, matmul_acc, warshall_inplace, DenseMatrix, PathSemiring};

/// Functional blocked transitive closure with tile size `b`: the \[22\]
/// decomposition of [`NunezEngine`], returning the closure without its
/// cost accounting.
///
/// # Panics
/// Panics on a zero tile size; use [`NunezEngine::closure`] to handle
/// that as an error.
pub fn nunez_closure<S: PathSemiring>(a: &DenseMatrix<S>, b: usize) -> DenseMatrix<S> {
    NunezEngine::new(b).closure(a).expect("valid tile size").0
}

/// Cost/control accounting of one blocked run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NunezCost {
    /// Tile side `b` (the array is `b × b`).
    pub tile: usize,
    /// Diagonal-block closures executed.
    pub diagonal_closures: usize,
    /// `b × b` matrix-multiply sub-problems executed.
    pub multiplies: usize,
    /// Host control steps: one per sub-problem chained onto the array
    /// (reconfigure sources/destinations between sub-problems).
    pub control_steps: usize,
    /// Words moved between host memory and the array: every sub-problem
    /// loads its operand tiles and unloads its result tile.
    pub load_store_words: u64,
    /// Cycles spent in compute phases (systolic `b × b` matmul pipe:
    /// `3b - 2` fill + `b` drain per sub-problem at one result column per
    /// cycle ≈ `4b` cycles each; diagonal closures take `b` passes).
    pub compute_cycles: u64,
    /// Cycles spent in non-overlapped load/unload phases (the partitioning
    /// overhead `d_i` of §4.1 — zero for cut-and-pile, nonzero here).
    pub transfer_cycles: u64,
}

impl NunezCost {
    /// Total cycles.
    pub fn total_cycles(&self) -> u64 {
        self.compute_cycles + self.transfer_cycles
    }

    /// Fraction of time lost to non-overlapped transfers.
    pub fn overhead_fraction(&self) -> f64 {
        if self.total_cycles() == 0 {
            0.0
        } else {
            self.transfer_cycles as f64 / self.total_cycles() as f64
        }
    }
}

/// Blocked-closure engine with sub-problem accounting.
#[derive(Clone, Debug)]
pub struct NunezEngine {
    b: usize,
}

impl NunezEngine {
    /// Creates an engine for a `b × b` array. A zero tile is
    /// representable but rejected by [`NunezEngine::closure`] with
    /// [`EngineError::BadInput`].
    pub fn new(b: usize) -> Self {
        Self { b }
    }

    /// Computes `A⁺` and the cost account.
    ///
    /// # Errors
    /// [`EngineError::BadInput`] on a zero tile size or a non-square
    /// input.
    pub fn closure<S: PathSemiring>(
        &self,
        a: &DenseMatrix<S>,
    ) -> Result<(DenseMatrix<S>, NunezCost), EngineError> {
        if self.b == 0 {
            return Err(EngineError::BadInput(
                "blocked closure needs a positive tile size (b ≥ 1)".into(),
            ));
        }
        if !a.is_square() {
            return Err(EngineError::BadInput(format!(
                "blocked closure input must be square, got {}x{}",
                a.rows(),
                a.cols()
            )));
        }
        let n = a.rows();
        let b = self.b;
        let mut x = systolic_semiring::reflexive(a);
        let tiles = n.div_ceil(b);
        let span = |t: usize| -> (usize, usize) {
            let lo = t * b;
            (lo, (lo + b).min(n) - lo)
        };
        let mut cost = NunezCost {
            tile: b,
            ..Default::default()
        };
        // Phase accounting per sub-problem: the [22] array loads operands,
        // computes, unloads — transfers do not overlap compute.
        let bb = b as u64;
        let mul_compute = 4 * bb; // pipe fill + drain of a b×b systolic matmul
        let mul_transfer = 3 * bb * bb / (2 * bb).max(1); // 3 tiles over 2b ports
        let mac = |cost: &mut NunezCost| {
            cost.multiplies += 1;
            cost.control_steps += 1;
            cost.load_store_words += 3 * bb * bb;
            cost.compute_cycles += mul_compute;
            cost.transfer_cycles += mul_transfer;
        };
        for t in 0..tiles {
            let (k0, kb) = span(t);
            let mut diag = x.block(k0, k0, kb, kb);
            warshall_inplace(&mut diag);
            x.set_block(k0, k0, &diag);
            cost.diagonal_closures += 1;
            cost.control_steps += 1;
            cost.load_store_words += 2 * bb * bb;
            cost.compute_cycles += bb * bb; // b passes of b cycles
            cost.transfer_cycles += bb * bb / (2 * bb).max(1) * 2;
            for u in 0..tiles {
                if u == t {
                    continue;
                }
                let (c0, cb) = span(u);
                let panel = x.block(k0, c0, kb, cb);
                let prod = matmul(&diag, &panel);
                x.set_block(k0, c0, &panel.ewise_add(&prod));
                mac(&mut cost);
                let cpanel = x.block(c0, k0, cb, kb);
                let cprod = matmul(&cpanel, &diag);
                x.set_block(c0, k0, &cpanel.ewise_add(&cprod));
                mac(&mut cost);
            }
            for u in 0..tiles {
                if u == t {
                    continue;
                }
                let (r0, rb) = span(u);
                let left = x.block(r0, k0, rb, kb);
                for v in 0..tiles {
                    if v == t {
                        continue;
                    }
                    let (c0, cb) = span(v);
                    let top = x.block(k0, c0, kb, cb);
                    let mut tgt = x.block(r0, c0, rb, cb);
                    matmul_acc(&mut tgt, &left, &top);
                    x.set_block(r0, c0, &tgt);
                    mac(&mut cost);
                }
            }
        }
        Ok((x, cost))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use systolic_semiring::{warshall, Bool, MinPlus};

    fn bool_adj(n: usize, edges: &[(usize, usize)]) -> DenseMatrix<Bool> {
        let mut a = DenseMatrix::<Bool>::zeros(n, n);
        for &(i, j) in edges {
            a.set(i, j, true);
        }
        a
    }

    #[test]
    fn blocked_closure_is_correct_for_many_tiles() {
        let a = bool_adj(9, &[(0, 4), (4, 8), (8, 2), (2, 6), (6, 0), (1, 5), (5, 3)]);
        let want = warshall(&a);
        for b in [1usize, 2, 3, 4, 5, 9, 12] {
            assert_eq!(nunez_closure(&a, b), want, "tile {b}");
        }
    }

    #[test]
    fn blocked_closure_minplus() {
        let n = 6;
        let mut a = DenseMatrix::<MinPlus>::zeros(n, n);
        for (i, j, w) in [
            (0, 1, 1u64),
            (1, 2, 1),
            (2, 3, 1),
            (3, 4, 1),
            (4, 5, 1),
            (0, 5, 9),
        ] {
            a.set(i, j, w);
        }
        let (got, _) = NunezEngine::new(2).closure(&a).unwrap();
        assert_eq!(got, warshall(&a));
        assert_eq!(*got.get(0, 5), 5);
    }

    #[test]
    fn subproblem_counts_match_the_decomposition() {
        // tiles = t: per diagonal step, 2(t-1) panel products + (t-1)² rank
        // updates + 1 closure.
        let n = 12;
        let b = 4;
        let t = n / b;
        let a = bool_adj(n, &[(0, 11), (11, 5)]);
        let (_, cost) = NunezEngine::new(b).closure(&a).unwrap();
        assert_eq!(cost.diagonal_closures, t);
        assert_eq!(cost.multiplies, t * (2 * (t - 1) + (t - 1) * (t - 1)));
        assert_eq!(cost.control_steps, cost.diagonal_closures + cost.multiplies);
    }

    #[test]
    fn zero_tile_is_an_error_not_a_panic() {
        let a = bool_adj(4, &[(0, 1)]);
        match NunezEngine::new(0).closure(&a) {
            Err(EngineError::BadInput(msg)) => assert!(msg.contains("tile"), "{msg}"),
            other => panic!("expected BadInput, got {other:?}"),
        }
    }

    #[test]
    fn decomposition_has_nonzero_overhead_unlike_cut_and_pile() {
        let a = bool_adj(16, &[(0, 15), (15, 7), (7, 3)]);
        let (_, cost) = NunezEngine::new(4).closure(&a).unwrap();
        assert!(cost.transfer_cycles > 0);
        assert!(cost.overhead_fraction() > 0.1, "{cost:?}");
        assert!(cost.load_store_words > 0);
    }
}
