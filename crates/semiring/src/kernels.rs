//! Reference kernels: the ground truth every simulated array is checked
//! against.
//!
//! * [`warshall`] / [`warshall_inplace`] — the scalar recurrence of §3.1,
//!   literally the paper's triple loop.
//! * [`closure_by_squaring`] — `(I ⊕ A)^(2^⌈log₂ n⌉)` by repeated squaring.
//!   It stays beside [`warshall`] because it is algebraically independent
//!   of it: it shares no pivot order or in-place update, so the tests that
//!   check [`warshall`] against it cannot share a bug with it.
//! * [`matmul`] / [`matmul_acc`] — semiring matrix product, used by the
//!   squaring check and by the Núñez–Torralba blocked baseline in
//!   `systolic-baselines`.

use crate::matrix::DenseMatrix;
use crate::traits::{PathSemiring, Semiring};

/// Reflexive closure: returns `A` with the diagonal raised to at least `1`.
///
/// The paper's adjacency matrix convention has `a_ii = 1` ("a node is always
/// adjacent to itself"); all closure kernels assume this.
pub fn reflexive<S: Semiring>(a: &DenseMatrix<S>) -> DenseMatrix<S> {
    assert!(a.is_square());
    let mut m = a.clone();
    m.reflexive_closure();
    m
}

/// Warshall's algorithm (the paper's recurrence, §3.1):
///
/// ```text
/// for k in 1..=n { for i in 1..=n { for j in 1..=n {
///     x[i][j] ← x[i][j] ⊕ (x[i][k] ⊗ x[k][j])
/// }}}
/// ```
///
/// Returns `A⁺` (with reflexive diagonal). Valid for any [`PathSemiring`].
pub fn warshall<S: PathSemiring>(a: &DenseMatrix<S>) -> DenseMatrix<S> {
    let mut x = reflexive(a);
    warshall_inplace(&mut x);
    x
}

/// In-place Warshall on an already reflexive matrix.
///
/// In-place is correct because at level `k`, row `k` and column `k` are fixed
/// points of the update (the paper's "superfluous nodes" argument, Fig. 11).
pub fn warshall_inplace<S: PathSemiring>(x: &mut DenseMatrix<S>) {
    assert!(x.is_square());
    let n = x.rows();
    for k in 0..n {
        for i in 0..n {
            let xik = x.get(i, k).clone();
            if S::is_zero(&xik) {
                continue; // x[i][j] ⊕ (0̸ ⊗ _) = x[i][j]
            }
            for j in 0..n {
                let v = S::fuse(x.get(i, j), &xik, x.get(k, j));
                x.set(i, j, v);
            }
        }
    }
}

/// Semiring matrix product `C = A ⊗ B`.
///
/// # Panics
/// Panics on incompatible shapes.
pub fn matmul<S: Semiring>(a: &DenseMatrix<S>, b: &DenseMatrix<S>) -> DenseMatrix<S> {
    assert_eq!(a.cols(), b.rows(), "inner dimensions must agree");
    let mut c = DenseMatrix::<S>::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for k in 0..a.cols() {
            let aik = a.get(i, k).clone();
            if S::is_zero(&aik) {
                continue;
            }
            for j in 0..b.cols() {
                let v = S::fuse(c.get(i, j), &aik, b.get(k, j));
                c.set(i, j, v);
            }
        }
    }
    c
}

/// `C ← C ⊕ (A ⊗ B)` — multiply-accumulate, the unit of the blocked
/// algorithms.
pub fn matmul_acc<S: Semiring>(c: &mut DenseMatrix<S>, a: &DenseMatrix<S>, b: &DenseMatrix<S>) {
    assert_eq!(a.cols(), b.rows());
    assert_eq!(c.rows(), a.rows());
    assert_eq!(c.cols(), b.cols());
    for i in 0..a.rows() {
        for k in 0..a.cols() {
            let aik = a.get(i, k).clone();
            if S::is_zero(&aik) {
                continue;
            }
            for j in 0..b.cols() {
                let v = S::fuse(c.get(i, j), &aik, b.get(k, j));
                c.set(i, j, v);
            }
        }
    }
}

/// Algebraic path closure by repeated squaring of `(I ⊕ A)`.
///
/// After `⌈log₂ n⌉` squarings the matrix covers all paths of length `< n`
/// and, the semiring being bounded and idempotent, has converged to `A⁺`.
pub fn closure_by_squaring<S: PathSemiring>(a: &DenseMatrix<S>) -> DenseMatrix<S> {
    let n = a.rows();
    let mut x = reflexive(a);
    if n <= 1 {
        return x;
    }
    let mut len = 1usize;
    while len < n {
        x = matmul(&x, &x);
        len *= 2;
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instances::{Bool, MaxMin, MinPlus, INF};

    fn bool_from(n: usize, edges: &[(usize, usize)]) -> DenseMatrix<Bool> {
        let mut m = DenseMatrix::<Bool>::zeros(n, n);
        for &(i, j) in edges {
            m.set(i, j, true);
        }
        m
    }

    #[test]
    fn warshall_path_graph() {
        let a = bool_from(4, &[(0, 1), (1, 2), (2, 3)]);
        let c = warshall(&a);
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(*c.get(i, j), i <= j, "({i},{j})");
            }
        }
    }

    #[test]
    fn warshall_disconnected_components() {
        let a = bool_from(4, &[(0, 1), (2, 3)]);
        let c = warshall(&a);
        assert!(*c.get(0, 1));
        assert!(!*c.get(0, 2));
        assert!(!*c.get(1, 3));
        assert!(*c.get(2, 3));
    }

    #[test]
    fn warshall_matches_squaring_on_cycle() {
        let n = 6;
        let mut edges = vec![];
        for i in 0..n {
            edges.push((i, (i + 1) % n));
        }
        let a = bool_from(n, &edges);
        assert_eq!(warshall(&a), closure_by_squaring(&a));
    }

    #[test]
    fn minplus_shortest_paths_small() {
        // 0 -5-> 1 -2-> 2, plus direct 0 -9-> 2 : shortest 0->2 is 7.
        let mut a = DenseMatrix::<MinPlus>::zeros(3, 3);
        a.set(0, 1, 5);
        a.set(1, 2, 2);
        a.set(0, 2, 9);
        let d = warshall(&a);
        assert_eq!(*d.get(0, 2), 7);
        assert_eq!(*d.get(0, 0), 0);
        assert_eq!(*d.get(2, 0), INF);
    }

    #[test]
    fn maxmin_bottleneck_small() {
        // capacities: 0-(4)->1-(7)->2 and 0-(6)->2 : widest 0->2 is max(min(4,7), 6)=6.
        let mut a = DenseMatrix::<MaxMin>::zeros(3, 3);
        a.set(0, 1, 4);
        a.set(1, 2, 7);
        a.set(0, 2, 6);
        let w = warshall(&a);
        assert_eq!(*w.get(0, 2), 6);
        assert_eq!(*w.get(0, 0), MaxMin::one());
    }

    #[test]
    fn matmul_identity_is_neutral() {
        let a = DenseMatrix::<MinPlus>::from_fn(3, 3, |i, j| (i * 3 + j + 1) as u64);
        let id = DenseMatrix::<MinPlus>::identity(3);
        assert_eq!(matmul(&a, &id), a);
        assert_eq!(matmul(&id, &a), a);
    }

    #[test]
    fn matmul_counting_counts_walks() {
        use crate::instances::Counting;
        // 0->1, 0->2, 1->3, 2->3: two walks of length 2 from 0 to 3.
        let mut a = DenseMatrix::<Counting>::zeros(4, 4);
        for (i, j) in [(0, 1), (0, 2), (1, 3), (2, 3)] {
            a.set(i, j, 1);
        }
        let a2 = matmul(&a, &a);
        assert_eq!(*a2.get(0, 3), 2);
    }

    #[test]
    fn closure_monotone_and_idempotent() {
        let a = bool_from(5, &[(0, 1), (1, 2), (3, 4)]);
        let c = warshall(&a);
        // A ≤ A⁺ (after reflexive closure)
        for i in 0..5 {
            for j in 0..5 {
                if *a.get(i, j) {
                    assert!(*c.get(i, j));
                }
            }
        }
        assert_eq!(warshall(&c), c);
    }

    #[test]
    fn size_zero_and_one() {
        let a0 = DenseMatrix::<Bool>::zeros(0, 0);
        assert_eq!(warshall(&a0).rows(), 0);
        let a1 = DenseMatrix::<Bool>::zeros(1, 1);
        let c1 = warshall(&a1);
        assert!(*c1.get(0, 0)); // reflexive
    }
}
