//! ABFT-style result verification for closure engines.
//!
//! A transient fault inside the array (see `systolic-arraysim::inject`) can
//! silently corrupt the closure an engine returns. Re-running Warshall on
//! the host to check every instance would cost the same O(n³) the array was
//! bought to avoid, so [`verify_closure`] instead exploits algebraic
//! invariants every correct closure `R = A⁺` (reflexive form) must satisfy
//! over a [`PathSemiring`]:
//!
//! 1. **Reflexive diagonal** — `R[i][i] = 1̄` for all `i` (O(n)).
//! 2. **Containment** — `refl(A) ⊑ R`, i.e. `refl(A)[i][j] ⊕ R[i][j] =
//!    R[i][j]` (O(n²)); the closure may only *add* reachability.
//! 3. **Checksum fixed points** — the ⊕-fold checksums `s[i] = ⊕_j
//!    R[i][j]` (row) and `t[j] = ⊕_i R[i][j]` (column) must satisfy `R ⊗ s
//!    = s` and `tᵀ ⊗ R = tᵀ` (O(n²) each). This is the ABFT step: a
//!    correct closure is idempotent (`R ⊗ R = R`), and folding that matrix
//!    identity with `⊕` over columns (rows) collapses one side to the
//!    checksum vector because `⊗` distributes over `⊕`. A corrupted entry
//!    perturbs one product term of a fold and, since path semirings are
//!    selective in practice (the fold takes the *best* term), generically
//!    breaks the fixed point somewhere along the affected row/column.
//! 4. **Idempotence** — `R ⊗ R = R` itself, exactly, checked entry by
//!    entry (O(n³) at worst; a multiply is cheaper than a closure). No
//!    product matrix is built: each entry's fold `⊕_k R[i][k] ⊗ R[k][j]`
//!    is compared with `R[i][j]` as soon as it is done.
//! 5. **Justification (Bellman minimality)** — for every off-diagonal
//!    entry, `R[i][j] = refl(A)[i][j] ⊕ ⊕_{k∉{i,j}} R[i][k] ⊗ R[k][j]`.
//!    Idempotence only bounds the result from one side (`R ⊗ R ⊑ R`);
//!    justification demands that each entry is *achieved* — by the direct
//!    edge or through a witness vertex. It is sound because a path-semiring
//!    closure folds over simple paths, and a simple path of length ≥ 2 has
//!    an interior vertex `k ∉ {i, j}`. This kills the classic phantom: a
//!    fabricated entry with no witness (e.g. a source→sink pair) leaves the
//!    matrix idempotent but unjustified.
//!
//! The folds of checks 4 and 5 skip the terms whose `R[i][k]` is `0̸`
//! (`0̸` absorbs `⊗` and is the unit of `⊕`) and stop once they reach `1̄`:
//! a path semiring is bounded (`1 ⊕ a = 1`), so `1̄` absorbs every later
//! term. Each fold's value, and so every verdict and error message, is the
//! full fold's. The stop is what makes a dense closure cheap to check (a
//! Boolean closure of a strongly connected graph is all `1̄`, and each fold
//! ends after its first term), and the skip what keeps a sparse one cheap.
//! Over min-plus, whose `1̄` is the distance 0, a fold rarely stops early.
//!
//! Together the checks reject any result that is not the exact closure of
//! *some* graph containing `A` whose extra reachability is self-witnessing.
//! The remaining blind spot — a corruption whose transitive consequences
//! were fully propagated by the rest of the computation, yielding the
//! closure of a different containing input with every phantom entry
//! witnessed (the fabricated edge must point into a cycle) — is
//! indistinguishable from a correct answer by any invariant checker; only
//! a reference comparison catches it, which is what campaigns do to
//! measure the escape rate.

use systolic_semiring::{reflexive, DenseMatrix, PathSemiring, Semiring};

/// Verifies that `result` is plausible as `refl(input)⁺`, by the checks in
/// the module docs.
///
/// # Errors
/// The first violated invariant, naming the check and the matrix
/// coordinate where it failed.
pub fn verify_closure<S: PathSemiring>(
    input: &DenseMatrix<S>,
    result: &DenseMatrix<S>,
) -> Result<(), String> {
    let base = quadratic_checks(input, result)?;
    product_checks(&base, result)
}

/// The shape and checks 1–3, each O(n²). Returns `refl(input)` for the
/// justification check.
fn quadratic_checks<S: PathSemiring>(
    input: &DenseMatrix<S>,
    result: &DenseMatrix<S>,
) -> Result<DenseMatrix<S>, String> {
    let n = input.rows();
    if result.rows() != n || result.cols() != n {
        return Err(format!(
            "shape: result is {}x{}, expected {n}x{n}",
            result.rows(),
            result.cols()
        ));
    }

    // 1. Reflexive diagonal.
    let one = S::one();
    for i in 0..n {
        if *result.get(i, i) != one {
            return Err(format!(
                "diagonal: R[{i}][{i}] = {:?}, expected {one:?}",
                result.get(i, i)
            ));
        }
    }

    // 2. Containment refl(A) ⊑ R.
    let base = reflexive(input);
    for i in 0..n {
        for j in 0..n {
            let a = base.get(i, j);
            let r = result.get(i, j);
            if S::add(a, r) != *r {
                return Err(format!(
                    "containment: R[{i}][{j}] = {r:?} does not absorb input {a:?}"
                ));
            }
        }
    }

    // 3. Checksum fixed points R ⊗ s = s and tᵀ ⊗ R = tᵀ.
    let s = row_folds(result);
    for i in 0..n {
        let mut acc = S::zero();
        for (k, sk) in s.iter().enumerate() {
            acc = S::add(&acc, &S::mul(result.get(i, k), sk));
        }
        if acc != s[i] {
            return Err(format!(
                "row checksum: (R ⊗ s)[{i}] = {acc:?}, expected s[{i}] = {:?}",
                s[i]
            ));
        }
    }
    let t = col_folds(result);
    for j in 0..n {
        let mut acc = S::zero();
        for (k, tk) in t.iter().enumerate() {
            acc = S::add(&acc, &S::mul(tk, result.get(k, j)));
        }
        if acc != t[j] {
            return Err(format!(
                "column checksum: (tᵀ ⊗ R)[{j}] = {acc:?}, expected t[{j}] = {:?}",
                t[j]
            ));
        }
    }
    Ok(base)
}

/// Checks 4 and 5, entry by entry. Both fold the two-hop terms
/// `R[i][k] ⊗ R[k][j]` of one entry. A `k` with `R[i][k] = 0̸` adds nothing
/// (`0̸` absorbs `⊗` and is the unit of `⊕`), so each row's folds run over
/// its support only; `cols` holds `Rᵀ`, so a term reads `R[k][j]` from a
/// row too.
fn product_checks<S: PathSemiring>(
    base: &DenseMatrix<S>,
    result: &DenseMatrix<S>,
) -> Result<(), String> {
    let n = result.rows();
    let cols = result.transpose();
    let mut support = Vec::with_capacity(n);

    // 4. Idempotence R ⊗ R = R.
    for i in 0..n {
        let row = result.row(i);
        support.clear();
        support.extend((0..n).filter(|&k| !S::is_zero(&row[k])));
        for (j, rij) in row.iter().enumerate() {
            let col = cols.row(j);
            let terms = support.iter().map(|&k| (&row[k], &col[k]));
            let rr = fold_to_one::<S>(S::zero(), terms);
            if rr != *rij {
                return Err(format!(
                    "idempotence: (R ⊗ R)[{i}][{j}] = {rr:?} ≠ R[{i}][{j}] = {rij:?}"
                ));
            }
        }
    }

    // 5. Justification: each off-diagonal entry must be achieved by the
    // direct edge or a witness vertex.
    for i in 0..n {
        let row = result.row(i);
        support.clear();
        support.extend((0..n).filter(|&k| k != i && !S::is_zero(&row[k])));
        for (j, rij) in row.iter().enumerate() {
            if i == j {
                continue;
            }
            let col = cols.row(j);
            let witnesses = support
                .iter()
                .filter(|&&k| k != j)
                .map(|&k| (&row[k], &col[k]));
            let acc = fold_to_one::<S>(base.get(i, j).clone(), witnesses);
            if acc != *rij {
                return Err(format!(
                    "justification: R[{i}][{j}] = {rij:?} but direct edge ⊕ best \
                     witness gives {acc:?}"
                ));
            }
        }
    }

    Ok(())
}

/// `acc ⊕ ⊕ a ⊗ b` over `terms`, stopping once the fold is 1̄: a path
/// semiring is bounded (`1 ⊕ a = 1`), so no later term can move it, and the
/// value returned is the full fold's.
fn fold_to_one<'a, S: PathSemiring>(
    mut acc: S::Elem,
    terms: impl Iterator<Item = (&'a S::Elem, &'a S::Elem)>,
) -> S::Elem {
    let one = S::one();
    for (a, b) in terms {
        if acc == one {
            break;
        }
        acc = S::add(&acc, &S::mul(a, b));
    }
    acc
}

/// Row checksums `s[i] = ⊕_j R[i][j]`.
pub fn row_folds<S: Semiring>(m: &DenseMatrix<S>) -> Vec<S::Elem> {
    (0..m.rows())
        .map(|i| m.row(i).iter().fold(S::zero(), |acc, e| S::add(&acc, e)))
        .collect()
}

/// Column checksums `t[j] = ⊕_i R[i][j]`.
pub fn col_folds<S: Semiring>(m: &DenseMatrix<S>) -> Vec<S::Elem> {
    let mut t = vec![S::zero(); m.cols()];
    for i in 0..m.rows() {
        for (j, e) in m.row(i).iter().enumerate() {
            t[j] = S::add(&t[j], e);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use systolic_semiring::{matmul, warshall, Bool, MinPlus};
    use systolic_util::Rng;

    fn gnp_bool(n: usize, p: f64, seed: u64) -> DenseMatrix<Bool> {
        let mut rng = Rng::seed_from_u64(seed);
        DenseMatrix::from_fn(n, n, |i, j| i != j && rng.gen_bool(p))
    }

    #[test]
    fn accepts_correct_closures() {
        for seed in 0..8 {
            let a = gnp_bool(9, 0.2, seed);
            let r = warshall(&a);
            verify_closure(&a, &r).unwrap();
        }
    }

    #[test]
    fn accepts_minplus_closures() {
        let mut rng = Rng::seed_from_u64(5);
        let a = DenseMatrix::<MinPlus>::from_fn(8, 8, |i, j| {
            if i != j && rng.gen_bool(0.3) {
                rng.gen_range_u64(1, 10)
            } else {
                MinPlus::zero()
            }
        });
        let r = warshall(&a);
        verify_closure(&a, &r).unwrap();
    }

    #[test]
    fn rejects_shape_mismatch() {
        let a = gnp_bool(4, 0.3, 1);
        let bad = DenseMatrix::<Bool>::zeros(3, 3);
        assert!(verify_closure(&a, &bad).unwrap_err().starts_with("shape"));
    }

    #[test]
    fn rejects_broken_diagonal() {
        let a = gnp_bool(5, 0.3, 2);
        let mut r = warshall(&a);
        r.set(2, 2, false);
        let err = verify_closure(&a, &r).unwrap_err();
        assert!(err.starts_with("diagonal"), "{err}");
    }

    #[test]
    fn rejects_dropped_input_edge() {
        let mut a = DenseMatrix::<Bool>::zeros(4, 4);
        a.set(0, 3, true);
        let mut r = warshall(&a);
        r.set(0, 3, false);
        let err = verify_closure(&a, &r).unwrap_err();
        assert!(err.starts_with("containment"), "{err}");
    }

    #[test]
    fn every_single_phantom_edge_is_rejected() {
        // A lone fabricated 1 in a correct closure has no witness vertex
        // (one would imply the entry was already reachable), so the
        // justification check catches every single-entry phantom — even
        // the source→sink ones that leave the matrix idempotent.
        for seed in [3u64, 11, 29] {
            let a = gnp_bool(6, 0.15, seed);
            let r = warshall(&a);
            let mut flips = 0;
            for i in 0..6 {
                for j in 0..6 {
                    if i == j || *r.get(i, j) {
                        continue;
                    }
                    let mut bad = r.clone();
                    bad.set(i, j, true);
                    flips += 1;
                    let err = verify_closure(&a, &bad).unwrap_err();
                    let idempotent = matmul(&bad, &bad) == bad;
                    assert!(
                        !idempotent || err.starts_with("justification"),
                        "idempotent phantom ({i},{j}) must fall to justification, got {err}"
                    );
                }
            }
            assert!(flips > 0);
        }
    }

    #[test]
    fn self_witnessing_phantom_closure_is_the_documented_blind_spot() {
        // The closure of a *different* containing input whose extra
        // reachability is self-witnessing passes every invariant: corrupt
        // 0→1 where 1 sits on a cycle 1 ⇄ 2, then close transitively.
        // R'[0][1] is witnessed by k = 2 (0→2 via 1, 2→1 on the cycle),
        // so no invariant checker can tell R' from a correct answer.
        let mut a = DenseMatrix::<Bool>::zeros(4, 4);
        a.set(1, 2, true);
        a.set(2, 1, true);
        let mut bigger = a.clone();
        bigger.set(0, 1, true);
        let masquerade = warshall(&bigger);
        assert_ne!(masquerade, warshall(&a));
        verify_closure(&a, &masquerade).unwrap();
    }

    #[test]
    fn rejects_minplus_understated_distance() {
        // Understating an interior distance fabricates a shortcut that
        // propagates (0→2 feeds 2→3), breaking idempotence.
        let mut a = DenseMatrix::<MinPlus>::zeros(5, 5);
        a.set(0, 1, 4);
        a.set(1, 2, 4);
        a.set(2, 3, 4);
        let mut r = warshall(&a);
        r.set(0, 2, 1); // true distance is 8; 1 + r[2][3] < r[0][3] propagates
        assert!(verify_closure(&a, &r).is_err());
    }

    /// Checks 4 and 5 without the stop at 1̄: the full product `R ⊗ R`,
    /// then every witness folded.
    fn full_product_checks<S: PathSemiring>(
        base: &DenseMatrix<S>,
        r: &DenseMatrix<S>,
    ) -> Result<(), String> {
        let n = r.rows();
        let rr = matmul(r, r);
        for i in 0..n {
            for j in 0..n {
                if rr.get(i, j) != r.get(i, j) {
                    return Err(format!(
                        "idempotence: (R ⊗ R)[{i}][{j}] = {:?} ≠ R[{i}][{j}] = {:?}",
                        rr.get(i, j),
                        r.get(i, j)
                    ));
                }
            }
        }
        for i in 0..n {
            for j in (0..n).filter(|&j| j != i) {
                let mut acc = base.get(i, j).clone();
                for k in (0..n).filter(|&k| k != i && k != j) {
                    acc = S::add(&acc, &S::mul(r.get(i, k), r.get(k, j)));
                }
                if acc != *r.get(i, j) {
                    return Err(format!(
                        "justification: R[{i}][{j}] = {:?} but direct edge ⊕ best \
                         witness gives {acc:?}",
                        r.get(i, j)
                    ));
                }
            }
        }
        Ok(())
    }

    /// Compares the verdict on `bad` with the full product's; returns
    /// whether check 4 or 5 gave it.
    fn same_verdict<S: PathSemiring>(a: &DenseMatrix<S>, bad: &DenseMatrix<S>) -> bool {
        let full = quadratic_checks(a, bad).and_then(|base| full_product_checks(&base, bad));
        assert_eq!(verify_closure(a, bad), full);
        full.is_err_and(|e| e.starts_with("idempotence") || e.starts_with("justification"))
    }

    /// Every single-entry zero ↔ one swap of `a`'s closure (the corruption
    /// a fault makes): the phantom entries, the broken diagonal and the
    /// dropped input edges above. Returns how many check 4 or 5 judged.
    fn every_swap_keeps_its_verdict<S: PathSemiring>(a: &DenseMatrix<S>) -> usize {
        let r = warshall(a);
        let mut by_products = 0;
        for i in 0..r.rows() {
            for j in 0..r.cols() {
                let mut bad = r.clone();
                bad.set(i, j, systolic_arraysim::corrupt_value::<S>(r.get(i, j)));
                by_products += usize::from(same_verdict(a, &bad));
            }
        }
        by_products
    }

    #[test]
    fn stopping_at_one_keeps_every_verdict_and_message() {
        let mut by_products = 0;
        for seed in [3u64, 11, 29] {
            by_products += every_swap_keeps_its_verdict(&gnp_bool(6, 0.15, seed));
        }
        // Strongly connected: R is all 1̄, so the folds stop earliest.
        let ring = DenseMatrix::<Bool>::from_fn(6, 6, |i, j| j == (i + 1) % 6);
        by_products += every_swap_keeps_its_verdict(&ring);
        assert!(by_products > 0);

        // Min-plus, whose 1̄ = 0 ends a fold only through a zero-length
        // path: every swap, and every finite distance understated (as in
        // `rejects_minplus_understated_distance`) or overstated by one.
        let mut rng = Rng::seed_from_u64(5);
        let a = DenseMatrix::<MinPlus>::from_fn(8, 8, |i, j| {
            if i != j && rng.gen_bool(0.3) {
                rng.gen_range_u64(1, 10)
            } else {
                MinPlus::zero()
            }
        });
        let mut by_products = every_swap_keeps_its_verdict(&a);
        let r = warshall(&a);
        for i in 0..8 {
            for j in 0..8 {
                let d = *r.get(i, j);
                if i == j || d == MinPlus::zero() {
                    continue;
                }
                for e in [d - 1, d + 1] {
                    let mut bad = r.clone();
                    bad.set(i, j, e);
                    by_products += usize::from(same_verdict(&a, &bad));
                }
            }
        }
        assert!(by_products > 0);
    }

    #[test]
    fn folds_shapes() {
        let a = gnp_bool(4, 0.5, 6);
        assert_eq!(row_folds(&a).len(), 4);
        assert_eq!(col_folds(&a).len(), 4);
    }
}
