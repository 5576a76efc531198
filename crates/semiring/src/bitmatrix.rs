//! Bit-packed Boolean matrices.
//!
//! The reference transitive-closure kernel over [`BitMatrix`] processes 64
//! matrix elements per instruction (row-OR), which is the fastest *software*
//! baseline we compare the simulated arrays' operation counts against. It is
//! also used by the property-test suite to cross-check the scalar kernels.
//!
//! There is one sweep, [`BitMatrix::warshall_in_place`], cache-blocked at
//! every `n` and single-threaded; [`BitMatrix::transitive_closure`] is its
//! copying entry. A pooled fold over atomic words measured 3–16× slower
//! than this sweep at every size from 64 to 2048 on two cores, and a
//! per-pivot loop without panels was never faster beyond noise (DESIGN
//! §7, §16).

use crate::instances::Bool;
use crate::matrix::DenseMatrix;
use std::fmt;

const WORD_BITS: usize = 64;

/// Pivots per cache block: a panel of `PIVOT_BLOCK` rows is the working
/// set of one round (`64 × n/64` words — 16 KiB at `n = 2048`,
/// comfortably L1-resident), and 64 pivots' membership bits for any row
/// live in exactly one word, so a round's pivot set for a row is one load.
const PIVOT_BLOCK: usize = 64;

/// A square `n × n` Boolean matrix packed into `u64` words, row-major.
#[derive(Clone, PartialEq, Eq)]
pub struct BitMatrix {
    n: usize,
    words_per_row: usize,
    words: Vec<u64>,
}

impl BitMatrix {
    /// All-zero `n × n` matrix.
    pub fn zeros(n: usize) -> Self {
        let words_per_row = n.div_ceil(WORD_BITS);
        Self {
            n,
            words_per_row,
            words: vec![0; n * words_per_row],
        }
    }

    /// Identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n);
        for i in 0..n {
            m.set(i, i, true);
        }
        m
    }

    /// Builds from a dense Boolean matrix.
    ///
    /// # Panics
    /// Panics if `dense` is not square.
    pub fn from_dense(dense: &DenseMatrix<Bool>) -> Self {
        assert!(dense.is_square(), "BitMatrix requires a square matrix");
        let n = dense.rows();
        let mut m = Self::zeros(n);
        for i in 0..n {
            for j in 0..n {
                if *dense.get(i, j) {
                    m.set(i, j, true);
                }
            }
        }
        m
    }

    /// Expands into a dense Boolean matrix.
    pub fn to_dense(&self) -> DenseMatrix<Bool> {
        DenseMatrix::from_fn(self.n, self.n, |i, j| self.get(i, j))
    }

    /// Matrix dimension.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Bit at `(i, j)`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> bool {
        debug_assert!(i < self.n && j < self.n);
        let w = self.words[i * self.words_per_row + j / WORD_BITS];
        (w >> (j % WORD_BITS)) & 1 == 1
    }

    /// Sets bit `(i, j)`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: bool) {
        debug_assert!(i < self.n && j < self.n);
        let w = &mut self.words[i * self.words_per_row + j / WORD_BITS];
        let mask = 1u64 << (j % WORD_BITS);
        if v {
            *w |= mask;
        } else {
            *w &= !mask;
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// In-place transitive closure by cache-blocked bit-parallel
    /// Warshall, `O(n³/64)` word operations. Pivots are processed in
    /// panels of `PIVOT_BLOCK` rows. Per panel `K = [k0, k1)`:
    ///
    /// 1. **Close the panel**: ordinary Warshall restricted to the panel's
    ///    own rows and pivots. Because pivot `k`'s row evolves only under
    ///    pivot rows that are themselves in `K`, the panel rows afterwards
    ///    are exactly what the per-pivot sweep would have produced after
    ///    pivot `k1` — each closed under all pivots `< k1`.
    /// 2. **Fold** the closed panel into every other row in *one* pass:
    ///    row `i` ORs in panel row `k` for every bit `(i, k)`, `k ∈ K`,
    ///    set *at entry* to the pass. One pass is exact: on any path
    ///    `i → … → j` with intermediates `< k1`, the first intermediate
    ///    `k_f ∈ K` is reached through earlier pivots only — so
    ///    `(i, k_f)` is already set — and the closed panel row `k_f`
    ///    already contains the entire tail including `j`.
    ///
    /// One traversal of the matrix serves 64 pivots (whose membership bits
    /// per row share a single word), with the panel L1-resident
    /// throughout. At `n ≤ 64` the single panel is the whole matrix and
    /// the sweep is the classic per-pivot loop.
    pub fn warshall_in_place(&mut self) {
        let n = self.n;
        let wpr = self.words_per_row;
        let mut k0 = 0;
        while k0 < n {
            let k1 = (k0 + PIVOT_BLOCK).min(n);
            let rows_in = k1 - k0;
            Self::close_panel(&mut self.words[k0 * wpr..k1 * wpr], wpr, k0, rows_in);
            let (head, rest) = self.words.split_at_mut(k0 * wpr);
            let (panel, tail) = rest.split_at_mut(rows_in * wpr);
            // k0 is a multiple of PIVOT_BLOCK = WORD_BITS, so the panel's
            // membership bits of any row live in the single word w_idx.
            let w_idx = k0 / WORD_BITS;
            let mask = Self::panel_mask(rows_in);
            let fold = |rows: &mut [u64]| {
                for chunk in rows.chunks_exact_mut(wpr) {
                    let mut bits = chunk[w_idx] & mask;
                    while bits != 0 {
                        let k_rel = bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        let src = &panel[k_rel * wpr..(k_rel + 1) * wpr];
                        for (dst, s) in chunk.iter_mut().zip(src.iter()) {
                            *dst |= *s;
                        }
                    }
                }
            };
            fold(head);
            fold(tail);
            k0 = k1;
        }
    }

    /// Ones mask for the low `rows_in` bits of a panel's membership word.
    #[inline]
    fn panel_mask(rows_in: usize) -> u64 {
        if rows_in == WORD_BITS {
            u64::MAX
        } else {
            (1u64 << rows_in) - 1
        }
    }

    /// Phase 1 of the sweep: closes a panel (rows `k0..k0+rows_in`
    /// stored contiguously in `panel`) under its own pivots by ordinary
    /// Warshall restricted to those rows.
    // Out of line on purpose: inlined into `warshall_in_place`, it left
    // `systolic closure --backend bit` at n = 4000 ~5 % slower than out of
    // line in alternating runs.
    #[inline(never)]
    fn close_panel(panel: &mut [u64], wpr: usize, k0: usize, rows_in: usize) {
        for k in 0..rows_in {
            let (before, rest) = panel.split_at_mut(k * wpr);
            let (pivot, after) = rest.split_at_mut(wpr);
            let col = k0 + k;
            let update = |rows: &mut [u64]| {
                for chunk in rows.chunks_exact_mut(wpr) {
                    let has = (chunk[col / WORD_BITS] >> (col % WORD_BITS)) & 1 == 1;
                    if has {
                        for (dst, src) in chunk.iter_mut().zip(pivot.iter()) {
                            *dst |= *src;
                        }
                    }
                }
            };
            update(before);
            update(after);
        }
    }

    /// Transitive closure (reflexive), returning a new matrix.
    pub fn transitive_closure(&self) -> Self {
        let mut m = self.clone();
        for i in 0..self.n {
            m.set(i, i, true);
        }
        m.warshall_in_place();
        m
    }

    /// Row `i` as its packed words (low bit of word 0 = column 0).
    #[inline]
    pub fn row_words(&self, i: usize) -> &[u64] {
        debug_assert!(i < self.n);
        &self.words[i * self.words_per_row..(i + 1) * self.words_per_row]
    }
}

impl fmt::Debug for BitMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "BitMatrix {}x{}", self.n, self.n)?;
        for i in 0..self.n.min(32) {
            write!(f, "  ")?;
            for j in 0..self.n.min(64) {
                write!(f, "{}", if self.get(i, j) { '1' } else { '.' })?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_roundtrip_across_word_boundary() {
        let mut m = BitMatrix::zeros(70);
        m.set(3, 63, true);
        m.set(3, 64, true);
        m.set(69, 69, true);
        assert!(m.get(3, 63));
        assert!(m.get(3, 64));
        assert!(!m.get(3, 65));
        assert!(m.get(69, 69));
        m.set(3, 64, false);
        assert!(!m.get(3, 64));
        assert_eq!(m.count_ones(), 2);
    }

    #[test]
    fn closure_of_path_graph_is_upper_triangular_full() {
        // 0 -> 1 -> 2 -> 3
        let n = 4;
        let mut m = BitMatrix::zeros(n);
        for i in 0..n - 1 {
            m.set(i, i + 1, true);
        }
        let c = m.transitive_closure();
        for i in 0..n {
            for j in 0..n {
                assert_eq!(c.get(i, j), i <= j, "({i},{j})");
            }
        }
    }

    #[test]
    fn closure_of_cycle_is_complete() {
        let n = 5;
        let mut m = BitMatrix::zeros(n);
        for i in 0..n {
            m.set(i, (i + 1) % n, true);
        }
        let c = m.transitive_closure();
        assert_eq!(c.count_ones(), n * n);
    }

    #[test]
    fn closure_is_idempotent() {
        let mut m = BitMatrix::zeros(6);
        m.set(0, 2, true);
        m.set(2, 4, true);
        m.set(4, 1, true);
        m.set(3, 5, true);
        let c1 = m.transitive_closure();
        let c2 = c1.transitive_closure();
        assert_eq!(c1, c2);
    }

    #[test]
    fn sweep_matches_scalar_warshall_at_panel_boundaries() {
        let mut rng = systolic_util::Rng::seed_from_u64(77);
        for n in [1usize, 2, 5, 63, 64, 65, 127, 128, 129, 300, 511, 512, 513] {
            let mut m = BitMatrix::zeros(n);
            for _ in 0..n {
                m.set(rng.gen_usize(n), rng.gen_usize(n), true);
            }
            let want = crate::kernels::warshall(&m.to_dense());
            assert_eq!(m.transitive_closure().to_dense(), want, "n={n}");
        }
    }

    #[test]
    fn row_words_expose_packed_rows() {
        let mut m = BitMatrix::zeros(70);
        m.set(3, 0, true);
        m.set(3, 64, true);
        assert_eq!(m.row_words(3), &[1u64, 1u64]);
        assert_eq!(m.row_words(4), &[0u64, 0u64]);
    }

    #[test]
    fn dense_roundtrip() {
        let mut m = BitMatrix::zeros(9);
        m.set(1, 7, true);
        m.set(8, 0, true);
        assert_eq!(BitMatrix::from_dense(&m.to_dense()), m);
    }
}
