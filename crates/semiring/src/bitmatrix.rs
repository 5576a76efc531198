//! Bit-packed Boolean matrices.
//!
//! The reference transitive-closure kernel over [`BitMatrix`] processes 64
//! matrix elements per instruction (row-OR), which is the fastest *software*
//! baseline we compare the simulated arrays' operation counts against. It is
//! also used by the property-test suite to cross-check the scalar kernels.

use crate::instances::Bool;
use crate::matrix::DenseMatrix;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use systolic_util::WorkerPool;

const WORD_BITS: usize = 64;

/// Pivots per cache block: a panel of `PIVOT_BLOCK` rows is the working
/// set of one blocked round (`64 × n/64` words — 16 KiB at `n = 2048`,
/// comfortably L1-resident), and 64 pivots' membership bits for any row
/// live in exactly one word, so a round's pivot set for a row is one load.
const PIVOT_BLOCK: usize = 64;

/// Below this size the whole matrix fits in L1/L2 anyway and the classic
/// per-pivot sweep has the better constant factor, so
/// [`BitMatrix::warshall_in_place`] keeps the unblocked loop there.
const BLOCKED_MIN_N: usize = 512;

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

    /// In-place transitive closure by bit-parallel Warshall.
    /// `O(n³/64)` word operations either way; dispatches to the
    /// cache-blocked sweep above `BLOCKED_MIN_N` (where the classic
    /// per-pivot sweep streams the whole `n²/8`-byte matrix once per pivot
    /// and falls out of cache) and keeps the classic loop below it, where
    /// the matrix is cache-resident and the simpler loop is never slower.
    pub fn warshall_in_place(&mut self) {
        if self.n >= BLOCKED_MIN_N {
            self.warshall_in_place_blocked();
        } else {
            self.warshall_in_place_unblocked();
        }
    }

    /// The classic bit-parallel Warshall sweep: for each pivot `k`, every
    /// row `i` with `x[i][k] = 1` ORs in row `k` word-by-word. One full
    /// matrix traversal per pivot.
    pub fn warshall_in_place_unblocked(&mut self) {
        let n = self.n;
        let wpr = self.words_per_row;
        for k in 0..n {
            // Split the storage at row k so we can read row k while writing
            // other rows without aliasing.
            let (before, rest) = self.words.split_at_mut(k * wpr);
            let (pivot, after) = rest.split_at_mut(wpr);
            let update = |rows: &mut [u64], base: usize| {
                for (r, chunk) in rows.chunks_exact_mut(wpr).enumerate() {
                    let i = base + r;
                    debug_assert_ne!(i, k);
                    let has = (chunk[k / WORD_BITS] >> (k % WORD_BITS)) & 1 == 1;
                    if has {
                        for (dst, src) in chunk.iter_mut().zip(pivot.iter()) {
                            *dst |= *src;
                        }
                    }
                }
            };
            update(before, 0);
            update(after, k + 1);
        }
    }

    /// Cache-blocked bit-parallel Warshall: pivots are processed in panels
    /// of `PIVOT_BLOCK` rows. Per panel `K = [k0, k1)`:
    ///
    /// 1. **Close the panel**: ordinary Warshall restricted to the panel's
    ///    own rows and pivots. Because pivot `k`'s row evolves only under
    ///    pivot rows that are themselves in `K`, the panel rows afterwards
    ///    are exactly what the unblocked sweep would have produced after
    ///    pivot `k1` — each closed under all pivots `< k1`.
    /// 2. **Fold** the closed panel into every other row in *one* pass:
    ///    row `i` ORs in panel row `k` for every bit `(i, k)`, `k ∈ K`,
    ///    set *at entry* to the pass. One pass is exact: on any path
    ///    `i → … → j` with intermediates `< k1`, the first intermediate
    ///    `k_f ∈ K` is reached through earlier pivots only — so
    ///    `(i, k_f)` is already set — and the closed panel row `k_f`
    ///    already contains the entire tail including `j`.
    ///
    /// The win over the unblocked sweep is reuse: one traversal of the
    /// matrix serves 64 pivots (whose membership bits per row share a
    /// single word), instead of 64 traversals, with the panel L1-resident
    /// throughout. Output is bit-identical to
    /// [`BitMatrix::warshall_in_place_unblocked`] for every `n`.
    pub fn warshall_in_place_blocked(&mut self) {
        let n = self.n;
        let wpr = self.words_per_row;
        let mut k0 = 0;
        while k0 < n {
            let k1 = (k0 + PIVOT_BLOCK).min(n);
            let rows_in = k1 - k0;
            {
                let panel = &mut self.words[k0 * wpr..k1 * wpr];
                Self::close_panel(panel, wpr, k0, rows_in);
            }
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

    /// Phase 1 of the blocked sweep: closes a panel (rows `k0..k0+rows_in`
    /// stored contiguously in `panel`) under its own pivots by ordinary
    /// Warshall restricted to those rows.
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

    /// Multi-threaded transitive closure on a freshly spawned pool of
    /// `threads` workers.
    ///
    /// Convenience wrapper over [`BitMatrix::transitive_closure_with_pool`];
    /// callers running many closures should build one [`WorkerPool`] and
    /// reuse it instead of paying thread spawn/join per call.
    pub fn transitive_closure_parallel(&self, threads: usize) -> Self {
        assert!(threads >= 1, "need at least one thread");
        if threads == 1 {
            return self.transitive_closure();
        }
        let pool = WorkerPool::new(threads);
        self.transitive_closure_with_pool(&pool)
    }

    /// Multi-threaded transitive closure reusing a persistent worker pool.
    ///
    /// Uses the same panel decomposition as
    /// [`BitMatrix::warshall_in_place_blocked`]: each round closes one
    /// `PIVOT_BLOCK`-pivot panel sequentially (a local, L1-resident
    /// Warshall), then fans the one-pass fold of that closed panel out
    /// over disjoint row bands, one band per pool worker. Blocking cuts
    /// the number of `scoped_run` barriers from `n` to `⌈n/64⌉` — at
    /// small-to-medium `n` the per-pivot dispatch was the dominant cost —
    /// and each band's round now reads a panel snapshot instead of a
    /// single pivot row, so one traversal of the band serves 64 pivots.
    /// The result is exactly [`BitMatrix::transitive_closure`], so output
    /// is bit-identical for any thread count.
    pub fn transitive_closure_with_pool(&self, pool: &WorkerPool) -> Self {
        let mut m = self.clone();
        for i in 0..self.n {
            m.set(i, i, true);
        }
        let n = m.n;
        let wpr = m.words_per_row;
        let threads = pool.threads();
        if n < 2 || threads == 1 {
            m.warshall_in_place();
            return m;
        }
        // Pool jobs are 'static and this crate forbids unsafe code, so the
        // bands cannot borrow `m.words` directly; work on a shared atomic
        // copy instead. Every word is written by exactly one band per
        // round, and rounds are separated by the scoped_run barrier, so
        // relaxed ordering suffices.
        let shared: Arc<Vec<AtomicU64>> =
            Arc::new(m.words.iter().map(|&w| AtomicU64::new(w)).collect());
        let rows_per = n.div_ceil(threads);
        let bands = n.div_ceil(rows_per);
        let mut k0 = 0;
        while k0 < n {
            let k1 = (k0 + PIVOT_BLOCK).min(n);
            let rows_in = k1 - k0;
            // Phase 1 (sequential, off the atomics): pull the panel into a
            // plain buffer, close it over its own pivots, publish it back.
            // The closed panel is immutable for the rest of the round, so
            // the bands share the plain buffer — no per-word atomics.
            let mut panel: Vec<u64> = shared[k0 * wpr..k1 * wpr]
                .iter()
                .map(|a| a.load(Ordering::Relaxed))
                .collect();
            Self::close_panel(&mut panel, wpr, k0, rows_in);
            for (dst, src) in shared[k0 * wpr..k1 * wpr].iter().zip(panel.iter()) {
                dst.store(*src, Ordering::Relaxed);
            }
            let panel = Arc::new(panel);
            let w_idx = k0 / WORD_BITS;
            let mask = Self::panel_mask(rows_in);
            // Phase 2: every band folds the closed panel into its rows.
            // Panel rows themselves are skipped — they were just stored.
            let run = pool.scoped_run(bands, |band| {
                let shared = Arc::clone(&shared);
                let panel = Arc::clone(&panel);
                Box::new(move || {
                    let lo = band * rows_per;
                    let hi = (lo + rows_per).min(n);
                    for i in lo..hi {
                        if i >= k0 && i < k1 {
                            continue;
                        }
                        let row = &shared[i * wpr..(i + 1) * wpr];
                        let mut bits = row[w_idx].load(Ordering::Relaxed) & mask;
                        while bits != 0 {
                            let k_rel = bits.trailing_zeros() as usize;
                            bits &= bits - 1;
                            let src = &panel[k_rel * wpr..(k_rel + 1) * wpr];
                            for (dst, s) in row.iter().zip(src.iter()) {
                                if *s != 0 {
                                    dst.fetch_or(*s, Ordering::Relaxed);
                                }
                            }
                        }
                    }
                })
            });
            run.expect("closure band panicked");
            k0 = k1;
        }
        for (w, a) in m.words.iter_mut().zip(shared.iter()) {
            *w = a.load(Ordering::Relaxed);
        }
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
    fn parallel_closure_matches_sequential() {
        let mut rng = systolic_util::Rng::seed_from_u64(5);
        for n in [1usize, 7, 65, 130] {
            let mut m = BitMatrix::zeros(n);
            for i in 0..n {
                for j in 0..n {
                    if i != j && rng.gen_bool(0.05) {
                        m.set(i, j, true);
                    }
                }
            }
            let seq = m.transitive_closure();
            for threads in [1usize, 2, 4, 7] {
                assert_eq!(
                    m.transitive_closure_parallel(threads),
                    seq,
                    "n={n} t={threads}"
                );
            }
        }
    }

    #[test]
    fn pooled_closure_reuses_one_pool_across_calls() {
        let pool = WorkerPool::new(3);
        let mut rng = systolic_util::Rng::seed_from_u64(9);
        for n in [4usize, 66, 129] {
            let mut m = BitMatrix::zeros(n);
            for i in 0..n {
                for j in 0..n {
                    if i != j && rng.gen_bool(0.08) {
                        m.set(i, j, true);
                    }
                }
            }
            assert_eq!(
                m.transitive_closure_with_pool(&pool),
                m.transitive_closure(),
                "n={n}"
            );
        }
    }

    #[test]
    fn blocked_sweep_matches_unblocked_at_panel_boundaries() {
        let mut rng = systolic_util::Rng::seed_from_u64(77);
        for n in [2usize, 5, 63, 64, 65, 127, 128, 129, 200, 300] {
            let mut m = BitMatrix::zeros(n);
            for i in 0..n {
                for j in 0..n {
                    if i != j && rng.gen_bool(0.06) {
                        m.set(i, j, true);
                    }
                }
            }
            for i in 0..n {
                m.set(i, i, true);
            }
            let mut blocked = m.clone();
            blocked.warshall_in_place_blocked();
            let mut plain = m.clone();
            plain.warshall_in_place_unblocked();
            assert_eq!(blocked, plain, "n={n}");
        }
    }

    #[test]
    fn public_entry_point_dispatches_identically_across_the_threshold() {
        // One size above BLOCKED_MIN_N (blocked path) and one below: both
        // must agree with the unblocked reference.
        let mut rng = systolic_util::Rng::seed_from_u64(78);
        for n in [500usize, 513] {
            let mut m = BitMatrix::zeros(n);
            for _ in 0..3 * n {
                let (i, j) = (rng.gen_usize(n), rng.gen_usize(n));
                m.set(i, j, true);
            }
            for i in 0..n {
                m.set(i, i, true);
            }
            let mut via_entry = m.clone();
            via_entry.warshall_in_place();
            let mut plain = m.clone();
            plain.warshall_in_place_unblocked();
            assert_eq!(via_entry, plain, "n={n}");
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
