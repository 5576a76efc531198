//! Dense row-major matrices over a semiring.

use crate::traits::Semiring;
use std::fmt;
use std::marker::PhantomData;

/// A dense `rows × cols` matrix with elements in semiring `S`.
///
/// Storage is a single row-major `Vec`, so row traversals are contiguous —
/// the reference Warshall kernel and the host feeder stream rows/columns out
/// of this without per-element allocation.
#[derive(Clone, PartialEq)]
pub struct DenseMatrix<S: Semiring> {
    rows: usize,
    cols: usize,
    data: Vec<S::Elem>,
    _marker: PhantomData<S>,
}

impl<S: Semiring> DenseMatrix<S> {
    /// All-`0̸` (additive identity) matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![S::zero(); rows * cols],
            _marker: PhantomData,
        }
    }

    /// Identity matrix: `1` on the diagonal, `0̸` elsewhere.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.set(i, i, S::one());
        }
        m
    }

    /// Builds a matrix from a row-major element vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<S::Elem>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "element count {} does not match {}x{}",
            data.len(),
            rows,
            cols
        );
        Self {
            rows,
            cols,
            data,
            _marker: PhantomData,
        }
    }

    /// Builds an `n × n` matrix from a function of `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> S::Elem) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Self::from_vec(rows, cols, data)
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// True iff the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Element at `(i, j)`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> &S::Elem {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }

    /// Sets element `(i, j)`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: S::Elem) {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j] = v;
    }

    /// Mutable element at `(i, j)`.
    #[inline]
    pub fn get_mut(&mut self, i: usize, j: usize) -> &mut S::Elem {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }

    /// Row `i` as a contiguous slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[S::Elem] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Column `j`, copied into a fresh `Vec` (columns are strided).
    pub fn col(&self, j: usize) -> Vec<S::Elem> {
        (0..self.rows).map(|i| self.get(i, j).clone()).collect()
    }

    /// Overwrites column `j` from a slice of length `rows`.
    pub fn set_col(&mut self, j: usize, col: &[S::Elem]) {
        assert_eq!(col.len(), self.rows);
        for (i, v) in col.iter().enumerate() {
            self.set(i, j, v.clone());
        }
    }

    /// Underlying row-major storage.
    #[inline]
    pub fn as_slice(&self) -> &[S::Elem] {
        &self.data
    }

    /// Ensures the diagonal is at least `1` (reflexive closure of the
    /// adjacency matrix — the paper assumes `a_ii = 1`).
    pub fn reflexive_closure(&mut self) {
        assert!(self.is_square());
        for i in 0..self.rows {
            let v = S::add(self.get(i, i), &S::one());
            self.set(i, i, v);
        }
    }

    /// The `rows×cols` sub-block with top-left corner `(r0, c0)`.
    ///
    /// # Panics
    /// Panics if the block exceeds the matrix bounds.
    pub fn block(&self, r0: usize, c0: usize, rows: usize, cols: usize) -> Self {
        assert!(r0 + rows <= self.rows && c0 + cols <= self.cols);
        Self::from_fn(rows, cols, |i, j| self.get(r0 + i, c0 + j).clone())
    }

    /// Writes a block back at `(r0, c0)`.
    pub fn set_block(&mut self, r0: usize, c0: usize, b: &Self) {
        assert!(r0 + b.rows <= self.rows && c0 + b.cols <= self.cols);
        for i in 0..b.rows {
            for j in 0..b.cols {
                self.set(r0 + i, c0 + j, b.get(i, j).clone());
            }
        }
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Self {
        Self::from_fn(self.cols, self.rows, |i, j| self.get(j, i).clone())
    }

    /// Element-wise `⊕` of two equally-shaped matrices.
    pub fn ewise_add(&self, other: &Self) -> Self {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        Self::from_fn(self.rows, self.cols, |i, j| {
            S::add(self.get(i, j), other.get(i, j))
        })
    }

    /// Count of elements that are not `0̸`.
    pub fn nnz(&self) -> usize {
        self.data.iter().filter(|e| !S::is_zero(e)).count()
    }
}

impl<S: Semiring> fmt::Debug for DenseMatrix<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "DenseMatrix<{}> {}x{}", S::NAME, self.rows, self.cols)?;
        for i in 0..self.rows.min(16) {
            write!(f, "  ")?;
            for j in 0..self.cols.min(16) {
                write!(f, "{:?} ", self.get(i, j))?;
            }
            writeln!(f)?;
        }
        if self.rows > 16 || self.cols > 16 {
            writeln!(f, "  …")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instances::{Bool, MinPlus};

    #[test]
    fn zeros_and_identity() {
        let z = DenseMatrix::<Bool>::zeros(3, 4);
        assert_eq!(z.rows(), 3);
        assert_eq!(z.cols(), 4);
        assert_eq!(z.nnz(), 0);
        let i = DenseMatrix::<Bool>::identity(5);
        assert_eq!(i.nnz(), 5);
        assert!(*i.get(2, 2));
        assert!(!*i.get(2, 3));
    }

    #[test]
    fn row_and_col_access() {
        let m = DenseMatrix::<MinPlus>::from_fn(3, 3, |i, j| (i * 10 + j) as u64);
        assert_eq!(m.row(1), &[10, 11, 12]);
        assert_eq!(m.col(2), vec![2, 12, 22]);
    }

    #[test]
    fn set_col_roundtrip() {
        let mut m = DenseMatrix::<MinPlus>::zeros(3, 3);
        m.set_col(1, &[7, 8, 9]);
        assert_eq!(m.col(1), vec![7, 8, 9]);
        assert_eq!(*m.get(2, 1), 9);
    }

    #[test]
    fn block_roundtrip() {
        let m = DenseMatrix::<MinPlus>::from_fn(4, 4, |i, j| (i * 4 + j) as u64);
        let b = m.block(1, 2, 2, 2);
        assert_eq!(b.as_slice(), &[6, 7, 10, 11]);
        let mut m2 = DenseMatrix::<MinPlus>::zeros(4, 4);
        m2.set_block(1, 2, &b);
        assert_eq!(*m2.get(2, 3), 11);
        assert_eq!(*m2.get(0, 0), MinPlus::zero());
    }

    #[test]
    fn reflexive_closure_sets_diagonal() {
        let mut m = DenseMatrix::<Bool>::zeros(4, 4);
        m.reflexive_closure();
        for i in 0..4 {
            assert!(*m.get(i, i));
        }
        assert_eq!(m.nnz(), 4);
    }

    #[test]
    fn transpose_involution() {
        let m = DenseMatrix::<MinPlus>::from_fn(3, 5, |i, j| (i * 5 + j) as u64);
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(*m.transpose().get(4, 2), *m.get(2, 4));
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn from_vec_checks_shape() {
        let _ = DenseMatrix::<Bool>::from_vec(2, 2, vec![true; 3]);
    }
}
