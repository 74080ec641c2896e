//! Compressed sparse column matrix storage.
// lint:allow-file(slice-index): sparse storage kernel — indices are column
// pointers and row ids validated at construction; iterator forms would
// obscure the compressed-layout walks.

use crate::{LinalgError, Matrix, Result};

/// Compressed sparse column matrix.
///
/// Columns are stored contiguously: the entries of column `j` live at
/// `values[col_ptr[j]..col_ptr[j + 1]]` with matching `row_idx`. Row
/// indices within a column are sorted ascending and unique; exact zeros
/// are dropped at construction so `nnz` reflects structural nonzeros.
#[derive(Debug, Clone, PartialEq)]
pub struct CscMatrix {
    nrows: usize,
    ncols: usize,
    col_ptr: Vec<usize>,
    row_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CscMatrix {
    /// Builds a CSC matrix from `(row, col, value)` triplets. Duplicate
    /// coordinates are summed; exact zeros (including cancelled duplicate
    /// sums) are dropped.
    pub fn from_triplets(
        nrows: usize,
        ncols: usize,
        triplets: &[(usize, usize, f64)],
    ) -> Result<CscMatrix> {
        for &(r, c, _) in triplets {
            if r >= nrows || c >= ncols {
                return Err(LinalgError::DimensionMismatch {
                    expected: (nrows, ncols),
                    got: (r + 1, c + 1),
                });
            }
        }
        let mut sorted: Vec<(usize, usize, f64)> =
            triplets.iter().map(|&(r, c, v)| (c, r, v)).collect();
        sorted.sort_by_key(|&(c, r, _)| (c, r));
        let mut col_ptr = vec![0usize; ncols + 1];
        let mut row_idx = Vec::with_capacity(sorted.len());
        let mut values: Vec<f64> = Vec::with_capacity(sorted.len());
        let mut i = 0;
        while i < sorted.len() {
            let (c, r, mut v) = sorted[i];
            i += 1;
            while i < sorted.len() && sorted[i].0 == c && sorted[i].1 == r {
                v += sorted[i].2;
                i += 1;
            }
            if !crate::approx::exactly_zero(v) {
                row_idx.push(r);
                values.push(v);
                col_ptr[c + 1] += 1;
            }
        }
        for c in 0..ncols {
            col_ptr[c + 1] += col_ptr[c];
        }
        Ok(CscMatrix {
            nrows,
            ncols,
            col_ptr,
            row_idx,
            values,
        })
    }

    /// Converts a dense matrix, dropping exact zeros.
    pub fn from_dense(a: &Matrix) -> CscMatrix {
        let (nrows, ncols) = (a.rows(), a.cols());
        let mut col_ptr = vec![0usize; ncols + 1];
        let mut row_idx = Vec::new();
        let mut values = Vec::new();
        for j in 0..ncols {
            for i in 0..nrows {
                let v = a[(i, j)];
                if !crate::approx::exactly_zero(v) {
                    row_idx.push(i);
                    values.push(v);
                }
            }
            col_ptr[j + 1] = values.len();
        }
        CscMatrix {
            nrows,
            ncols,
            col_ptr,
            row_idx,
            values,
        }
    }

    /// Assembles a square-or-rectangular matrix from per-column sparse
    /// vectors `(row, value)`. Rows within a column need not be sorted;
    /// duplicates are summed.
    pub fn from_columns<C: AsRef<[(usize, f64)]>>(nrows: usize, cols: &[C]) -> Result<CscMatrix> {
        let mut triplets = Vec::new();
        for (j, col) in cols.iter().enumerate() {
            for &(r, v) in col.as_ref() {
                triplets.push((r, j, v));
            }
        }
        CscMatrix::from_triplets(nrows, cols.len(), &triplets)
    }

    /// Expands to a dense matrix.
    pub fn to_dense(&self) -> Matrix {
        let mut m = Matrix::zeros(self.nrows, self.ncols);
        for j in 0..self.ncols {
            for p in self.col_ptr[j]..self.col_ptr[j + 1] {
                m[(self.row_idx[p], j)] = self.values[p];
            }
        }
        m
    }

    pub fn nrows(&self) -> usize {
        self.nrows
    }

    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored (structural) nonzeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Row indices and values of column `j`.
    pub fn col(&self, j: usize) -> (&[usize], &[f64]) {
        let (lo, hi) = (self.col_ptr[j], self.col_ptr[j + 1]);
        (&self.row_idx[lo..hi], &self.values[lo..hi])
    }

    /// Value array, column-major.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// `y = A x`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        debug_assert_eq!(x.len(), self.ncols);
        let mut y = vec![0.0; self.nrows];
        for (j, &xj) in x.iter().enumerate().take(self.ncols) {
            if crate::approx::exactly_zero(xj) {
                continue;
            }
            for p in self.col_ptr[j]..self.col_ptr[j + 1] {
                y[self.row_idx[p]] += self.values[p] * xj;
            }
        }
        y
    }

    /// `y = Aᵀ x`.
    pub fn matvec_transposed(&self, x: &[f64]) -> Vec<f64> {
        debug_assert_eq!(x.len(), self.nrows);
        let mut y = vec![0.0; self.ncols];
        for (j, yj) in y.iter_mut().enumerate() {
            let mut s = 0.0;
            for p in self.col_ptr[j]..self.col_ptr[j + 1] {
                s += self.values[p] * x[self.row_idx[p]];
            }
            *yj = s;
        }
        y
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triplets_sum_duplicates_and_drop_zeros() {
        let a = CscMatrix::from_triplets(
            2,
            2,
            &[
                (0, 0, 1.0),
                (0, 0, 2.0),
                (1, 1, 5.0),
                (1, 0, 3.0),
                (1, 0, -3.0),
            ],
        )
        .unwrap();
        assert_eq!(a.nnz(), 2);
        let d = a.to_dense();
        assert_eq!(d[(0, 0)], 3.0);
        assert_eq!(d[(1, 1)], 5.0);
        assert_eq!(d[(1, 0)], 0.0);
    }

    #[test]
    fn out_of_range_triplet_rejected() {
        assert!(CscMatrix::from_triplets(2, 2, &[(2, 0, 1.0)]).is_err());
    }

    #[test]
    fn matvec_matches_dense() {
        let d = Matrix::from_rows(&[&[1.0, 0.0, 2.0], &[0.0, 3.0, 0.0]]);
        let s = CscMatrix::from_dense(&d);
        let x = [1.0, 2.0, 3.0];
        assert_eq!(s.matvec(&x), d.matvec(&x));
        let y = [1.0, -1.0];
        assert_eq!(s.matvec_transposed(&y), d.matvec_transposed(&y));
    }
}
