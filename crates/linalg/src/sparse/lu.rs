//! Sparse LU with partial pivoting (left-looking Gilbert–Peierls).
// lint:allow-file(slice-index): sparse factorization kernel — indices are
// row/column ids and compressed-storage offsets validated against the
// matrix dimension at entry; iterator forms would obscure the
// reach/scatter recurrences.

use super::csc::CscMatrix;
use super::{SparseWorkspace, NONE};
use crate::{LinalgError, Result};

/// Pivot tolerance relative to the matrix scale, mirroring the dense
/// [`crate::Lu`] `PIVOT_TOL`: a column whose best available pivot is below
/// `SPARSE_PIVOT_TOL · max|A|` is reported singular.
const SPARSE_PIVOT_TOL: f64 = 1e-13;

/// Reusable symbolic analysis for [`SparseLu`]: the column elimination
/// order. With partial pivoting the row permutation is a numeric decision,
/// so the symbolic phase is exactly the part that is value-independent.
#[derive(Debug, Clone)]
pub struct LuSymbolic {
    n: usize,
    /// `col_order[k]` = original column factorized at position `k`.
    col_order: Vec<usize>,
}

impl LuSymbolic {
    /// Orders the columns of a square matrix by ascending nonzero count,
    /// ties by position: the singletons-first order of Suhl & Suhl (ORSA
    /// J. Computing, 1990) in its simplest form. A simplex basis is mostly
    /// unit slack columns; they pivot first with no fill, and a hub column
    /// (an OA master's epigraph column touches every cut row) goes last.
    /// It costs one sort, so a basis can afford it at every refactorization.
    pub fn by_column_count(a: &CscMatrix) -> Result<LuSymbolic> {
        let n = square_dim(a)?;
        let mut col_order: Vec<usize> = (0..n).collect();
        // Stable: equal counts keep their column order.
        col_order.sort_by_key(|&j| a.col(j).0.len());
        Ok(LuSymbolic { n, col_order })
    }
}

/// The dimension of a square `a`, or the mismatch error.
fn square_dim(a: &CscMatrix) -> Result<usize> {
    if a.nrows() != a.ncols() {
        return Err(LinalgError::DimensionMismatch {
            expected: (a.nrows(), a.nrows()),
            got: (a.nrows(), a.ncols()),
        });
    }
    Ok(a.nrows())
}

/// Sparse partial-pivoting factorization `P A Q = L U`.
///
/// `Q` is the symbolic column order, `P` the pivoting row permutation.
/// `L` is unit lower triangular (strict part stored, rows in pivot
/// order), `U` upper triangular with its diagonal stored separately.
#[derive(Debug, Clone)]
pub struct SparseLu {
    n: usize,
    l_colptr: Vec<usize>,
    l_rows: Vec<usize>,
    l_vals: Vec<f64>,
    u_colptr: Vec<usize>,
    u_rows: Vec<usize>,
    u_vals: Vec<f64>,
    u_diag: Vec<f64>,
    /// `perm[k]` = original row pivotal at position `k`; `pinv` inverts it.
    perm: Vec<usize>,
    pinv: Vec<usize>,
    col_order: Vec<usize>,
}

impl SparseLu {
    /// Numeric factorization under a previously computed symbolic
    /// analysis. `a` must have the dimension `sym` was analyzed for; the
    /// sparsity pattern may differ (the column order is then merely a
    /// weaker fill heuristic, never a correctness issue).
    pub fn factorize(
        a: &CscMatrix,
        sym: &LuSymbolic,
        ws: &mut SparseWorkspace,
    ) -> Result<SparseLu> {
        if a.nrows() != a.ncols() || a.nrows() != sym.n {
            return Err(LinalgError::DimensionMismatch {
                expected: (sym.n, sym.n),
                got: (a.nrows(), a.ncols()),
            });
        }
        let n = sym.n;
        ws.ensure(n);
        let amax = a.values().iter().fold(0.0_f64, |s, v| s.max(v.abs()));
        let pivot_floor = SPARSE_PIVOT_TOL * amax;

        let mut lu = SparseLu {
            n,
            l_colptr: vec![0; n + 1],
            l_rows: Vec::new(),
            l_vals: Vec::new(),
            u_colptr: vec![0; n + 1],
            u_rows: Vec::new(),
            u_vals: Vec::new(),
            u_diag: vec![0.0; n],
            perm: vec![NONE; n],
            pinv: vec![NONE; n],
            col_order: sym.col_order.clone(),
        };

        for jj in 0..n {
            let j = sym.col_order[jj];
            // Symbolic: pattern of L⁻¹ A[:,j] = reach of A[:,j]'s rows
            // through the columns factorized so far, in topological order.
            ws.stamp += 1;
            ws.topo.clear();
            let (a_rows, a_vals) = a.col(j);
            for &root in a_rows {
                if ws.flag[root] == ws.stamp {
                    continue;
                }
                ws.flag[root] = ws.stamp;
                ws.stack.clear();
                ws.stack.push((root, 0));
                while let Some(&(node, child_pos)) = ws.stack.last() {
                    let kp = lu.pinv[node];
                    let children: &[usize] = if kp == NONE {
                        &[]
                    } else {
                        &lu.l_rows[lu.l_colptr[kp]..lu.l_colptr[kp + 1]]
                    };
                    if child_pos < children.len() {
                        let child = children[child_pos];
                        if let Some(top) = ws.stack.last_mut() {
                            top.1 += 1;
                        }
                        if ws.flag[child] != ws.stamp {
                            ws.flag[child] = ws.stamp;
                            ws.stack.push((child, 0));
                        }
                    } else {
                        ws.stack.pop();
                        ws.topo.push(node);
                    }
                }
            }
            // Postorder → reverse = topological (parents before children).
            ws.topo.reverse();

            // Numeric: scatter A[:,j] and run the sparse triangular solve.
            for (&r, &v) in a_rows.iter().zip(a_vals) {
                ws.x[r] = v;
            }
            for &r in &ws.topo {
                let kp = lu.pinv[r];
                if kp == NONE {
                    continue;
                }
                let xr = ws.x[r];
                if crate::approx::exactly_zero(xr) {
                    continue;
                }
                for p in lu.l_colptr[kp]..lu.l_colptr[kp + 1] {
                    ws.x[lu.l_rows[p]] -= lu.l_vals[p] * xr;
                }
            }

            // Partition into U entries (pivotal rows) and pivot candidates.
            let mut pivot_row = NONE;
            let mut pivot_abs = 0.0_f64;
            for &r in &ws.topo {
                if lu.pinv[r] != NONE {
                    let v = ws.x[r];
                    if !crate::approx::exactly_zero(v) {
                        lu.u_rows.push(lu.pinv[r]);
                        lu.u_vals.push(v);
                    }
                } else {
                    let mag = ws.x[r].abs();
                    if mag > pivot_abs {
                        pivot_abs = mag;
                        pivot_row = r;
                    }
                }
            }
            if pivot_row == NONE || pivot_abs <= pivot_floor {
                for &r in &ws.topo {
                    ws.x[r] = 0.0;
                }
                return Err(LinalgError::Singular { pivot: jj });
            }
            lu.u_colptr[jj + 1] = lu.u_rows.len();
            let pivot_val = ws.x[pivot_row];
            lu.u_diag[jj] = pivot_val;
            lu.pinv[pivot_row] = jj;
            lu.perm[jj] = pivot_row;
            for &r in &ws.topo {
                if lu.pinv[r] == NONE {
                    let v = ws.x[r] / pivot_val;
                    if !crate::approx::exactly_zero(v) {
                        // Original row id for now; remapped to pivot order
                        // once every row has been assigned a pivot.
                        lu.l_rows.push(r);
                        lu.l_vals.push(v);
                    }
                }
                ws.x[r] = 0.0;
            }
            lu.l_colptr[jj + 1] = lu.l_rows.len();
        }

        for r in &mut lu.l_rows {
            *r = lu.pinv[*r];
        }
        Ok(lu)
    }

    /// Dimension of the factored matrix: the rows of a simplex basis
    /// factor that the LU covers, before any bordered rows.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Total stored factor nonzeros (L strict + U strict + diagonal) — the
    /// fill metric surfaced through `SolveStats::fill_nnz`.
    pub fn fill_nnz(&self) -> usize {
        self.l_vals.len() + self.u_vals.len() + self.n
    }

    /// Solves `A x = b`.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        debug_assert_eq!(b.len(), self.n);
        let n = self.n;
        // y = P b, then L y, then U y (in place), then x = Q y.
        let mut y: Vec<f64> = (0..n).map(|i| b[self.perm[i]]).collect();
        for jj in 0..n {
            let yj = y[jj];
            if crate::approx::exactly_zero(yj) {
                continue;
            }
            for p in self.l_colptr[jj]..self.l_colptr[jj + 1] {
                y[self.l_rows[p]] -= self.l_vals[p] * yj;
            }
        }
        for jj in (0..n).rev() {
            let z = y[jj] / self.u_diag[jj];
            y[jj] = z;
            if crate::approx::exactly_zero(z) {
                continue;
            }
            for p in self.u_colptr[jj]..self.u_colptr[jj + 1] {
                y[self.u_rows[p]] -= self.u_vals[p] * z;
            }
        }
        let mut x = vec![0.0; n];
        for jj in 0..n {
            x[self.col_order[jj]] = y[jj];
        }
        x
    }

    /// Solves `Aᵀ x = b`.
    pub fn solve_transposed(&self, b: &[f64]) -> Vec<f64> {
        debug_assert_eq!(b.len(), self.n);
        let n = self.n;
        // w = Qᵀ b, then Uᵀ s = w, then Lᵀ t = s, then x = Pᵀ t.
        let w: Vec<f64> = (0..n).map(|jj| b[self.col_order[jj]]).collect();
        let mut s = vec![0.0; n];
        for jj in 0..n {
            let mut v = w[jj];
            for p in self.u_colptr[jj]..self.u_colptr[jj + 1] {
                v -= self.u_vals[p] * s[self.u_rows[p]];
            }
            s[jj] = v / self.u_diag[jj];
        }
        for jj in (0..n).rev() {
            let mut v = s[jj];
            for p in self.l_colptr[jj]..self.l_colptr[jj + 1] {
                v -= self.l_vals[p] * s[self.l_rows[p]];
            }
            s[jj] = v;
        }
        let mut x = vec![0.0; n];
        for (i, &si) in s.iter().enumerate() {
            x[self.perm[i]] = si;
        }
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Matrix;

    /// Factors `a` in the simplex basis order with a fresh workspace.
    fn factor(a: &CscMatrix) -> Result<SparseLu> {
        let sym = LuSymbolic::by_column_count(a)?;
        SparseLu::factorize(a, &sym, &mut SparseWorkspace::new())
    }

    fn example() -> Matrix {
        Matrix::from_rows(&[
            &[2.0, 0.0, 0.0, 1.0],
            &[0.0, 3.0, 0.0, 0.0],
            &[1.0, 0.0, 4.0, 0.0],
            &[0.0, 1.0, 0.0, 5.0],
        ])
    }

    #[test]
    fn solve_matches_dense() {
        let d = example();
        let s = CscMatrix::from_dense(&d);
        let lu = factor(&s).unwrap();
        let x_true = vec![1.0, -2.0, 0.5, 3.0];
        let b = d.matvec(&x_true);
        let x = lu.solve(&b);
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-12, "{x:?} vs {x_true:?}");
        }
    }

    #[test]
    fn solve_transposed_matches_dense() {
        let d = example();
        let s = CscMatrix::from_dense(&d);
        let lu = factor(&s).unwrap();
        let x_true = vec![0.25, 1.0, -1.5, 2.0];
        let b = d.matvec_transposed(&x_true);
        let x = lu.solve_transposed(&b);
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-12, "{x:?} vs {x_true:?}");
        }
    }

    #[test]
    fn singular_matrix_rejected() {
        // Column 2 is a multiple of column 0.
        let d = Matrix::from_rows(&[&[1.0, 0.0, 2.0], &[3.0, 1.0, 6.0], &[-1.0, 0.0, -2.0]]);
        let s = CscMatrix::from_dense(&d);
        assert!(matches!(factor(&s), Err(LinalgError::Singular { .. })));
    }

    #[test]
    fn column_count_order_puts_singletons_first_and_breaks_ties_by_position() {
        // Column counts 3, 1, 5, 1, 2: the two unit columns lead in
        // position order, the 5-entry hub goes last.
        let d = Matrix::from_rows(&[
            &[1.0, 0.0, 4.0, 0.0, 0.0],
            &[0.0, 1.0, 1.0, 0.0, 0.0],
            &[1.0, 0.0, 1.0, 0.0, 2.0],
            &[0.0, 0.0, 1.0, 1.0, 0.0],
            &[3.0, 0.0, 1.0, 0.0, 1.0],
        ]);
        let s = CscMatrix::from_dense(&d);
        let sym = LuSymbolic::by_column_count(&s).unwrap();
        assert_eq!(sym.col_order, vec![1, 3, 4, 0, 2]);
        let lu = SparseLu::factorize(&s, &sym, &mut SparseWorkspace::new()).unwrap();
        let x_true = vec![1.0, -2.0, 0.5, 3.0, -1.0];
        let x = lu.solve(&d.matvec(&x_true));
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-12, "{x:?} vs {x_true:?}");
        }
        let rect = CscMatrix::from_dense(&Matrix::zeros(2, 3));
        assert!(LuSymbolic::by_column_count(&rect).is_err());
    }

    #[test]
    fn symbolic_reuse_across_value_sets() {
        let d = example();
        let s1 = CscMatrix::from_dense(&d);
        let sym = LuSymbolic::by_column_count(&s1).unwrap();
        let mut ws = SparseWorkspace::new();
        let _ = SparseLu::factorize(&s1, &sym, &mut ws).unwrap();
        // Same pattern, different values — reuse symbolic + workspace.
        let mut d2 = d.clone();
        d2[(0, 0)] = 7.0;
        d2[(3, 3)] = -2.0;
        let s2 = CscMatrix::from_dense(&d2);
        let lu2 = SparseLu::factorize(&s2, &sym, &mut ws).unwrap();
        let x_true = vec![1.0, 2.0, 3.0, 4.0];
        let x = lu2.solve(&d2.matvec(&x_true));
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-12);
        }
    }
}
