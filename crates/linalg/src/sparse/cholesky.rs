//! Sparse Cholesky: up-looking numeric factorization under a reusable
//! symbolic analysis (fill-reducing order, elimination tree, column
//! counts, and a value-index map into the analyzed matrix pattern).
// lint:allow-file(slice-index): sparse factorization kernel — indices are
// elimination-tree nodes and compressed-storage offsets validated against
// the matrix dimension at entry; iterator forms would obscure the
// ereach/scatter recurrences.

use super::csc::CscMatrix;
use super::{ordering, SparseWorkspace, NONE};
use crate::{LinalgError, Result};

/// Smallest regularization shift relative to the largest diagonal entry —
/// the same floor the dense [`crate::Cholesky::new_regularized`] uses, so
/// the two backends rescue semidefinite Hessians identically.
const MIN_SHIFT_REL: f64 = 1e-12;

/// Shift growth cap, relative to the diagonal scale (mirrors dense).
const SHIFT_LIMIT_REL: f64 = 1e8;

/// Geometric growth factor for the regularization shift (mirrors dense).
const SHIFT_GROWTH: f64 = 10.0;

/// Symbolic analysis of a symmetric sparsity pattern, computed once and
/// reused across every numeric factorization with that pattern — the
/// "analyze once per solve, re-analyze never" contract the barrier solver
/// relies on across Newton steps.
#[derive(Debug, Clone)]
pub struct CholSymbolic {
    n: usize,
    /// Fill-reducing permutation: `perm[k]` = original index at position `k`.
    perm: Vec<usize>,
    /// Elimination tree over permuted indices (`NONE` = root).
    parent: Vec<usize>,
    /// Column pointers of the factor `L` (diagonal included).
    l_colptr: Vec<usize>,
    /// Permuted upper-triangle map: for permuted column `k`, the permuted
    /// rows `i <= k` and the index into the analyzed matrix's value array
    /// holding that cell. Numeric factorization reads values through this
    /// map, so it never re-derives the pattern.
    amap_ptr: Vec<usize>,
    amap_row: Vec<usize>,
    amap_val: Vec<usize>,
    /// Nonzero count of the analyzed matrix — numeric factorization
    /// requires the same storage layout so the value map stays valid.
    analyzed_nnz: usize,
}

impl CholSymbolic {
    /// Analyzes a symmetric matrix's pattern. Only one triangle of each
    /// off-diagonal cell is read (the first stored occurrence); a caller
    /// passing a genuinely symmetric matrix gets identical values either
    /// way. Later numeric factorizations must present the *same pattern*
    /// (same `col_ptr`/`row_idx` layout) with possibly different values.
    pub fn analyze(a: &CscMatrix) -> Result<CholSymbolic> {
        if a.nrows() != a.ncols() {
            return Err(LinalgError::DimensionMismatch {
                expected: (a.nrows(), a.nrows()),
                got: (a.nrows(), a.ncols()),
            });
        }
        let n = a.nrows();
        let perm = {
            let mut order = ordering::min_degree(ordering::symmetric_adjacency(a));
            if order.len() < n {
                // Defensive: pad with any unlisted nodes (cannot happen for
                // well-formed adjacency, but an ordering must be total).
                let mut seen = vec![false; n];
                for &p in &order {
                    seen[p] = true;
                }
                for (p, &s) in seen.iter().enumerate() {
                    if !s {
                        order.push(p);
                    }
                }
            }
            order
        };
        let mut pinv = vec![0usize; n];
        for (k, &p) in perm.iter().enumerate() {
            pinv[p] = k;
        }

        // Permuted upper-triangle cells, deduplicated, column-major.
        let mut cells: Vec<(usize, usize, usize)> = Vec::with_capacity(a.nnz());
        for c in 0..n {
            let (rows, _) = a.col(c);
            let base = a.col_ptr()[c];
            for (off, &r) in rows.iter().enumerate() {
                let (pr, pc) = (pinv[r], pinv[c]);
                let (i2, j2) = if pr <= pc { (pr, pc) } else { (pc, pr) };
                cells.push((j2, i2, base + off));
            }
        }
        cells.sort_by_key(|&(j2, i2, _)| (j2, i2));
        cells.dedup_by_key(|&mut (j2, i2, _)| (j2, i2));
        let mut amap_ptr = vec![0usize; n + 1];
        let mut amap_row = Vec::with_capacity(cells.len());
        let mut amap_val = Vec::with_capacity(cells.len());
        for &(j2, i2, vi) in &cells {
            amap_ptr[j2 + 1] += 1;
            amap_row.push(i2);
            amap_val.push(vi);
        }
        for k in 0..n {
            amap_ptr[k + 1] += amap_ptr[k];
        }

        // Elimination tree (over permuted indices) with path compression.
        let mut parent = vec![NONE; n];
        let mut ancestor = vec![NONE; n];
        for k in 0..n {
            for &start in &amap_row[amap_ptr[k]..amap_ptr[k + 1]] {
                let mut node = start;
                while node != NONE && node < k {
                    let next = ancestor[node];
                    ancestor[node] = k;
                    if next == NONE {
                        parent[node] = k;
                        break;
                    }
                    node = next;
                }
            }
        }

        // Column counts of L via the same row-pattern walk (ereach) the
        // numeric phase performs; the diagonal is always present.
        let mut counts = vec![1usize; n];
        let mut flag = vec![0u64; n];
        let mut stamp = 0u64;
        for k in 0..n {
            stamp += 1;
            for &start in &amap_row[amap_ptr[k]..amap_ptr[k + 1]] {
                let mut node = start;
                while node != NONE && node < k && flag[node] != stamp {
                    flag[node] = stamp;
                    counts[node] += 1;
                    node = parent[node];
                }
            }
        }
        let mut l_colptr = vec![0usize; n + 1];
        for (j, &c) in counts.iter().enumerate() {
            l_colptr[j + 1] = l_colptr[j] + c;
        }

        Ok(CholSymbolic {
            n,
            perm,
            parent,
            l_colptr,
            amap_ptr,
            amap_row,
            amap_val,
            analyzed_nnz: a.nnz(),
        })
    }

    pub fn n(&self) -> usize {
        self.n
    }

    /// Predicted factor nonzeros (diagonal included).
    pub fn predicted_fill(&self) -> usize {
        *self.l_colptr.last().unwrap_or(&0)
    }
}

/// Sparse Cholesky factor `P A Pᵀ = L Lᵀ` (diagonal stored as the first
/// entry of each column).
#[derive(Debug, Clone)]
pub struct SparseCholesky {
    n: usize,
    l_colptr: Vec<usize>,
    l_rows: Vec<usize>,
    l_vals: Vec<f64>,
    perm: Vec<usize>,
}

impl SparseCholesky {
    /// One-shot convenience: analyze + factorize with a local workspace.
    pub fn new(a: &CscMatrix) -> Result<SparseCholesky> {
        let sym = CholSymbolic::analyze(a)?;
        let mut ws = SparseWorkspace::new();
        SparseCholesky::factorize(a, &sym, &mut ws)
    }

    /// Numeric factorization under a previously computed symbolic
    /// analysis. `a` must have the exact pattern `sym` was analyzed on.
    pub fn factorize(
        a: &CscMatrix,
        sym: &CholSymbolic,
        ws: &mut SparseWorkspace,
    ) -> Result<SparseCholesky> {
        SparseCholesky::factorize_shifted(a, sym, 0.0, ws)
    }

    /// Factorizes `A + shift·I` (in the permuted ordering) — the building
    /// block for [`SparseCholesky::factorize_regularized`].
    pub fn factorize_shifted(
        a: &CscMatrix,
        sym: &CholSymbolic,
        shift: f64,
        ws: &mut SparseWorkspace,
    ) -> Result<SparseCholesky> {
        if a.nrows() != a.ncols() || a.nrows() != sym.n || a.nnz() != sym.analyzed_nnz {
            return Err(LinalgError::DimensionMismatch {
                expected: (sym.n, sym.n),
                got: (a.nrows(), a.ncols()),
            });
        }
        let n = sym.n;
        ws.ensure(n);
        let vals = a.values();
        let fill = sym.predicted_fill();
        let mut l_rows = vec![0usize; fill];
        let mut l_vals = vec![0.0f64; fill];
        // Next free slot per column; the diagonal claims the first slot
        // when its row is processed, later rows append in order.
        let mut cursor: Vec<usize> = sym.l_colptr[..n].to_vec();

        for k in 0..n {
            // Row pattern of L(k, :): climb the etree from each stored
            // upper-triangle row of permuted column k.
            ws.stamp += 1;
            ws.topo.clear();
            let mut d = shift;
            for p in sym.amap_ptr[k]..sym.amap_ptr[k + 1] {
                let i = sym.amap_row[p];
                let v = vals[sym.amap_val[p]];
                if i == k {
                    d += v;
                    continue;
                }
                ws.x[i] = v;
                let mut node = i;
                while node != NONE && node < k && ws.flag[node] != ws.stamp {
                    ws.flag[node] = ws.stamp;
                    ws.topo.push(node);
                    node = sym.parent[node];
                }
            }
            // Updates flow from lower to higher pattern indices, so
            // ascending order is a valid topological processing order.
            ws.topo.sort_unstable();

            for &j in &ws.topo {
                let lkj = ws.x[j] / l_vals[sym.l_colptr[j]];
                ws.x[j] = 0.0;
                for p in sym.l_colptr[j] + 1..cursor[j] {
                    ws.x[l_rows[p]] -= l_vals[p] * lkj;
                }
                d -= lkj * lkj;
                l_rows[cursor[j]] = k;
                l_vals[cursor[j]] = lkj;
                cursor[j] += 1;
            }
            if d <= 0.0 || !d.is_finite() {
                return Err(LinalgError::NotPositiveDefinite { row: sym.perm[k] });
            }
            l_rows[cursor[k]] = k;
            l_vals[cursor[k]] = d.sqrt();
            cursor[k] += 1;
        }

        Ok(SparseCholesky {
            n,
            l_colptr: sym.l_colptr.clone(),
            l_rows,
            l_vals,
            perm: sym.perm.clone(),
        })
    }

    /// Factorizes `A + λI`, geometrically growing `λ` from `initial_shift`
    /// until positive definite — semantics mirror the dense
    /// [`crate::Cholesky::new_regularized`], returning the shift used.
    pub fn factorize_regularized(
        a: &CscMatrix,
        sym: &CholSymbolic,
        initial_shift: f64,
        ws: &mut SparseWorkspace,
    ) -> Result<(SparseCholesky, f64)> {
        if let Ok(ch) = SparseCholesky::factorize_shifted(a, sym, 0.0, ws) {
            return Ok((ch, 0.0));
        }
        // Mirrors the dense guard: non-finite entries are unrescuable, and an
        // infinite diagonal would push `limit` to infinity, where the growth
        // loop can no longer terminate (`shift` saturates at `inf <= inf`).
        if !a.values().iter().all(|v| v.is_finite()) {
            return Err(LinalgError::NotPositiveDefinite { row: 0 });
        }
        let mut max_diag = f64::EPSILON;
        for k in 0..sym.n {
            for p in sym.amap_ptr[k]..sym.amap_ptr[k + 1] {
                if sym.amap_row[p] == k {
                    if let Some(v) = a.values().get(sym.amap_val[p]) {
                        max_diag = max_diag.max(v.abs());
                    }
                }
            }
        }
        let mut shift = initial_shift.max(MIN_SHIFT_REL * max_diag);
        let limit = SHIFT_LIMIT_REL * max_diag.max(1.0);
        while shift <= limit && shift.is_finite() {
            if let Ok(ch) = SparseCholesky::factorize_shifted(a, sym, shift, ws) {
                return Ok((ch, shift));
            }
            shift *= SHIFT_GROWTH;
        }
        Err(LinalgError::NotPositiveDefinite { row: 0 })
    }

    pub fn n(&self) -> usize {
        self.n
    }

    /// Stored factor nonzeros (diagonal included).
    pub fn fill_nnz(&self) -> usize {
        self.l_vals.len()
    }

    /// Solves `A x = b` through `P A Pᵀ = L Lᵀ`.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        debug_assert_eq!(b.len(), self.n);
        let n = self.n;
        let mut y: Vec<f64> = (0..n).map(|k| b[self.perm[k]]).collect();
        // Forward: L y = P b (column-oriented, diagonal first per column).
        for j in 0..n {
            let lo = self.l_colptr[j];
            let hi = self.l_colptr[j + 1];
            let yj = y[j] / self.l_vals[lo];
            y[j] = yj;
            for p in lo + 1..hi {
                y[self.l_rows[p]] -= self.l_vals[p] * yj;
            }
        }
        // Backward: Lᵀ z = y via column dot-products.
        for j in (0..n).rev() {
            let lo = self.l_colptr[j];
            let hi = self.l_colptr[j + 1];
            let mut s = y[j];
            for p in lo + 1..hi {
                s -= self.l_vals[p] * y[self.l_rows[p]];
            }
            y[j] = s / self.l_vals[lo];
        }
        let mut x = vec![0.0; n];
        for (k, &yk) in y.iter().enumerate() {
            x[self.perm[k]] = yk;
        }
        x
    }

    /// The factor in `(col_ptr, rows, values)` form, for tests.
    pub fn factor_parts(&self) -> (&[usize], &[usize], &[f64]) {
        (&self.l_colptr, &self.l_rows, &self.l_vals)
    }

    /// The fill-reducing permutation used (`perm[k]` = original index).
    pub fn permutation(&self) -> &[usize] {
        &self.perm
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Matrix;

    fn spd() -> Matrix {
        Matrix::from_rows(&[
            &[4.0, 1.0, 0.0, 0.0],
            &[1.0, 5.0, 0.0, 1.0],
            &[0.0, 0.0, 3.0, 0.0],
            &[0.0, 1.0, 0.0, 6.0],
        ])
    }

    #[test]
    fn solve_matches_dense() {
        let d = spd();
        let s = CscMatrix::from_dense(&d);
        let ch = SparseCholesky::new(&s).unwrap();
        let x_true = vec![1.0, -1.0, 2.0, 0.5];
        let b = d.matvec(&x_true);
        let x = ch.solve(&b);
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-12, "{x:?} vs {x_true:?}");
        }
    }

    #[test]
    fn rejects_indefinite() {
        let d = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]);
        let s = CscMatrix::from_dense(&d);
        assert!(matches!(
            SparseCholesky::new(&s),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn regularized_recovers_indefinite() {
        let d = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]);
        let s = CscMatrix::from_dense(&d);
        let sym = CholSymbolic::analyze(&s).unwrap();
        let mut ws = SparseWorkspace::new();
        let (ch, shift) = SparseCholesky::factorize_regularized(&s, &sym, 1e-8, &mut ws).unwrap();
        assert!(shift > 0.0);
        assert!(ch.solve(&[1.0, 1.0]).iter().all(|v| v.is_finite()));
    }

    #[test]
    fn regularized_rejects_non_finite_instead_of_spinning() {
        // Twin of the dense test: an infinite diagonal once made the shift
        // limit infinite and the growth loop unterminating.
        let d = Matrix::from_rows(&[&[f64::INFINITY, 2.0], &[2.0, -1.0]]);
        let s = CscMatrix::from_dense(&d);
        let sym = CholSymbolic::analyze(&s).unwrap();
        let mut ws = SparseWorkspace::new();
        assert!(SparseCholesky::factorize_regularized(&s, &sym, 1e-8, &mut ws).is_err());
    }

    #[test]
    fn symbolic_reuse_across_newton_like_value_changes() {
        let d = spd();
        let s1 = CscMatrix::from_dense(&d);
        let sym = CholSymbolic::analyze(&s1).unwrap();
        let mut ws = SparseWorkspace::new();
        let _ = SparseCholesky::factorize(&s1, &sym, &mut ws).unwrap();
        // Same pattern, scaled values — the Newton-step shape.
        let mut s2 = s1.clone();
        for v in s2.values_mut() {
            *v *= 2.5;
        }
        let ch = SparseCholesky::factorize(&s2, &sym, &mut ws).unwrap();
        let d2 = s2.to_dense();
        let x_true = vec![0.5, 1.5, -2.0, 1.0];
        let x = ch.solve(&d2.matvec(&x_true));
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-12);
        }
    }
}
