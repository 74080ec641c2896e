//! Property tests for the dense factorizations on random matrices.

use hslb_linalg::{lu, Cholesky, Lu, Matrix, Qr};
use hslb_rng::Rng;

const CASES: usize = 100;

/// Random well-conditioned square matrix: D + R with dominant diagonal.
fn square(rng: &mut Rng, n: usize) -> Matrix {
    let data = rng.vec_f64(n * n, -1.0, 1.0);
    let mut m = Matrix::from_vec(n, n, data).expect("sized correctly");
    for i in 0..n {
        let row_sum: f64 = (0..n).map(|j| m[(i, j)].abs()).sum();
        m[(i, i)] += row_sum + 1.0; // strict diagonal dominance
    }
    m
}

/// Random SPD matrix: AᵀA + I.
fn spd(rng: &mut Rng, n: usize) -> Matrix {
    let data = rng.vec_f64(n * n, -1.0, 1.0);
    let a = Matrix::from_vec(n, n, data).expect("sized correctly");
    let mut g = a.transpose().matmul(&a).expect("square times square");
    g.add_diagonal(1.0);
    g
}

#[test]
fn lu_solve_inverts_matvec() {
    let mut rng = Rng::new(hslb_rng::seeds::TESTKIT ^ 0x11);
    for case in 0..CASES {
        let a = square(&mut rng, 4);
        let x = rng.vec_f64(4, -5.0, 5.0);
        let b = a.matvec(&x);
        let solved = lu::solve(&a, &b).expect("diagonally dominant is nonsingular");
        for (s, t) in solved.iter().zip(&x) {
            assert!((s - t).abs() < 1e-8, "case {case}: {solved:?} vs {x:?}");
        }
    }
}

#[test]
fn lu_determinant_sign_flips_with_row_swap() {
    let mut rng = Rng::new(hslb_rng::seeds::TESTKIT ^ 0x12);
    for case in 0..CASES {
        let a = square(&mut rng, 3);
        let d0 = Lu::new(&a).expect("nonsingular").det();
        let mut swapped = a.clone();
        swapped.swap_rows(0, 1);
        let d1 = Lu::new(&swapped).expect("nonsingular").det();
        assert!(
            (d0 + d1).abs() < 1e-8 * d0.abs().max(1.0),
            "case {case}: {d0} vs {d1}"
        );
    }
}

#[test]
fn cholesky_solve_inverts_matvec() {
    let mut rng = Rng::new(hslb_rng::seeds::TESTKIT ^ 0x13);
    for case in 0..CASES {
        let a = spd(&mut rng, 4);
        let x = rng.vec_f64(4, -5.0, 5.0);
        let ch = Cholesky::new(&a).expect("SPD by construction");
        let b = a.matvec(&x);
        let solved = ch.solve(&b);
        for (s, t) in solved.iter().zip(&x) {
            assert!((s - t).abs() < 1e-7, "case {case}: {solved:?} vs {x:?}");
        }
    }
}

#[test]
fn cholesky_factor_reconstructs() {
    let mut rng = Rng::new(hslb_rng::seeds::TESTKIT ^ 0x14);
    for case in 0..CASES {
        let a = spd(&mut rng, 3);
        let ch = Cholesky::new(&a).expect("SPD");
        let l = ch.factor();
        let recon = l.matmul(&l.transpose()).expect("square");
        for i in 0..3 {
            for j in 0..3 {
                assert!((recon[(i, j)] - a[(i, j)]).abs() < 1e-9, "case {case}");
            }
        }
    }
}

#[test]
fn qr_least_squares_residual_is_orthogonal() {
    let mut rng = Rng::new(hslb_rng::seeds::TESTKIT ^ 0x15);
    for case in 0..CASES {
        let data = rng.vec_f64(6 * 3, -2.0, 2.0);
        let b = rng.vec_f64(6, -5.0, 5.0);
        let mut a = Matrix::from_vec(6, 3, data).expect("sized correctly");
        // Full column rank nudge.
        for j in 0..3 {
            a[(j, j)] += 3.0;
        }
        let qr = Qr::new(&a).expect("tall matrix");
        let x = qr.solve_least_squares(&b).expect("full rank");
        let ax = a.matvec(&x);
        let r: Vec<f64> = b.iter().zip(&ax).map(|(bi, ai)| bi - ai).collect();
        let atr = a.matvec_transposed(&r);
        for v in atr {
            assert!(v.abs() < 1e-7, "case {case}: residual not orthogonal: {v}");
        }
    }
}

#[test]
fn matmul_is_associative() {
    let mut rng = Rng::new(hslb_rng::seeds::TESTKIT ^ 0x16);
    for case in 0..CASES {
        let a = Matrix::from_vec(3, 3, rng.vec_f64(9, -2.0, 2.0)).expect("sized");
        let b = Matrix::from_vec(3, 3, rng.vec_f64(9, -2.0, 2.0)).expect("sized");
        let c = Matrix::from_vec(3, 3, rng.vec_f64(9, -2.0, 2.0)).expect("sized");
        let ab_c = a.matmul(&b).expect("3x3").matmul(&c).expect("3x3");
        let a_bc = a.matmul(&b.matmul(&c).expect("3x3")).expect("3x3");
        for i in 0..3 {
            for j in 0..3 {
                assert!((ab_c[(i, j)] - a_bc[(i, j)]).abs() < 1e-10, "case {case}");
            }
        }
    }
}

#[test]
fn transpose_matvec_duality() {
    let mut rng = Rng::new(hslb_rng::seeds::TESTKIT ^ 0x17);
    for case in 0..CASES {
        // <Ax, y> == <x, Aᵀy>
        let a = Matrix::from_vec(3, 4, rng.vec_f64(12, -2.0, 2.0)).expect("sized");
        let x = rng.vec_f64(4, -3.0, 3.0);
        let y = rng.vec_f64(3, -3.0, 3.0);
        let ax = a.matvec(&x);
        let aty = a.matvec_transposed(&y);
        let lhs: f64 = ax.iter().zip(&y).map(|(p, q)| p * q).sum();
        let rhs: f64 = x.iter().zip(&aty).map(|(p, q)| p * q).sum();
        assert!((lhs - rhs).abs() < 1e-10, "case {case}");
    }
}

// ---------------------------------------------------------------------------
// Sparse kernels, on testkit-seeded random sparsity patterns. The sparse LU
// is differentially pinned against the dense oracle's solves and verdicts.

use hslb_linalg::{CscMatrix, LuSymbolic, SparseLu, SparseWorkspace};

/// Random sparse square matrix with a dominant diagonal (nonsingular by
/// construction) and ~`density` off-diagonal fill.
fn sparse_square(rng: &mut Rng, n: usize, density: f64) -> Matrix {
    let mut m = Matrix::zeros(n, n);
    let mut diag_boost = vec![1.0_f64; n];
    for i in 0..n {
        for j in 0..n {
            if i != j && rng.bool(density) {
                let v = rng.f64_range(-2.0, 2.0);
                m[(i, j)] = v;
                diag_boost[i] += v.abs();
            }
        }
    }
    for i in 0..n {
        m[(i, i)] = diag_boost[i] * rng.f64_range(1.0, 2.0);
    }
    m
}

#[test]
fn csc_dense_round_trip() {
    let mut rng = Rng::new(hslb_rng::seeds::TESTKIT ^ 0x21);
    for case in 0..CASES {
        let n = 1 + (case % 9);
        let d = sparse_square(&mut rng, n, 0.3);
        let s = CscMatrix::from_dense(&d);
        let back = s.to_dense();
        for i in 0..n {
            for j in 0..n {
                assert_eq!(back[(i, j)], d[(i, j)], "case {case} at ({i},{j})");
            }
        }
        // And through CSR.
        assert_eq!(s.to_csr().to_csc(), s, "case {case}: csr round trip");
        // Structural nonzero count matches the dense census.
        let dense_nnz = (0..n)
            .flat_map(|i| (0..n).map(move |j| (i, j)))
            .filter(|&(i, j)| d[(i, j)] != 0.0)
            .count();
        assert_eq!(s.nnz(), dense_nnz, "case {case}: nnz");
    }
}

/// A simplex-basis-shaped matrix: unit slack columns on a shuffled set of
/// rows, a few random structural columns, and one hub column with an entry
/// in every row (an OA master's epigraph column). Every non-unit column
/// dominates on its own row, so the matrix is nonsingular.
fn basis_shaped(rng: &mut Rng, n: usize) -> Matrix {
    let mut own: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut own);
    let hub = rng.usize_range(0, n);
    let mut m = Matrix::zeros(n, n);
    for (j, &r) in own.iter().enumerate() {
        let density = if j == hub {
            1.0
        } else if rng.bool(0.15) {
            0.3
        } else {
            m[(r, j)] = 1.0;
            continue;
        };
        let mut off = 0.0_f64;
        for i in (0..n).filter(|&i| i != r) {
            if rng.bool(density) {
                let v = rng.f64_range(-2.0, 2.0);
                m[(i, j)] = v;
                off += v.abs();
            }
        }
        m[(r, j)] = (1.0 + off) * rng.f64_range(1.0, 2.0);
    }
    m
}

/// Checks `lu` against the dense oracle: `A x = e_k` for every unit
/// right-hand side (equivalent to L·U = P·A·Q) and `Aᵀ x = Aᵀ y`.
fn assert_lu_matches_dense(lu: &SparseLu, d: &Matrix, y: &[f64], case: &str) {
    let n = d.rows();
    let scale = d.max_abs().max(1.0);
    for unit in 0..n {
        let mut b = vec![0.0; n];
        b[unit] = 1.0;
        let xs = lu.solve(&b);
        let xd = hslb_linalg::lu::solve(d, &b).expect("nonsingular");
        for (i, (a_, b_)) in xs.iter().zip(&xd).enumerate() {
            assert!(
                (a_ - b_).abs() < 1e-9 * scale,
                "{case} col {unit} row {i}: sparse {a_} dense {b_}"
            );
        }
    }
    let yt = lu.solve_transposed(&d.matvec_transposed(y));
    for (a_, b_) in yt.iter().zip(y) {
        assert!((a_ - b_).abs() < 1e-8 * scale, "{case}: transposed");
    }
}

/// Every matrix is factored in ascending column-count order
/// (`LuSymbolic::by_column_count`, the simplex basis order).
#[test]
fn sparse_lu_reconstructs_pa() {
    let mut rng = Rng::new(hslb_rng::seeds::TESTKIT ^ 0x22);
    let mut basis_rng = Rng::new(hslb_rng::seeds::TESTKIT ^ 0x27);
    let mut ws = SparseWorkspace::new();
    for case in 0..CASES {
        let n = 2 + (case % 12);
        let random = sparse_square(&mut rng, n, 0.25);
        let y = rng.vec_f64(n, -3.0, 3.0);
        let m = 2 + (case % 40);
        let basis = basis_shaped(&mut basis_rng, m);
        let basis_y = basis_rng.vec_f64(m, -3.0, 3.0);
        for (kind, d, y) in [("random", &random, &y), ("basis", &basis, &basis_y)] {
            let s = CscMatrix::from_dense(d);
            let sym = LuSymbolic::by_column_count(&s).expect("square");
            let lu = SparseLu::factorize(&s, &sym, &mut ws).expect("nonsingular");
            assert_lu_matches_dense(&lu, d, y, &format!("case {case} {kind}"));
        }
    }
}

#[test]
fn sparse_singular_rejection_matches_dense_error_type() {
    let mut rng = Rng::new(hslb_rng::seeds::TESTKIT ^ 0x24);
    for case in 0..CASES {
        let n = 3 + (case % 8);
        let mut d = sparse_square(&mut rng, n, 0.3);
        // Make it rank deficient: duplicate a scaled column.
        let (src, dst) = (case % n, (case + 1) % n);
        let factor = rng.f64_range(0.5, 2.0);
        for i in 0..n {
            let v = d[(i, src)];
            d[(i, dst)] = v * factor;
        }
        let s = CscMatrix::from_dense(&d);
        let sym = LuSymbolic::by_column_count(&s).expect("square");
        let sparse_err =
            SparseLu::factorize(&s, &sym, &mut SparseWorkspace::new()).expect_err("rank deficient");
        let dense_err = Lu::new(&d).expect_err("rank deficient");
        assert!(
            matches!(sparse_err, hslb_linalg::LinalgError::Singular { .. }),
            "case {case}: sparse error {sparse_err:?}"
        );
        assert!(
            matches!(dense_err, hslb_linalg::LinalgError::Singular { .. }),
            "case {case}: dense error {dense_err:?}"
        );
    }
}
