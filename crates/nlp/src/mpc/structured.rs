//! O(k) factorization of the condensed matrix of min–max relaxations.
//!
//! A min–max relaxation's condensed matrix `M = D + Σᵢ wᵢ gᵢgᵢᵀ` is
//! diagonal except for a few dense lines. Each `t_ge_j` row couples one
//! fragment count `n_j` to the epigraph column `t`, and the node budget
//! couples every `n_j` to every other. [`Pattern::detect`] recognises that
//! shape once per solve from the rows' free supports:
//!
//! - a row whose free support has more than [`MAX_CONDENSED_SUPPORT`]
//!   columns is **bordered**: it enters as a rank-one term `w uuᵀ`;
//! - a column in at least [`HUB_MIN_ROWS`] of the other (condensed) rows
//!   is a **hub**, like `t`;
//! - every other column is **plain**, and the structure is accepted only
//!   when no condensed row has two plain columns and its factorization is
//!   cheaper than the dense one ([`DENSE_COST_MARGIN`]).
//!
//! [`StructuredKkt`] then assembles `M` in O(nnz) as a plain block
//! `A = D + Σ_b w_b u_b u_bᵀ`, a plain-by-hub block `B` and a hub block `C`,
//! and factors it as a genuine LDLᵀ of `M`, plain columns first. The plain
//! block starts from its diagonal and takes one product-form rank-one
//! update per bordered row (Gill, Golub, Murray & Saunders, *Methods for
//! modifying matrix factorizations*, Math. Comp. 1974, method C1), O(k)
//! each; the h hub columns take a dense h×h Cholesky of the Schur
//! complement `S = C − Bᵀ A⁻¹ B`. With h hubs and r bordered rows a
//! factorization costs O(k(h+r)² + (h+r)³) and a solve O(k(h+r) + h²): an
//! FMO root (h = r = 1) steps in O(k). Every buffer is sized once per
//! solve, so a Newton step allocates only its solutions.
//!
//! The pivots are a Cholesky's, so the factor has the dense path's
//! stability in this symmetric ordering. Two cheaper-looking forms are
//! not: Sherman–Morrison–Woodbury on the bordered rows cancels once the
//! hub rows dominate, and eliminating a bordered row's multiplier as its
//! own unknown leaves the plain pivots without that row's weight.

use super::augmented_system::{Condensed, SystemError};
use crate::barrier::HESS_CHOL_REG;

/// Rows whose free support has more columns than this are bordered.
const MAX_CONDENSED_SUPPORT: usize = 2;
/// A column in at least this many condensed rows is a hub.
const HUB_MIN_ROWS: usize = 2;
/// The structure is taken only when its factorization, weighted by this
/// factor, costs less than the dense Cholesky's k³:
/// `margin·(k(h+r)² + (h+r)³) < k³`.
const DENSE_COST_MARGIN: u64 = 3;
/// Regularization ladder of `Cholesky::new_regularized`, which this factor
/// mirrors: the smallest shift relative to the largest diagonal entry, the
/// largest shift relative to it, and the growth per retry.
const MIN_SHIFT_REL: f64 = 1e-12;
const SHIFT_LIMIT_REL: f64 = 1e8;
const SHIFT_GROWTH: f64 = 10.0;

/// The shape of a solve's condensed matrix: which columns are hubs and
/// which rows are bordered. Fixed for the solve.
#[derive(Debug, Clone)]
pub(crate) struct Pattern {
    /// Hub index of each free column; `None` for a plain column.
    hub_of: Vec<Option<usize>>,
    /// Free column of each hub, increasing.
    hubs: Vec<usize>,
    /// Whether each row is bordered.
    bordered: Vec<bool>,
    /// Number of bordered rows.
    border_count: usize,
}

impl Pattern {
    /// Recognises the structure from each row's free support (free column
    /// indices below `k`, each row's sorted and distinct). `None` when the
    /// matrix does not have it, or when the dense Cholesky is cheaper.
    pub(crate) fn detect<'r>(
        k: usize,
        supports: impl Iterator<Item = &'r [usize]> + Clone,
    ) -> Option<Pattern> {
        let pattern = Pattern::classify(k, supports)?;
        let lines = (pattern.hubs.len() + pattern.border_count) as u64;
        let k64 = k as u64;
        let structured_cost = k64
            .saturating_mul(lines.saturating_mul(lines))
            .saturating_add(lines.saturating_mul(lines).saturating_mul(lines))
            .saturating_mul(DENSE_COST_MARGIN);
        (structured_cost < k64.saturating_mul(k64).saturating_mul(k64)).then_some(pattern)
    }

    /// The structure alone, whatever it costs: `None` when a condensed row
    /// has two plain columns, which would put an off-diagonal entry into
    /// the plain block.
    fn classify<'r>(
        k: usize,
        supports: impl Iterator<Item = &'r [usize]> + Clone,
    ) -> Option<Pattern> {
        let mut condensed_rows = vec![0usize; k];
        let mut bordered = Vec::new();
        for support in supports.clone() {
            let wide = support.len() > MAX_CONDENSED_SUPPORT;
            if !wide {
                for &c in support {
                    condensed_rows[c] += 1;
                }
            }
            bordered.push(wide);
        }
        let mut hubs = Vec::new();
        let mut hub_of = vec![None; k];
        for (c, &rows) in condensed_rows.iter().enumerate() {
            if rows >= HUB_MIN_ROWS {
                hub_of[c] = Some(hubs.len());
                hubs.push(c);
            }
        }
        for (support, &wide) in supports.zip(&bordered) {
            let plain_cols = support.iter().filter(|&&c| hub_of[c].is_none()).count();
            if !wide && plain_cols > 1 {
                return None;
            }
        }
        let border_count = bordered.iter().filter(|&&b| b).count();
        Some(Pattern {
            hub_of,
            hubs,
            bordered,
            border_count,
        })
    }

    /// Hub columns and bordered rows.
    #[cfg(test)]
    pub(crate) fn shape(&self) -> (usize, usize) {
        (self.hubs.len(), self.border_count)
    }
}

/// The structured KKT system of one solve: its [`Pattern`] and the buffers
/// every Newton step assembles and factors `M` into,
///
/// ```text
/// M = [ A   B ]    A = diag(d₀) + Σ_b w_b u_b u_bᵀ
///     [ Bᵀ  C ]
/// ```
///
/// over the plain columns, then the hubs. Vectors over the plain columns
/// are stored over all k free columns with zeros at the hubs (and pivots
/// of one there), so the plain-block recurrences pass hub entries through
/// untouched.
#[derive(Debug, Clone)]
pub(crate) struct StructuredKkt {
    pattern: Pattern,
    /// `d₀`: the diagonal of `M` on the plain columns.
    diag: Vec<f64>,
    /// `B`, hub-major: row `q` is hub `q`'s coupling to every column.
    cross: Vec<f64>,
    /// `C`, row-major `h × h`.
    hub: Vec<f64>,
    /// `w_b` per bordered row.
    border_weight: Vec<f64>,
    /// `u_b` per bordered row, one row of k entries each.
    border_u: Vec<f64>,
    /// Pivots of the plain block.
    d: Vec<f64>,
    /// The plain block's unit lower factor `L₁ L₂ ⋯ L_r`, one factor per
    /// bordered row, `L_f = I + strict_lower(p_f β_fᵀ)`: `p_f` and `β_f`
    /// are row `f` of these.
    p: Vec<f64>,
    beta: Vec<f64>,
    /// `A⁻¹B`, hub-major like `cross`.
    a_inv_b: Vec<f64>,
    /// Cholesky factor of the hub Schur complement, row-major lower.
    schur: Vec<f64>,
}

impl StructuredKkt {
    pub(crate) fn new(pattern: Pattern) -> StructuredKkt {
        let k = pattern.hub_of.len();
        let (h, r) = (pattern.hubs.len(), pattern.border_count);
        StructuredKkt {
            pattern,
            diag: vec![0.0; k],
            cross: vec![0.0; h * k],
            hub: vec![0.0; h * h],
            border_weight: vec![0.0; r],
            border_u: vec![0.0; r * k],
            d: vec![0.0; k],
            p: vec![0.0; r * k],
            beta: vec![0.0; r * k],
            a_inv_b: vec![0.0; h * k],
            schur: vec![0.0; h * h],
        }
    }

    /// Assembles and factors `m`, shifting its diagonal the way
    /// `Cholesky::new_regularized` does when `m` is not numerically
    /// positive definite.
    pub(crate) fn factor(&mut self, m: &Condensed) -> Result<(), SystemError> {
        self.assemble(m);
        if !self
            .diag
            .iter()
            .chain(&self.cross)
            .chain(&self.hub)
            .chain(&self.border_weight)
            .chain(&self.border_u)
            .all(|v| v.is_finite())
        {
            return Err(SystemError::NonFinite("condensed KKT matrix"));
        }
        if self.factor_shifted(0.0) {
            return Ok(());
        }
        let max_diag = self.max_diag().max(f64::EPSILON);
        let mut shift = HESS_CHOL_REG.max(MIN_SHIFT_REL * max_diag);
        let limit = SHIFT_LIMIT_REL * max_diag.max(1.0);
        while shift <= limit && shift.is_finite() {
            if self.factor_shifted(shift) {
                return Ok(());
            }
            shift *= SHIFT_GROWTH;
        }
        Err(SystemError::Factorization)
    }

    /// Writes `M = diag + Σᵢ (λᵢ/sᵢ) gᵢgᵢᵀ` into the matrix buffers, in
    /// O(nnz).
    fn assemble(&mut self, m: &Condensed) {
        let pattern = &self.pattern;
        let (k, h) = (pattern.hub_of.len(), pattern.hubs.len());
        self.cross.fill(0.0);
        self.hub.fill(0.0);
        self.border_u.fill(0.0);
        for (c, d) in self.diag.iter_mut().enumerate() {
            *d = if pattern.hub_of[c].is_none() {
                m.diag[c]
            } else {
                0.0
            };
        }
        let mut b = 0;
        for (i, (&lam, &s)) in m.lam.iter().zip(m.slack).enumerate() {
            let w = lam / s;
            let span = m.start[i]..m.start[i + 1];
            let entries = || m.col[span.clone()].iter().zip(&m.grad[span.clone()]);
            for (&c1, &g1) in entries() {
                let Some(q1) = pattern.hub_of[c1] else {
                    continue;
                };
                for (&c2, &g2) in entries() {
                    let v = w * g1 * g2;
                    match pattern.hub_of[c2] {
                        Some(q2) => self.hub[q1 * h + q2] += v,
                        None => self.cross[q1 * k + c2] += v,
                    }
                }
            }
            if pattern.bordered[i] {
                for (&c, &g) in entries() {
                    if pattern.hub_of[c].is_none() {
                        self.border_u[b * k + c] = g;
                    }
                }
                self.border_weight[b] = w;
                b += 1;
            } else {
                for (&c, &g) in entries() {
                    if pattern.hub_of[c].is_none() {
                        self.diag[c] += w * g * g;
                    }
                }
            }
        }
        // The hub block's diagonal goes in last, as the dense assembly adds
        // it.
        for (q, &c) in pattern.hubs.iter().enumerate() {
            self.hub[q * h + q] += m.diag[c];
        }
    }

    /// Largest |Mᵢᵢ|, the scale of the regularization ladder.
    fn max_diag(&self) -> f64 {
        let (k, h) = (self.pattern.hub_of.len(), self.pattern.hubs.len());
        let mut max = (0..h).fold(0.0_f64, |m, q| m.max(self.hub[q * h + q].abs()));
        for (c, &d) in self.diag.iter().enumerate() {
            let border: f64 = (0..self.pattern.border_count)
                .map(|b| self.border_weight[b] * self.border_u[b * k + c].powi(2))
                .sum();
            max = max.max((d + border).abs());
        }
        max
    }

    /// Factors `M + shift·I`; `false` on a pivot that is not positive and
    /// finite.
    fn factor_shifted(&mut self, shift: f64) -> bool {
        let pattern = &self.pattern;
        let (k, h) = (pattern.hub_of.len(), pattern.hubs.len());
        for ((d, &d0), hub) in self.d.iter_mut().zip(&self.diag).zip(&pattern.hub_of) {
            *d = if hub.is_none() { d0 + shift } else { 1.0 };
        }
        for b in 0..pattern.border_count {
            // A + w uuᵀ = L (D + w ppᵀ) Lᵀ with p = L⁻¹u; method C1 factors
            // the inner matrix as L̄ D̄ L̄ᵀ with L̄ᵢⱼ = pᵢβⱼ below the diagonal.
            let (done_p, p) = self.p.split_at_mut(b * k);
            let p = &mut p[..k];
            p.copy_from_slice(&self.border_u[b * k..][..k]);
            for (pf, bf) in done_p.chunks(k).zip(self.beta.chunks(k)) {
                forward(pf, bf, p);
            }
            let beta = &mut self.beta[b * k..][..k];
            let mut a = self.border_weight[b];
            for ((dj, &pj), bj) in self.d.iter_mut().zip(p.iter()).zip(beta) {
                let dbar = *dj + a * pj * pj;
                if dbar <= 0.0 || !dbar.is_finite() {
                    return false;
                }
                *bj = pj * a / dbar;
                a *= *dj / dbar;
                *dj = dbar;
            }
        }
        if self.d.iter().any(|&v| v <= 0.0 || !v.is_finite()) {
            return false;
        }
        if h == 0 {
            return true;
        }
        self.a_inv_b.copy_from_slice(&self.cross);
        for column in self.a_inv_b.chunks_mut(k) {
            solve_plain(&self.p, &self.beta, &self.d, column);
        }
        // S = C + shift·I − Bᵀ A⁻¹ B, then its Cholesky factor in place.
        let s = &mut self.schur;
        for q1 in 0..h {
            for q2 in 0..=q1 {
                let coupling: f64 = self.cross[q1 * k..][..k]
                    .iter()
                    .zip(&self.a_inv_b[q2 * k..][..k])
                    .map(|(b, z)| b * z)
                    .sum();
                s[q1 * h + q2] = self.hub[q1 * h + q2] - coupling;
            }
            s[q1 * h + q1] += shift;
        }
        for j in 0..h {
            let pivot = s[j * h + j] - (0..j).map(|c| s[j * h + c].powi(2)).sum::<f64>();
            if pivot <= 0.0 || !pivot.is_finite() {
                return false;
            }
            let ljj = pivot.sqrt();
            s[j * h + j] = ljj;
            for i in j + 1..h {
                let v = s[i * h + j] - (0..j).map(|c| s[i * h + c] * s[j * h + c]).sum::<f64>();
                s[i * h + j] = v / ljj;
            }
        }
        true
    }

    /// Solves `M x = v` over the free columns.
    pub(crate) fn solve(&self, v: &[f64]) -> Vec<f64> {
        let pattern = &self.pattern;
        let (k, h) = (v.len(), pattern.hubs.len());
        let mut x = v.to_vec();
        solve_plain(&self.p, &self.beta, &self.d, &mut x);
        if h == 0 {
            return x;
        }
        // The hub entries of `x` still hold v_H; each becomes its entry of
        // v_H − Bᵀ A⁻¹ v_N (`cross` is zero on the hub columns), then of the
        // Schur solve, in place.
        let hubs = &pattern.hubs;
        for (q, &c) in hubs.iter().enumerate() {
            let coupling: f64 = self.cross[q * k..][..k]
                .iter()
                .zip(&x)
                .map(|(b, xc)| b * xc)
                .sum();
            x[c] -= coupling;
        }
        let s = &self.schur;
        for i in 0..h {
            let v = x[hubs[i]] - (0..i).map(|c| s[i * h + c] * x[hubs[c]]).sum::<f64>();
            x[hubs[i]] = v / s[i * h + i];
        }
        for i in (0..h).rev() {
            let v = x[hubs[i]] - (i + 1..h).map(|c| s[c * h + i] * x[hubs[c]]).sum::<f64>();
            x[hubs[i]] = v / s[i * h + i];
        }
        // x_N = A⁻¹ v_N − A⁻¹B x_H (`a_inv_b` is zero on the hub columns).
        for (q, &c) in hubs.iter().enumerate() {
            let xq = x[c];
            for (xc, z) in x.iter_mut().zip(&self.a_inv_b[q * k..][..k]) {
                *xc -= z * xq;
            }
        }
        x
    }
}

/// `y ← A⁻¹ y` for `A = L D Lᵀ`, `L = L₁ L₂ ⋯` with `p_f`, `β_f` the rows
/// of `p` and `beta`; hub entries (zero `p`, `β`, unit pivot) pass
/// through.
fn solve_plain(p: &[f64], beta: &[f64], d: &[f64], y: &mut [f64]) {
    let k = y.len();
    let factors = || p.chunks(k).zip(beta.chunks(k));
    for (pf, bf) in factors() {
        forward(pf, bf, y);
    }
    for (yi, &di) in y.iter_mut().zip(d) {
        *yi /= di;
    }
    for (pf, bf) in factors().rev() {
        backward(pf, bf, y);
    }
}

/// `y ← L_f⁻¹ y` for `L_f = I + strict_lower(p βᵀ)`.
fn forward(p: &[f64], beta: &[f64], y: &mut [f64]) {
    let mut s = 0.0;
    for ((yi, &pi), &bi) in y.iter_mut().zip(p).zip(beta) {
        *yi -= pi * s;
        s += bi * *yi;
    }
}

/// `y ← L_f⁻ᵀ y` for `L_f = I + strict_lower(p βᵀ)`.
fn backward(p: &[f64], beta: &[f64], y: &mut [f64]) {
    let mut s = 0.0;
    for ((yi, &pi), &bi) in y.iter_mut().zip(p).zip(beta).rev() {
        *yi -= bi * s;
        s += pi * *yi;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hslb_linalg::{Cholesky, Matrix};
    use hslb_rng::Rng;

    /// Raw data of a condensed matrix `M = diag(base) + Σᵢ wᵢ gᵢgᵢᵀ`, laid
    /// out as the MPC loop's rows are.
    struct Case {
        k: usize,
        start: Vec<usize>,
        col: Vec<usize>,
        grad: Vec<f64>,
        weight: Vec<f64>,
        base: Vec<f64>,
    }

    impl Case {
        fn new(base: Vec<f64>) -> Case {
            Case {
                k: base.len(),
                start: vec![0],
                col: Vec::new(),
                grad: Vec::new(),
                weight: Vec::new(),
                base,
            }
        }

        /// Adds a row over `entries` (any column order) with weight `w`.
        fn row(&mut self, entries: &[(usize, f64)], w: f64) {
            let mut entries = entries.to_vec();
            entries.sort_by_key(|&(c, _)| c);
            for (c, g) in entries {
                self.col.push(c);
                self.grad.push(g);
            }
            self.start.push(self.col.len());
            self.weight.push(w);
        }

        fn supports(&self) -> impl Iterator<Item = &[usize]> + Clone {
            self.start.windows(2).map(|w| &self.col[w[0]..w[1]])
        }

        /// `M` as the MPC loop hands it over, with unit slacks so that the
        /// weights are the row weights.
        fn condensed<'a>(&'a self, ones: &'a [f64]) -> Condensed<'a> {
            Condensed {
                diag: self.base.clone(),
                lam: &self.weight,
                slack: ones,
                start: &self.start,
                col: &self.col,
                grad: &self.grad,
            }
        }

        /// The structured system factored on this case.
        fn factor(&self, pattern: &Pattern) -> Result<StructuredKkt, SystemError> {
            let ones = vec![1.0; self.weight.len()];
            let mut kkt = StructuredKkt::new(pattern.clone());
            kkt.factor(&self.condensed(&ones))?;
            Ok(kkt)
        }

        /// The same matrix assembled dense.
        fn dense(&self) -> Matrix {
            let mut m = Matrix::zeros(self.k, self.k);
            for (i, &w) in self.weight.iter().enumerate() {
                let span = self.start[i]..self.start[i + 1];
                for (&a, &ga) in self.col[span.clone()].iter().zip(&self.grad[span.clone()]) {
                    for (&b, &gb) in self.col[span.clone()].iter().zip(&self.grad[span.clone()]) {
                        m[(a, b)] += w * ga * gb;
                    }
                }
            }
            for (c, &d) in self.base.iter().enumerate() {
                m[(c, c)] += d;
            }
            m
        }
    }

    /// Normwise backward error `‖Mx − v‖ / (‖M‖‖x‖ + ‖v‖)`, infinity norms.
    fn backward_error(m: &Matrix, x: &[f64], v: &[f64]) -> f64 {
        let norm = |u: &[f64]| u.iter().fold(0.0_f64, |a, b| a.max(b.abs()));
        let r: Vec<f64> = m.matvec(x).iter().zip(v).map(|(a, b)| a - b).collect();
        norm(&r) / (m.inf_norm() * norm(x) + norm(v))
    }

    /// Backward error the structured solves must meet, unless the dense
    /// reference is looser still.
    const BACKWARD_TOL: f64 = 1e-13;

    /// Asserts the structured solve is backward stable on `case`, for a
    /// few right-hand sides: within `BACKWARD_TOL`, or no worse than ten
    /// times the dense reference (`Cholesky::new_regularized` on the
    /// assembled `M`) where that one is looser.
    fn assert_stable(case: &Case, pattern: &Pattern, rng: &mut Rng, what: &str) {
        let m = case.dense();
        let f = case.factor(pattern).expect("factors");
        let (dense, _) = Cholesky::new_regularized(&m, HESS_CHOL_REG).expect("dense factors");
        for _ in 0..3 {
            let v: Vec<f64> = (0..case.k).map(|_| rng.std_normal()).collect();
            let structured = backward_error(&m, &f.solve(&v), &v);
            let reference = backward_error(&m, &dense.solve(&v), &v);
            assert!(
                structured <= BACKWARD_TOL.max(10.0 * reference),
                "{what}: backward error {structured:e} (dense {reference:e})"
            );
        }
    }

    fn log_uniform(rng: &mut Rng, lo_exp: f64, hi_exp: f64) -> f64 {
        10f64.powf(rng.f64_range(lo_exp, hi_exp))
    }

    /// A random matrix of the structured shape: `h` hubs and `r` bordered
    /// rows over `k` columns, weights and diagonal from 1e-12 to 1e12.
    fn random_case(rng: &mut Rng, k: usize, h: usize, r: usize) -> Case {
        let base = (0..k).map(|_| log_uniform(rng, -12.0, 12.0)).collect();
        let mut case = Case::new(base);
        let mut cols: Vec<usize> = (0..k).collect();
        rng.shuffle(&mut cols);
        let (hubs, plain) = cols.split_at(h);
        for &c in plain {
            if rng.bool(0.8) {
                let g = log_uniform(rng, -3.0, 3.0) * if rng.bool(0.5) { 1.0 } else { -1.0 };
                let mut entries = vec![(c, g)];
                if !hubs.is_empty() {
                    entries.push((*rng.choose(hubs), -log_uniform(rng, -1.0, 1.0)));
                }
                case.row(&entries, log_uniform(rng, -12.0, 12.0));
            }
        }
        // Every hub needs two condensed rows; top them up with hub-only rows.
        for &q in hubs {
            let rows = case
                .supports()
                .filter(|s| s.len() <= 2 && s.contains(&q))
                .count();
            for _ in rows..HUB_MIN_ROWS {
                let g = log_uniform(rng, -1.0, 1.0);
                case.row(&[(q, g)], log_uniform(rng, -12.0, 12.0));
            }
        }
        for _ in 0..r {
            let width = rng.usize_range(MAX_CONDENSED_SUPPORT + 1, k);
            let mut support = cols.clone();
            rng.shuffle(&mut support);
            let ones = rng.bool(0.5);
            let entries: Vec<(usize, f64)> = support[..width]
                .iter()
                .map(|&c| (c, if ones { 1.0 } else { rng.f64_range(-2.0, 2.0) }))
                .collect();
            case.row(&entries, log_uniform(rng, -12.0, 12.0));
        }
        case
    }

    #[test]
    fn structured_solves_are_backward_stable_on_random_shapes() {
        let mut rng = Rng::new(0x57A0_C7ED);
        for case_no in 0..270 {
            let h = case_no % 3;
            let r = (case_no / 3) % 3;
            let k = match case_no % 10 {
                0 => 400,
                1 => rng.usize_range(160, 320),
                _ => rng.usize_range(h + 3, 60),
            };
            let case = random_case(&mut rng, k, h, r);
            let pattern = Pattern::classify(case.k, case.supports()).expect("structured shape");
            assert_eq!(pattern.shape(), (h, r), "case {case_no}");
            let what = format!("case {case_no}: k {k}, h {h}, r {r}");
            assert_stable(&case, &pattern, &mut rng, &what);
        }
    }

    /// Two columns, no structure to speak of: the smallest systems still
    /// solve exactly.
    #[test]
    fn two_column_systems_solve() {
        let mut rng = Rng::new(0x2C01);
        for h in 0..=1 {
            let mut case = Case::new(vec![log_uniform(&mut rng, -12.0, 12.0), 1e-3]);
            if h == 0 {
                case.row(&[(0, 2.0)], 1e6);
            } else {
                case.row(&[(0, 2.0), (1, -1.0)], 1e6);
            }
            case.row(&[(1, -1.0)], 1e-6);
            let pattern = Pattern::classify(2, case.supports()).expect("structured shape");
            assert_eq!(pattern.shape(), (h, 0));
            assert_stable(&case, &pattern, &mut rng, "two columns");
        }
    }

    /// CESM layout 2 at a root whose `t_ge_ice_lnd_atm` row is active and
    /// whose other rows are not: the bordered row's weight dwarfs every
    /// plain pivot it spans, and the hub `ocn` sees only inactive rows.
    /// Eliminating the bordered row's multiplier as its own unknown left
    /// these pivots without its weight and a residual of about 10 relative.
    #[test]
    fn active_bordered_row_over_inactive_plain_rows() {
        // ice, lnd, atm, ocn, t.
        let (ice, lnd, atm, ocn, t) = (0, 1, 2, 3, 4);
        let mut case = Case::new(vec![2.1e-3, 7.5e-4, 3.3e-3, 1.2e-3, 4.0e-9]);
        case.row(
            &[(ice, -0.731), (lnd, -0.0482), (atm, -2.86), (t, -1.0)],
            3.9e9,
        );
        case.row(&[(ocn, -0.154), (t, -1.0)], 2.2e-7);
        for c in [ice, lnd, atm] {
            case.row(&[(c, 1.0), (ocn, 1.0)], 6.1e-9);
        }
        let pattern = Pattern::detect(case.k, case.supports()).expect("layout 2 is structured");
        assert_eq!(pattern.shape(), (1, 1));
        let mut rng = Rng::new(0xCE5A);
        assert_stable(&case, &pattern, &mut rng, "layout 2");
    }

    /// An FMO root with every `t_ge_j` row active and the node budget not:
    /// the hub `t` gathers Σ wⱼ ≈ 1e12 while its Schur complement cancels
    /// down to the bound terms. Sherman–Morrison–Woodbury on the budget
    /// row cancelled here.
    #[test]
    fn inactive_bordered_row_over_ill_conditioned_hub_block() {
        let mut rng = Rng::new(0xF30);
        for fragments in [8, 96, 255] {
            let t = fragments;
            let mut base: Vec<f64> = (0..fragments)
                .map(|_| log_uniform(&mut rng, -5.0, -3.0))
                .collect();
            base.push(1e-12);
            let mut case = Case::new(base);
            let budget: Vec<(usize, f64)> = (0..fragments).map(|j| (j, 1.0)).collect();
            case.row(&budget, 1e-9);
            for j in 0..fragments {
                let n = rng.f64_range(2.0, 40.0);
                let slope = -rng.f64_range(50.0, 5000.0) / (n * n);
                case.row(&[(j, slope), (t, -1.0)], log_uniform(&mut rng, 9.0, 11.0));
            }
            let pattern = Pattern::detect(case.k, case.supports()).expect("FMO root is structured");
            assert_eq!(pattern.shape(), (1, 1));
            assert_stable(&case, &pattern, &mut rng, &format!("{fragments} fragments"));
        }
    }

    fn supports_of(rows: &[Vec<usize>]) -> impl Iterator<Item = &[usize]> + Clone {
        rows.iter().map(Vec::as_slice)
    }

    /// FMO roots take the path at every size; CESM layout 1, rows that
    /// couple neighbouring columns and phase-1 shapes (a slack column in
    /// every row) do not.
    #[test]
    fn the_pattern_rule_takes_min_max_roots_only() {
        for fragments in [4, 8, 32, 96, 159, 256, 1024] {
            let t = fragments;
            let mut rows = vec![(0..fragments).collect::<Vec<_>>()];
            rows.extend((0..fragments).map(|j| vec![j, t]));
            let pattern = Pattern::detect(fragments + 1, supports_of(&rows)).expect("FMO root");
            assert_eq!(pattern.shape(), (1, 1), "{fragments} fragments");
            // Phase 1 adds one slack column to every row.
            let s = fragments + 1;
            let relaxed: Vec<Vec<usize>> = rows
                .iter()
                .map(|r| r.iter().copied().chain([s]).collect())
                .collect();
            assert!(
                Pattern::detect(fragments + 2, supports_of(&relaxed)).is_none(),
                "phase 1 at {fragments} fragments"
            );
        }
        // CESM layout 2 (ice, lnd, atm, ocn, t) and 3 take it.
        let layout2 = [
            vec![0, 1, 2, 4],
            vec![3, 4],
            vec![0, 3],
            vec![1, 3],
            vec![2, 3],
        ];
        assert!(Pattern::detect(5, supports_of(&layout2)).is_some());
        let layout3 = [vec![0, 1, 2, 3, 4]];
        assert!(Pattern::detect(5, supports_of(&layout3)).is_some());
        // Layout 1 (ice, lnd, atm, ocn, t, t_icelnd): two hubs and two
        // bordered rows cost more than the dense Cholesky at k = 6.
        let layout1 = [
            vec![0, 5],
            vec![1, 5],
            vec![2, 4, 5],
            vec![3, 4],
            vec![2, 3],
            vec![0, 1, 2],
        ];
        assert!(Pattern::classify(6, supports_of(&layout1)).is_some());
        assert!(Pattern::detect(6, supports_of(&layout1)).is_none());
        // A chain of rows coupling neighbours makes every inner column a
        // hub, and a row over two columns no other row touches puts an
        // off-diagonal entry into the plain block.
        let chain: Vec<Vec<usize>> = (0..199).map(|j| vec![j, j + 1]).collect();
        assert!(Pattern::classify(200, supports_of(&chain)).is_some());
        assert!(Pattern::detect(200, supports_of(&chain)).is_none());
        let pairs: Vec<Vec<usize>> = (0..100).map(|j| vec![2 * j, 2 * j + 1]).collect();
        assert!(Pattern::classify(200, supports_of(&pairs)).is_none());
    }

    /// A semidefinite matrix (a column no row or bound touches) takes the
    /// dense path's regularization ladder instead of failing, and a
    /// non-finite entry is a typed error.
    #[test]
    fn semidefinite_matrices_regularize_and_non_finite_ones_fail() {
        let mut case = Case::new(vec![0.0, 1.0, 1.0, 1.0]);
        case.row(&[(1, 1.0), (2, 1.0), (3, 1.0)], 1.0);
        let pattern = Pattern::classify(4, case.supports()).expect("structured shape");
        let f = case.factor(&pattern).expect("regularizes");
        assert!(f.solve(&[1.0, 1.0, 1.0, 1.0]).iter().all(|v| v.is_finite()));
        case.weight[0] = f64::INFINITY;
        let err = case.factor(&pattern).err();
        assert_eq!(err, Some(SystemError::NonFinite("condensed KKT matrix")));
    }
}
