//! Bounded-variable two-phase primal simplex, plus the dual simplex that
//! cut loops re-solve with.
//!
//! Layout: one slack column per row turns every constraint into an equality
//! with bounds on the slack; artificial columns are added only for rows whose
//! initial slack value falls outside the slack bounds. Phase 1 minimizes the
//! sum of artificials; Phase 2 minimizes the true objective with artificials
//! frozen at zero.
//!
//! The basis lives in a `BasisFactor`: a sparse LU factorization followed
//! by its updates — a product-form eta per pivot (Bartels–Golub style) and
//! a border per batch of appended rows. Each refactorization orders the
//! basis columns by nonzero count ([`LuSymbolic::by_column_count`]): one
//! sort, slack singletons first, the epigraph hub of an OA master last. The
//! factorization is rebuilt once `REFACTOR_EVERY` etas have accumulated, for
//! numerical hygiene. Every optimum can be checked without trusting this
//! module: [`LpSolution::certify`] reads only the LP, the point, the duals
//! and the objective.
//!
//! [`WarmLp`] owns a program and keeps the tableau of its last solve, so a
//! cut loop re-solves it on the dual simplex without rebuilding or
//! refactorizing. Neither appending a `<=` cut row nor moving variable
//! bounds changes the cost vector, so the reduced costs of the kept basis
//! keep their values. Their signs can still be wrong for a boxed nonbasic
//! variable whose box widened (a pin `lo == hi` released); such a variable
//! moves to its other bound, which restores dual feasibility. Each appended
//! cut's slack enters the basis, out-of-bound nonbasic variables snap to
//! their moved bounds, and a handful of dual pivots restore primal
//! feasibility — no Phase 1 artificials, no cold Phase 2. Only a start that
//! stays dual infeasible, numerical trouble or an infeasibility verdict
//! falls back to the cold two-phase solve, which is the one source of
//! `Infeasible`.
// lint:allow-file(slice-index): the tableau kernel indexes basis/column
// arrays end to end; every index is derived from tableau dimensions fixed
// at construction, and iterator forms would obscure the pivot algebra.

use crate::model::{LinearProgram, Row, RowSense, VarId};
use crate::solution::{LpSolution, LpStatus};
use hslb_linalg::{CscMatrix, LuSymbolic, SparseLu, SparseWorkspace};
use hslb_obs::{Event, Trace};

use hslb_linalg::approx::{cert_within, exactly_zero};

/// Hard cap on total pivots across both phases.
const MAX_ITERS: usize = 50_000;
/// Reduced-cost optimality tolerance.
const OPT_TOL: f64 = 1e-9;
/// Primal feasibility tolerance (bound violations, Phase 1 target).
const FEAS_TOL: f64 = 1e-7;
/// Consecutive degenerate pivots before switching to Bland's rule.
const DEGENERACY_LIMIT: usize = 200;
/// Etas (pivots) the basis factor accumulates before it is rebuilt. The
/// count runs across the solves of a [`WarmLp`].
const REFACTOR_EVERY: usize = 100;
/// Ratio-test pivots smaller than this are numerically unusable.
const PIVOT_TOL: f64 = 1e-9;
/// Ratio-test tie window: steps within this of the best are "tied" and
/// broken by pivot quality (largest |w_i|) instead of index order.
const RATIO_TIE_TOL: f64 = 1e-12;
/// A step shorter than this counts as a degenerate pivot for the
/// Bland's-rule switch.
const DEGENERATE_STEP_TOL: f64 = 1e-10;
/// Reduced-cost sign tolerance when validating a dual-simplex start (and
/// the margin past which a boxed nonbasic variable moves to its other
/// bound). Looser than `OPT_TOL` because the kept optimum was itself only
/// tolerance-optimal and its duals are recomputed through the factor's
/// updates; any residual drift is repaired by the primal clean-up phase
/// after the dual pivots.
const WARM_DUAL_TOL: f64 = 1e-7;

/// Simplex options. The tolerances and pivot budgets are module consts
/// sized for the HSLB problems.
#[derive(Debug, Clone, Default)]
pub struct SimplexOptions {
    /// Event trace (off by default; see `hslb-obs`). When enabled, every
    /// solve emits one `LpSolved` event carrying its pivot count.
    pub trace: Trace,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum VarStatus {
    Basic(usize),
    AtLower,
    AtUpper,
    /// Free variable currently parked at zero.
    FreeZero,
}

/// Sparse column: (row, coefficient) pairs.
type Column = Vec<(usize, f64)>;

/// A linear program that keeps its simplex state between solves, for cut
/// loops that re-solve it after appending rows and moving bounds.
///
/// It owns the program, so the kept tableau always describes it: rows are
/// appended through [`WarmLp::add_row`] and bounds moved through
/// [`WarmLp::set_bounds`], which update both. Between solves it keeps the
/// column lists, bounds, statuses, basis and the basis factor with its
/// updates. An appended row's slack enters the basis and borders the
/// factor; a moved bound moves its nonbasic variable. [`WarmLp::solve`]
/// then recomputes the basic values through the kept factor and re-enters
/// the dual simplex: nothing is rebuilt, and the basis is refactorized only
/// when the eta chain reaches `REFACTOR_EVERY` or an optimum drifts off a
/// row. The OA master keeps one per tree.
#[derive(Debug)]
pub struct WarmLp {
    lp: LinearProgram,
    /// The tableau of the last solve that left a usable basis; `None`
    /// before the first solve, which starts from the slack basis.
    kept: Option<Tableau>,
}

impl WarmLp {
    /// Takes ownership of `lp`; the first solve starts from its slack basis.
    pub fn new(lp: LinearProgram) -> WarmLp {
        WarmLp { lp, kept: None }
    }

    /// The program as it stands.
    pub fn lp(&self) -> &LinearProgram {
        &self.lp
    }

    /// Appends a constraint row ([`LinearProgram::add_row`]); returns its
    /// index. With a kept basis, the row's slack enters it in the new row.
    ///
    /// # Panics
    /// As [`LinearProgram::add_row`].
    pub fn add_row(&mut self, coeffs: Vec<(VarId, f64)>, sense: RowSense, rhs: f64) -> usize {
        let r = self.lp.add_row(coeffs, sense, rhs);
        if let Some(tab) = &mut self.kept {
            tab.append_row(&self.lp.rows()[r]);
        }
        r
    }

    /// Overwrites the bounds of a variable ([`LinearProgram::set_bounds`]).
    /// The box may widen as well as narrow: a nonbasic variable released
    /// from a pin moves to whichever bound keeps the basis dual feasible.
    ///
    /// # Panics
    /// As [`LinearProgram::set_bounds`].
    pub fn set_bounds(&mut self, var: VarId, lo: f64, hi: f64) {
        self.lp.set_bounds(var, lo, hi);
        if let Some(tab) = &mut self.kept {
            tab.lo[var.0] = lo;
            tab.hi[var.0] = hi;
        }
    }

    /// Solves the program on the dual simplex from the kept basis, or from
    /// the slack basis on the first solve: structurals at a finite bound,
    /// every slack basic in its own row. Either start first moves each
    /// boxed nonbasic variable to the bound its reduced cost asks for. A
    /// start that is still dual infeasible, any numerical trouble and any
    /// infeasibility verdict fall back to the cold two-phase solve, so
    /// results never depend on the start being good and `Infeasible` always
    /// comes from the cold path. `dual_pivots`/`warm_used` in the solution
    /// report what happened; the counters are this solve's and include the
    /// work of an abandoned dual attempt.
    ///
    /// The kept tableau afterwards is this solve's: the dual path's, or the
    /// cold solve's optimum. After an infeasibility verdict that the cold
    /// solve confirms, it is the dual attempt's last basis, which is still
    /// dual feasible. After numerical trouble with no cold optimum, none is
    /// kept and the next solve starts from the slack basis.
    pub fn solve(&mut self, opts: &SimplexOptions) -> LpSolution {
        let warm_used = self.kept.is_some();
        let mut tab = self
            .kept
            .take()
            .unwrap_or_else(|| Tableau::slack_basis(&self.lp));
        tab.work = FactorWork::default();
        let (sol, kept) = match dual_solve(&self.lp, &mut tab) {
            DualEnd::Done(sol) => (LpSolution { warm_used, ..sol }, Some(tab)),
            DualEnd::Abandoned { attempt, usable } => {
                let (cold, cold_tab) = solve_inner(&self.lp);
                let sol = LpSolution {
                    iterations: cold.iterations + attempt.iterations,
                    dual_pivots: cold.dual_pivots + attempt.dual_pivots,
                    factorizations: cold.factorizations + attempt.factorizations,
                    factor_updates: cold.factor_updates + attempt.factor_updates,
                    fill_nnz: cold.fill_nnz + attempt.fill_nnz,
                    ..cold
                };
                (sol, cold_tab.or(usable.then_some(tab)))
            }
        };
        self.kept = kept;
        opts.trace.emit(|| Event::LpSolved {
            pivots: sol.iterations as u64,
        });
        sol
    }
}

/// One product-form update recorded by a pivot. The update matrix `E⁻¹`
/// applies to a vector as `v[r] /= pivot; v[i] -= w_i·v[r]` (`i ≠ r`): the
/// elementary row operation of the pivot.
#[derive(Debug)]
struct Eta {
    r: usize,
    /// Off-pivot rows of the ftran column (`i ≠ r`, structural zeros
    /// dropped).
    w: Vec<(usize, f64)>,
    pivot: f64,
}

/// Rows appended to a factored basis, whose slacks entered it: the basis
/// grows from `B` to `B′ = [B 0; R I]`, where row `start + k` of `R` holds
/// the appended row's coefficients on the basic columns, keyed by basis
/// position. Then `B′⁻¹ = [B⁻¹ 0; −R B⁻¹ I]`: ftran subtracts `R w` from
/// the new rows after solving with `B`, btran subtracts `Rᵀ y` from the
/// old ones before (the basis-augmentation update of Bisschop & Meeraus,
/// Math. Programming 13, 1977). A row's coefficients on the other new
/// slacks are zero, so every position in `R` lies below `start`.
#[derive(Debug)]
struct Border {
    start: usize,
    rows: Vec<Column>,
}

/// An update of the basis factor since its last refactorization.
#[derive(Debug)]
enum Update {
    Eta(Eta),
    Border(Border),
}

/// The basis representation behind the simplex: a `SparseLu` of the basis
/// at the last refactorization, then the updates recorded since, in order.
/// ftran applies the LU solve then the updates in recording order; btran
/// applies the transposed updates in reverse then the transposed LU solve.
/// With no LU yet the basis started as the slack basis, the identity.
#[derive(Debug, Default)]
struct BasisFactor {
    /// `None` until the first refactorization.
    lu: Option<SparseLu>,
    updates: Vec<Update>,
    /// Etas among `updates`: the refactorization trigger.
    etas: usize,
    ws: SparseWorkspace,
}

impl BasisFactor {
    /// Borders the factor with appended row `r`, whose slack entered the
    /// basis at position `r`; `coeffs` are the row's coefficients on the
    /// basic columns by position. Consecutive rows share one border.
    fn border(&mut self, r: usize, coeffs: Column) {
        match self.updates.last_mut() {
            Some(Update::Border(b)) => {
                debug_assert_eq!(b.start + b.rows.len(), r);
                b.rows.push(coeffs);
            }
            _ => self.updates.push(Update::Border(Border {
                start: r,
                rows: vec![coeffs],
            })),
        }
    }
}

/// Factor work of one solve: the per-solve counters of [`LpSolution`].
#[derive(Debug, Default, Clone, Copy)]
struct FactorWork {
    /// Basis (re)factorizations performed.
    factorizations: u64,
    /// Product-form eta updates appended.
    factor_updates: u64,
    /// Cumulative factor nonzeros across refactorizations.
    fill_nnz: u64,
}

#[derive(Debug)]
struct Tableau {
    /// All columns: structurals, then slacks, then artificials.
    cols: Vec<Column>,
    lo: Vec<f64>,
    hi: Vec<f64>,
    status: Vec<VarStatus>,
    /// Variable occupying each basis row.
    basis: Vec<usize>,
    /// Basis factorization (sparse LU + updates).
    factor: BasisFactor,
    /// Values of the basic variables, row-aligned with `basis`.
    xb: Vec<f64>,
    /// Right-hand side per row (all rows are equalities after slacks).
    rhs: Vec<f64>,
    /// Whether each column may enter the basis (artificials may not in
    /// Phase 2).
    can_enter: Vec<bool>,
    m: usize,
    work: FactorWork,
}

impl Tableau {
    /// The structural and slack columns of `lp` with their bounds and
    /// right-hand sides; no statuses, basis or factor yet.
    fn columns_of(lp: &LinearProgram) -> Tableau {
        let n = lp.num_vars();
        let mut tab = Tableau {
            cols: vec![Vec::new(); n],
            lo: lp.lowers().to_vec(),
            hi: lp.uppers().to_vec(),
            status: Vec::new(),
            basis: Vec::new(),
            factor: BasisFactor::default(),
            xb: Vec::new(),
            rhs: Vec::with_capacity(lp.num_rows()),
            can_enter: vec![true; n],
            m: 0,
            work: FactorWork::default(),
        };
        for row in lp.rows() {
            tab.push_row(row);
        }
        tab
    }

    /// The slack basis of `lp`: structurals nonbasic at [`initial_status`],
    /// every slack basic in its own row. The basis is the identity, so the
    /// factor needs no LU.
    fn slack_basis(lp: &LinearProgram) -> Tableau {
        let n = lp.num_vars();
        let mut tab = Tableau::columns_of(lp);
        tab.status = (0..n)
            .map(|j| initial_status(tab.lo[j], tab.hi[j]))
            .chain((0..tab.m).map(VarStatus::Basic))
            .collect();
        tab.basis = (n..n + tab.m).collect();
        tab.xb = vec![0.0; tab.m];
        tab
    }

    /// Appends `row`'s coefficients to the structural columns (a variable
    /// repeated within the row is summed) and its slack column, slack
    /// bounds and right-hand side. Must precede any artificial column.
    fn push_row(&mut self, row: &Row) {
        let r = self.m;
        for &(v, c) in &row.coeffs {
            // Rows are pushed in order, so a repeat of `v` within this row
            // can only be the column's last entry.
            match self.cols[v.0].last_mut() {
                Some(entry) if entry.0 == r => entry.1 += c,
                _ if !exactly_zero(c) => self.cols[v.0].push((r, c)),
                _ => {}
            }
        }
        self.cols.push(vec![(r, 1.0)]);
        let (lo, hi) = match row.sense {
            RowSense::Le => (0.0, f64::INFINITY),
            RowSense::Ge => (f64::NEG_INFINITY, 0.0),
            RowSense::Eq => (0.0, 0.0),
        };
        self.lo.push(lo);
        self.hi.push(hi);
        self.rhs.push(row.rhs);
        self.can_enter.push(true);
        self.m += 1;
    }

    /// Appends `row` to a tableau that holds a basis: its slack enters the
    /// basis in the new row and borders the factor. The basic values are
    /// left for the next solve to recompute.
    fn append_row(&mut self, row: &Row) {
        let r = self.m;
        let mut coeffs: Column = Vec::new();
        for &(v, c) in &row.coeffs {
            if let VarStatus::Basic(k) = self.status[v.0] {
                match coeffs.iter_mut().find(|entry| entry.0 == k) {
                    Some(entry) => entry.1 += c,
                    None => coeffs.push((k, c)),
                }
            }
        }
        coeffs.retain(|&(_, a)| !exactly_zero(a));
        self.push_row(row);
        self.status.push(VarStatus::Basic(r));
        self.basis.push(self.cols.len() - 1);
        self.xb.push(0.0);
        self.factor.border(r, coeffs);
    }

    /// The tableau without its artificial columns, once none is basic: the
    /// end of a cold solve, kept for the next warm one. `None` when a
    /// degenerate optimum left an artificial basic at zero.
    fn without_artificials(mut self, nm: usize) -> Option<Tableau> {
        if self.basis.iter().any(|&b| b >= nm) {
            return None;
        }
        self.cols.truncate(nm);
        self.lo.truncate(nm);
        self.hi.truncate(nm);
        self.status.truncate(nm);
        self.can_enter.truncate(nm);
        Some(self)
    }

    fn nonbasic_value(&self, j: usize) -> f64 {
        match self.status[j] {
            VarStatus::AtLower => self.lo[j],
            VarStatus::AtUpper => self.hi[j],
            VarStatus::FreeZero => 0.0,
            VarStatus::Basic(r) => self.xb[r],
        }
    }

    /// Current value of any variable.
    fn value(&self, j: usize) -> f64 {
        self.nonbasic_value(j)
    }

    /// y = cBᵀ B⁻¹ for the given cost vector.
    fn duals(&self, costs: &[f64]) -> Vec<f64> {
        let cb = self.basis.iter().map(|&bvar| costs[bvar]).collect();
        self.btran(cb)
    }

    /// Row `r` of B⁻¹ (ρᵀ = e_rᵀ B⁻¹) — the dual ratio test's pivot row.
    fn row_of_inverse(&self, r: usize) -> Vec<f64> {
        let mut e = vec![0.0; self.m];
        e[r] = 1.0;
        self.btran(e)
    }

    /// y = B⁻ᵀ v: transposed updates in reverse order, then the transposed
    /// LU solve on the rows the LU covers.
    fn btran(&self, mut v: Vec<f64>) -> Vec<f64> {
        let BasisFactor { lu, updates, .. } = &self.factor;
        for update in updates.iter().rev() {
            match update {
                Update::Eta(eta) => {
                    let mut s = v[eta.r];
                    for &(i, wi) in &eta.w {
                        s -= wi * v[i];
                    }
                    v[eta.r] = s / eta.pivot;
                }
                Update::Border(border) => {
                    for (k, row) in border.rows.iter().enumerate() {
                        let yk = v[border.start + k];
                        if !exactly_zero(yk) {
                            for &(p, a) in row {
                                v[p] -= a * yk;
                            }
                        }
                    }
                }
            }
        }
        if let Some(f) = lu {
            let head = f.solve_transposed(&v[..f.n()]);
            v[..f.n()].copy_from_slice(&head);
        }
        v
    }

    /// Reduced cost of column `j` given duals `y`.
    fn reduced_cost(&self, j: usize, costs: &[f64], y: &[f64]) -> f64 {
        let mut d = costs[j];
        for &(row, a) in &self.cols[j] {
            d -= y[row] * a;
        }
        d
    }

    /// w = B⁻¹ A_j.
    fn ftran(&self, j: usize) -> Vec<f64> {
        let mut v = vec![0.0; self.m];
        for &(row, a) in &self.cols[j] {
            v[row] += a;
        }
        self.ftran_vec(v)
    }

    /// w = B⁻¹ v for a dense right-hand side: the LU solve on the rows it
    /// covers, then the updates in recording order.
    fn ftran_vec(&self, mut w: Vec<f64>) -> Vec<f64> {
        let BasisFactor { lu, updates, .. } = &self.factor;
        if let Some(f) = lu {
            let head = f.solve(&w[..f.n()]);
            w[..f.n()].copy_from_slice(&head);
        }
        for update in updates {
            match update {
                Update::Eta(eta) => {
                    let vr = w[eta.r] / eta.pivot;
                    w[eta.r] = vr;
                    if !exactly_zero(vr) {
                        for &(i, wi) in &eta.w {
                            w[i] -= wi * vr;
                        }
                    }
                }
                Update::Border(border) => {
                    for (k, row) in border.rows.iter().enumerate() {
                        let s: f64 = row.iter().map(|&(p, a)| a * w[p]).sum();
                        w[border.start + k] -= s;
                    }
                }
            }
        }
        w
    }

    /// Applies the basis exchange at row `r` with ftran column `w` by
    /// recording a product-form eta.
    fn pivot_update(&mut self, r: usize, w: &[f64]) {
        let wr: Vec<(usize, f64)> = w
            .iter()
            .enumerate()
            .filter(|&(i, &wi)| i != r && !exactly_zero(wi))
            .map(|(i, &wi)| (i, wi))
            .collect();
        self.factor.updates.push(Update::Eta(Eta {
            r,
            w: wr,
            pivot: w[r],
        }));
        self.factor.etas += 1;
        self.work.factor_updates += 1;
    }

    /// Rebuilds the basis factorization and `xb` from scratch (numerical
    /// hygiene; also the point where the updates are folded in).
    fn refactorize(&mut self) -> Result<(), ()> {
        self.work.factorizations += 1;
        let bcols: Vec<&[(usize, f64)]> = self
            .basis
            .iter()
            .map(|&bvar| &self.cols[bvar][..])
            .collect();
        let b = CscMatrix::from_columns(self.m, &bcols).map_err(|_| ())?;
        let sym = LuSymbolic::by_column_count(&b).map_err(|_| ())?;
        let f = SparseLu::factorize(&b, &sym, &mut self.factor.ws).map_err(|_| ())?;
        self.work.fill_nnz += f.fill_nnz() as u64;
        self.factor.updates.clear();
        self.factor.etas = 0;
        self.factor.lu = Some(f);
        self.recompute_xb();
        Ok(())
    }

    /// Refactorizes once the eta chain reaches `REFACTOR_EVERY`.
    fn refresh(&mut self) -> Result<(), ()> {
        if self.factor.etas >= REFACTOR_EVERY {
            self.refactorize()?;
        }
        Ok(())
    }

    /// xB = B⁻¹ (b - N x_N).
    fn recompute_xb(&mut self) {
        let mut resid = self.rhs.clone();
        for j in 0..self.cols.len() {
            if matches!(self.status[j], VarStatus::Basic(_)) {
                continue;
            }
            let v = self.nonbasic_value(j);
            if !exactly_zero(v) {
                for &(row, a) in &self.cols[j] {
                    resid[row] -= a * v;
                }
            }
        }
        self.xb = self.ftran_vec(resid);
    }

    /// An outcome without a point (`Infeasible`, `Unbounded` or
    /// `IterationLimit`), carrying this solve's factorization work.
    fn stopped(&self, status: LpStatus, iterations: usize, dual_pivots: usize) -> LpSolution {
        LpSolution {
            dual_pivots,
            factorizations: self.work.factorizations,
            factor_updates: self.work.factor_updates,
            fill_nnz: self.work.fill_nnz,
            ..LpSolution::without_point(status, iterations)
        }
    }

    /// The optimal outcome at the current basis under the phase-2 `costs`.
    fn optimal(
        &self,
        lp: &LinearProgram,
        costs: &[f64],
        iterations: usize,
        dual_pivots: usize,
    ) -> LpSolution {
        let x: Vec<f64> = (0..lp.num_vars()).map(|j| self.value(j)).collect();
        let sol = LpSolution {
            objective: lp.objective_value(&x),
            x,
            duals: self.duals(costs),
            ..self.stopped(LpStatus::Optimal, iterations, dual_pivots)
        };
        debug_assert_eq!(
            sol.certify(lp),
            Ok(()),
            "simplex optimum fails its certificate"
        );
        sol
    }

    /// Whether the point has drifted off a row of `lp`: the basic values
    /// went through the factor's updates since the last refactorization,
    /// and some row residual of the structural point fails the row check of
    /// [`LpSolution::certify`] (relative to `1 + |rhs| + Σ|a_j·x_j|` at
    /// 1e-7, this module's `FEAS_TOL`).
    fn drifted(&self, lp: &LinearProgram) -> bool {
        !self.factor.updates.is_empty()
            && lp.rows().iter().any(|row| {
                let (act, size) = row.coeffs.iter().fold((0.0, 0.0), |(act, size), &(v, a)| {
                    let ax = a * self.value(v.0);
                    (act + ax, size + f64::abs(ax))
                });
                let slack = act - row.rhs;
                let viol = match row.sense {
                    RowSense::Le => slack,
                    RowSense::Ge => -slack,
                    RowSense::Eq => slack.abs(),
                };
                !cert_within(viol, row.rhs.abs() + size)
            })
    }
}

/// Outcome of one phase.
enum PhaseEnd {
    Optimal,
    Unbounded,
    IterationLimit,
    /// The dual simplex found a violated row no column can repair; only
    /// the cold solve may turn that into `Infeasible`.
    Infeasible,
}

/// Solves the LP with default options.
pub fn solve(lp: &LinearProgram) -> LpSolution {
    solve_with(lp, &SimplexOptions::default())
}

/// Solves the LP with explicit options.
pub fn solve_with(lp: &LinearProgram, opts: &SimplexOptions) -> LpSolution {
    let (sol, _) = solve_inner(lp);
    opts.trace.emit(|| Event::LpSolved {
        pivots: sol.iterations as u64,
    });
    sol
}

/// The actual two-phase solve; `solve_with` wraps it so that every return
/// path emits exactly one trace event. An optimum also returns its tableau
/// without the artificial columns, for a [`WarmLp`] to keep.
fn solve_inner(lp: &LinearProgram) -> (LpSolution, Option<Tableau>) {
    let m = lp.num_rows();
    let n = lp.num_vars();

    let mut tab = Tableau::columns_of(lp);
    let slack_base = n;

    // Initial nonbasic placement for structurals.
    tab.status = (0..n)
        .map(|j| initial_status(tab.lo[j], tab.hi[j]))
        .collect();

    // Row residuals with structurals at their parked values.
    let mut resid = tab.rhs.clone();
    for j in 0..n {
        let v = match tab.status[j] {
            VarStatus::AtLower => tab.lo[j],
            VarStatus::AtUpper => tab.hi[j],
            _ => 0.0,
        };
        if !exactly_zero(v) {
            for &(row, a) in &tab.cols[j] {
                resid[row] -= a * v;
            }
        }
    }

    // Slack placement: basic when the residual fits its bounds, otherwise
    // parked at the nearest bound with an artificial absorbing the deficit.
    // Slack statuses are pushed first (they occupy columns n..n+m); the
    // artificial statuses are appended afterwards so `status[j]` stays
    // aligned with column `j`.
    let mut artificials = Vec::new();
    let mut art_status = Vec::new();
    for (r, &s) in resid.iter().enumerate() {
        let sj = slack_base + r;
        let (lo, hi) = (tab.lo[sj], tab.hi[sj]);
        if s >= lo - FEAS_TOL && s <= hi + FEAS_TOL {
            tab.status.push(VarStatus::Basic(r));
            tab.basis.push(sj);
            tab.xb.push(s);
        } else {
            let parked = if s < lo { lo } else { hi };
            tab.status.push(if parked == lo {
                VarStatus::AtLower
            } else {
                VarStatus::AtUpper
            });
            let deficit = s - parked;
            // Artificial column sign(deficit)·e_r, basic at |deficit|.
            let aj = tab.cols.len();
            tab.cols.push(vec![(r, deficit.signum())]);
            tab.lo.push(0.0);
            tab.hi.push(f64::INFINITY);
            tab.can_enter.push(true);
            art_status.push(VarStatus::Basic(r));
            tab.basis.push(aj);
            tab.xb.push(deficit.abs());
            artificials.push(aj);
        }
    }
    tab.status.extend(art_status);

    // The slack part of the initial basis is the identity but artificial
    // columns may carry a -1 coefficient; build the true inverse up front.
    if tab.refactorize().is_err() {
        return (tab.stopped(LpStatus::IterationLimit, 0, 0), None);
    }

    let mut iterations = 0;

    // ---- Phase 1 -------------------------------------------------------
    if !artificials.is_empty() {
        let mut costs1 = vec![0.0; tab.cols.len()];
        for &a in &artificials {
            costs1[a] = 1.0;
        }
        match run_phase(&mut tab, &costs1, &mut iterations) {
            PhaseEnd::Optimal => {}
            // Phase 1 objective is bounded below by 0, so Unbounded cannot
            // legitimately happen; treat as numerical failure.
            _ => return (tab.stopped(LpStatus::IterationLimit, iterations, 0), None),
        }
        let infeasibility: f64 = artificials.iter().map(|&a| tab.value(a).max(0.0)).sum();
        if infeasibility > FEAS_TOL * 10.0 {
            return (tab.stopped(LpStatus::Infeasible, iterations, 0), None);
        }
        // Freeze artificials at zero for Phase 2.
        for &a in &artificials {
            tab.hi[a] = 0.0;
            tab.can_enter[a] = false;
            if let VarStatus::Basic(r) = tab.status[a] {
                tab.xb[r] = 0.0; // clean tiny residue
            } else {
                tab.status[a] = VarStatus::AtLower;
            }
        }
    }

    // ---- Phase 2 -------------------------------------------------------
    let mut costs2 = vec![0.0; tab.cols.len()];
    costs2[..n].copy_from_slice(lp.costs());
    let mut dual_pivots = 0;
    let end = Some(run_phase(&mut tab, &costs2, &mut iterations));
    let end = settle(
        &mut tab,
        lp,
        &costs2,
        end,
        &mut iterations,
        &mut dual_pivots,
    );
    match end {
        Some(PhaseEnd::Optimal) => {
            let sol = tab.optimal(lp, &costs2, iterations, dual_pivots);
            (sol, tab.without_artificials(n + m))
        }
        Some(PhaseEnd::Unbounded) => (
            tab.stopped(LpStatus::Unbounded, iterations, dual_pivots),
            None,
        ),
        Some(PhaseEnd::IterationLimit | PhaseEnd::Infeasible) | None => (
            tab.stopped(LpStatus::IterationLimit, iterations, dual_pivots),
            None,
        ),
    }
}

/// How a dual-simplex solve from a kept or slack basis ended.
enum DualEnd {
    /// An `Optimal` or `Unbounded` answer; the tableau stays usable.
    Done(LpSolution),
    /// The cold solve must take over: after a start no bound flip makes
    /// dual feasible, numerical trouble, the iteration cap, or a
    /// primal-infeasibility verdict (re-derived cold so infeasibility
    /// always comes from one path). `attempt` carries the abandoned work;
    /// `usable` is true only after the verdict, whose last basis is still
    /// dual feasible and correctly factored.
    Abandoned { attempt: LpSolution, usable: bool },
}

/// Runs the dual simplex on `tab`, which holds `lp`'s columns and a basis
/// whose basic values are stale.
fn dual_solve(lp: &LinearProgram, tab: &mut Tableau) -> DualEnd {
    let n = lp.num_vars();
    let mut costs = vec![0.0; tab.cols.len()];
    costs[..n].copy_from_slice(lp.costs());
    let mut iterations = 0usize;
    let mut dual_pivots = 0usize;
    let end = dual_start(tab, &costs)
        .and_then(|()| run_dual(tab, &costs, &mut iterations, &mut dual_pivots));
    let end = settle(tab, lp, &costs, end, &mut iterations, &mut dual_pivots);
    let abandoned = |usable| DualEnd::Abandoned {
        attempt: tab.stopped(LpStatus::IterationLimit, iterations, dual_pivots),
        usable,
    };
    match end {
        Some(PhaseEnd::Optimal) => DualEnd::Done(tab.optimal(lp, &costs, iterations, dual_pivots)),
        Some(PhaseEnd::Unbounded) => {
            DualEnd::Done(tab.stopped(LpStatus::Unbounded, iterations, dual_pivots))
        }
        Some(PhaseEnd::Infeasible) => abandoned(true),
        Some(PhaseEnd::IterationLimit) | None => abandoned(false),
    }
}

/// Checks an optimal `end` against eta drift: the simplex tests
/// feasibility on the basic values, which the factor's updates change step
/// by step, so a point can leave a row unseen. While the optimum has
/// [`drifted`](Tableau::drifted), the basis is refactorized and pivoting
/// resumes on the dual simplex (an optimal basis is dual feasible). Each
/// round that drifts again pivoted at least once, so `MAX_ITERS` bounds
/// the loop. Any other `end` passes through.
fn settle(
    tab: &mut Tableau,
    lp: &LinearProgram,
    costs: &[f64],
    mut end: Option<PhaseEnd>,
    iterations: &mut usize,
    dual_pivots: &mut usize,
) -> Option<PhaseEnd> {
    while matches!(end, Some(PhaseEnd::Optimal)) && tab.drifted(lp) {
        tab.refactorize().ok()?;
        end = run_dual(tab, costs, iterations, dual_pivots);
    }
    end
}

/// Prepares the basis of `tab` for the dual simplex: nonbasic variables
/// whose bound went infinite are re-parked, the basis is made dual feasible
/// by bound flips, and the basic values are recomputed through the factor.
/// `None` when the start stays dual infeasible.
fn dual_start(tab: &mut Tableau, costs: &[f64]) -> Option<()> {
    let nm = costs.len();
    for j in 0..nm {
        match tab.status[j] {
            VarStatus::Basic(_) => {}
            VarStatus::AtLower if tab.lo[j].is_finite() => {}
            VarStatus::AtUpper if tab.hi[j].is_finite() => {}
            _ => tab.status[j] = initial_status(tab.lo[j], tab.hi[j]),
        }
    }

    // The dual simplex needs a dual-feasible start. A boxed nonbasic
    // variable whose reduced cost has the wrong sign for its bound moves to
    // the other bound: a pin released since the basis was kept leaves
    // exactly that, because a fixed column is never checked (it never
    // enters, so any sign is fine). Any other wrong sign hands over to the
    // cold solve.
    let y = tab.duals(costs);
    for j in 0..nm {
        if tab.lo[j] == tab.hi[j] || matches!(tab.status[j], VarStatus::Basic(_)) {
            continue;
        }
        let d = tab.reduced_cost(j, costs, &y);
        let flipped = match tab.status[j] {
            VarStatus::AtLower if d < -WARM_DUAL_TOL => VarStatus::AtUpper,
            VarStatus::AtUpper if d > WARM_DUAL_TOL => VarStatus::AtLower,
            VarStatus::FreeZero if d.abs() > WARM_DUAL_TOL => return None,
            _ => continue,
        };
        if !(tab.lo[j].is_finite() && tab.hi[j].is_finite()) {
            return None;
        }
        tab.status[j] = flipped;
    }
    tab.recompute_xb();
    Some(())
}

/// Runs dual pivots from the dual-feasible basis of `tab` until it is
/// primal feasible, then a primal clean-up phase. `None` is numerical
/// trouble the cold solve must redo.
fn run_dual(
    tab: &mut Tableau,
    costs: &[f64],
    iterations: &mut usize,
    dual_pivots: &mut usize,
) -> Option<PhaseEnd> {
    let nm = costs.len();
    loop {
        if *iterations >= MAX_ITERS {
            return Some(PhaseEnd::IterationLimit);
        }
        tab.refresh().ok()?;

        // ---- Leaving variable: worst bound violation among the basics ----
        let mut leave: Option<(usize, f64, bool)> = None; // (row, viol, below)
        for r in 0..tab.m {
            let bvar = tab.basis[r];
            let below = tab.lo[bvar] - tab.xb[r];
            let above = tab.xb[r] - tab.hi[bvar];
            if below > FEAS_TOL && leave.is_none_or(|(_, v, _)| below > v) {
                leave = Some((r, below, true));
            }
            if above > FEAS_TOL && leave.is_none_or(|(_, v, _)| above > v) {
                leave = Some((r, above, false));
            }
        }
        let Some((r, _, below)) = leave else {
            break; // primal feasible
        };

        // ---- Entering variable: dual ratio test on pivot row r ----
        // xb[r] changes by -alpha_rj * dir_j * t when nonbasic j moves by t
        // in direction dir_j; it must move toward the violated bound, and
        // among the eligible columns the smallest |d_j|/|alpha_rj| keeps
        // every reduced cost on its dual-feasible side.
        let y = tab.duals(costs);
        let rho = tab.row_of_inverse(r);
        let mut enter: Option<(usize, f64, f64)> = None; // (col, ratio, |alpha|)
        for j in 0..nm {
            if matches!(tab.status[j], VarStatus::Basic(_)) || tab.lo[j] == tab.hi[j] {
                continue;
            }
            let mut alpha = 0.0;
            for &(row, a) in &tab.cols[j] {
                alpha += rho[row] * a;
            }
            if alpha.abs() <= PIVOT_TOL {
                continue;
            }
            let eligible = match tab.status[j] {
                // AtLower can only increase (dir +1): xb[r] moves by -alpha·t.
                VarStatus::AtLower => (alpha < 0.0) == below,
                // AtUpper can only decrease (dir -1): xb[r] moves by +alpha·t.
                VarStatus::AtUpper => (alpha > 0.0) == below,
                VarStatus::FreeZero => true,
                // Statically dead: basic columns are skipped at the top of
                // the loop.
                VarStatus::Basic(_) => false,
            };
            if !eligible {
                continue;
            }
            let ratio = tab.reduced_cost(j, costs, &y).abs() / alpha.abs();
            let better = match &enter {
                None => true,
                Some((_, best, best_alpha)) => {
                    ratio < best - RATIO_TIE_TOL
                        || (ratio < best + RATIO_TIE_TOL && alpha.abs() > *best_alpha)
                }
            };
            if better {
                enter = Some((j, ratio, alpha.abs()));
            }
        }
        // No column can repair row r: the primal is infeasible. Hand back
        // to the cold path to certify it.
        let Some((j, _, _)) = enter else {
            return Some(PhaseEnd::Infeasible);
        };

        // ---- Pivot: drive xb[r] exactly onto its violated bound ----
        let w = tab.ftran(j);
        if w[r].abs() <= PIVOT_TOL {
            return None; // alpha/ftran disagreement: numerical trouble
        }
        let lvar = tab.basis[r];
        let target = if below { tab.lo[lvar] } else { tab.hi[lvar] };
        let delta = (tab.xb[r] - target) / w[r];
        let entering_new = tab.nonbasic_value(j) + delta;
        for (xbi, &wi) in tab.xb.iter_mut().zip(&w) {
            *xbi -= delta * wi;
        }
        tab.status[lvar] = if below {
            VarStatus::AtLower
        } else {
            VarStatus::AtUpper
        };
        tab.basis[r] = j;
        tab.status[j] = VarStatus::Basic(r);
        tab.xb[r] = entering_new;

        // Elementary update of the factorization: pivot on w[r].
        tab.pivot_update(r, &w);

        *iterations += 1;
        *dual_pivots += 1;
    }

    // Primal feasible. A primal clean-up phase mops up any reduced-cost
    // drift the dual tolerances let through (usually zero pivots).
    Some(run_phase(tab, costs, iterations))
}

fn initial_status(lo: f64, hi: f64) -> VarStatus {
    if lo.is_finite() {
        VarStatus::AtLower
    } else if hi.is_finite() {
        VarStatus::AtUpper
    } else {
        VarStatus::FreeZero
    }
}

/// Runs primal simplex until optimality/unboundedness for the given costs.
fn run_phase(tab: &mut Tableau, costs: &[f64], iterations: &mut usize) -> PhaseEnd {
    let mut degenerate_run = 0usize;
    let mut bland = false;

    loop {
        if *iterations >= MAX_ITERS {
            return PhaseEnd::IterationLimit;
        }
        // A singular refactorization means the basis bookkeeping is
        // numerically broken: stop as the iteration cap does.
        if tab.refresh().is_err() {
            return PhaseEnd::IterationLimit;
        }

        let y = tab.duals(costs);

        // ---- Pricing ----
        let mut enter: Option<(usize, f64, f64)> = None; // (var, |d|, dir)
        for j in 0..tab.cols.len() {
            if !tab.can_enter[j] {
                continue;
            }
            let dir = match tab.status[j] {
                VarStatus::Basic(_) => continue,
                VarStatus::AtLower => 1.0,
                VarStatus::AtUpper => -1.0,
                VarStatus::FreeZero => 0.0, // decided below
            };
            // Fixed variables (lo == hi) can never improve anything.
            if tab.lo[j] == tab.hi[j] {
                continue;
            }
            let d = tab.reduced_cost(j, costs, &y);
            let (eligible, dir) = if exactly_zero(dir) {
                (d.abs() > OPT_TOL, if d > 0.0 { -1.0 } else { 1.0 })
            } else if dir > 0.0 {
                (d < -OPT_TOL, 1.0)
            } else {
                (d > OPT_TOL, -1.0)
            };
            if !eligible {
                continue;
            }
            let score = d.abs();
            match (&enter, bland) {
                (_, true) => {
                    // Bland: first eligible (lowest index) wins.
                    enter = Some((j, score, dir));
                    break;
                }
                (None, _) => enter = Some((j, score, dir)),
                (Some((_, best, _)), _) if score > *best => enter = Some((j, score, dir)),
                _ => {}
            }
        }
        let Some((j, _, dir)) = enter else {
            return PhaseEnd::Optimal;
        };

        // ---- Ratio test ----
        let w = tab.ftran(j);
        let own_range = tab.hi[j] - tab.lo[j]; // may be inf
        let mut t_max = if own_range.is_finite() {
            own_range
        } else {
            f64::INFINITY
        };
        let mut leaving: Option<(usize, bool)> = None; // (row, hits_lower)
        let piv_tol = PIVOT_TOL;
        for i in 0..tab.m {
            let coeff = dir * w[i];
            let bvar = tab.basis[i];
            if coeff > piv_tol {
                let lb = tab.lo[bvar];
                if lb.is_finite() {
                    let t = (tab.xb[i] - lb) / coeff;
                    if t < t_max - RATIO_TIE_TOL
                        || (t < t_max + RATIO_TIE_TOL && better_pivot(&leaving, i, &w, tab, bland))
                    {
                        t_max = t.max(0.0);
                        leaving = Some((i, true));
                    }
                }
            } else if coeff < -piv_tol {
                let ub = tab.hi[bvar];
                if ub.is_finite() {
                    let t = (ub - tab.xb[i]) / (-coeff);
                    if t < t_max - RATIO_TIE_TOL
                        || (t < t_max + RATIO_TIE_TOL && better_pivot(&leaving, i, &w, tab, bland))
                    {
                        t_max = t.max(0.0);
                        leaving = Some((i, false));
                    }
                }
            }
        }

        if t_max.is_infinite() {
            return PhaseEnd::Unbounded;
        }

        *iterations += 1;
        if t_max < DEGENERATE_STEP_TOL {
            degenerate_run += 1;
            if degenerate_run >= DEGENERACY_LIMIT {
                bland = true;
            }
        } else {
            degenerate_run = 0;
        }

        // ---- Update ----
        let t = t_max;
        match leaving {
            None => {
                // Bound flip: the entering variable traverses its whole range.
                for (xbi, &wi) in tab.xb.iter_mut().zip(&w) {
                    *xbi -= t * dir * wi;
                }
                tab.status[j] = match tab.status[j] {
                    VarStatus::AtLower => VarStatus::AtUpper,
                    VarStatus::AtUpper => VarStatus::AtLower,
                    // A free variable can only flip if both bounds were
                    // finite, which contradicts FreeZero; keep it sane.
                    other => other,
                };
            }
            Some((r, hits_lower)) => {
                let entering_start = tab.nonbasic_value(j);
                for (xbi, &wi) in tab.xb.iter_mut().zip(&w) {
                    *xbi -= t * dir * wi;
                }
                let lvar = tab.basis[r];
                tab.status[lvar] = if hits_lower {
                    VarStatus::AtLower
                } else {
                    VarStatus::AtUpper
                };
                // Snap exactly onto the bound to stop drift.
                tab.basis[r] = j;
                tab.status[j] = VarStatus::Basic(r);
                tab.xb[r] = entering_start + dir * t;

                // Elementary update of the factorization: pivot on w[r].
                debug_assert!(w[r].abs() > RATIO_TIE_TOL, "pivot too small");
                tab.pivot_update(r, &w);
            }
        }
    }
}

/// Tie-break for the ratio test: prefer the row with the larger pivot
/// magnitude (stability), or the lowest basis variable index under Bland.
fn better_pivot(
    current: &Option<(usize, bool)>,
    candidate_row: usize,
    w: &[f64],
    tab: &Tableau,
    bland: bool,
) -> bool {
    match current {
        None => true,
        Some((row, _)) => {
            if bland {
                tab.basis[candidate_row] < tab.basis[*row]
            } else {
                w[candidate_row].abs() > w[*row].abs()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hslb_linalg::Matrix;
    use hslb_rng::Rng;

    #[test]
    fn columns_sum_a_variable_repeated_within_a_row() {
        let mut lp = LinearProgram::new();
        let x = lp.add_var(1.0, 0.0, 10.0);
        let y = lp.add_var(1.0, 0.0, 10.0);
        lp.add_row(vec![(x, 1.0), (y, 2.0), (x, 3.0)], RowSense::Le, 4.0);
        lp.add_row(
            vec![(y, 0.0), (x, -1.0), (y, 5.0), (y, 0.5)],
            RowSense::Ge,
            1.0,
        );
        // A zero first occurrence is skipped, not stored.
        lp.add_row(vec![(x, 0.0), (x, 2.0)], RowSense::Eq, 2.0);
        let tab = Tableau::columns_of(&lp);
        assert_eq!(tab.cols[0], vec![(0, 4.0), (1, -1.0), (2, 2.0)]);
        assert_eq!(tab.cols[1], vec![(0, 2.0), (1, 5.5)]);
        // One slack column per row follows the structurals.
        assert_eq!(tab.cols.len(), 2 + 3);
        assert_eq!(tab.rhs, vec![4.0, 1.0, 2.0]);
    }

    /// The basis matrix of `tab`, dense.
    fn basis_matrix(tab: &Tableau) -> Matrix {
        let mut b = Matrix::zeros(tab.m, tab.m);
        for (k, &bvar) in tab.basis.iter().enumerate() {
            for &(row, a) in &tab.cols[bvar] {
                b[(row, k)] += a;
            }
        }
        b
    }

    /// `‖B x − v‖∞ / (‖B‖∞·‖x‖∞ + ‖v‖∞)`.
    fn backward_error(b: &Matrix, x: &[f64], v: &[f64]) -> f64 {
        let inf = |u: &[f64]| u.iter().fold(0.0_f64, |s, e| s.max(e.abs()));
        let r: Vec<f64> = b.matvec(x).iter().zip(v).map(|(bx, vi)| bx - vi).collect();
        inf(&r) / (b.inf_norm() * inf(x) + inf(v))
    }

    /// A seeded cut loop on a kept tableau: every round appends rows that
    /// the current optimum violates (bordering the factor) and re-solves
    /// with dual pivots (etas). Before the eta chain is folded into a
    /// refactorization, the bordered ftran and btran must solve with the
    /// basis as accurately as a fresh LU of it.
    #[test]
    fn bordered_solves_match_a_fresh_lu() {
        let mut rng = Rng::new(0xb0_4de4);
        let mut checked = 0;
        for case in 0..20 {
            let n = rng.usize_range(3, 8);
            let xstar = rng.vec_f64(n, -4.0, 4.0);
            let mut lp = LinearProgram::new();
            for &xs in &xstar {
                lp.add_var(rng.f64_range(-3.0, 3.0), xs - 5.0, xs + 5.0);
            }
            let mut warm = WarmLp::new(lp);
            for round in 0..12 {
                let sol = warm.solve(&SimplexOptions::default());
                assert_eq!(sol.status, LpStatus::Optimal, "case {case} round {round}");
                // Cuts through the midpoint of x* and the optimum keep x*
                // feasible and cut the optimum off.
                for _ in 0..rng.usize_range(1, 2) {
                    let tilt = rng.vec_f64(n, 0.5, 1.5);
                    let a: Vec<f64> = (0..n).map(|i| tilt[i] * (sol.x[i] - xstar[i])).collect();
                    let mid: f64 = (0..n).map(|i| a[i] * 0.5 * (sol.x[i] + xstar[i])).sum();
                    let coeffs = (0..n).map(|i| (VarId(i), a[i])).collect();
                    warm.add_row(coeffs, RowSense::Le, mid);
                }
            }
            let tab = warm.kept.as_ref().expect("a kept tableau");
            let updates = &tab.factor.updates;
            if !(updates.iter().any(|u| matches!(u, Update::Eta(_)))
                && updates.iter().any(|u| matches!(u, Update::Border(_))))
            {
                continue;
            }
            checked += 1;
            let b = basis_matrix(tab);
            let fresh = {
                let csc = CscMatrix::from_dense(&b);
                let sym = LuSymbolic::by_column_count(&csc).unwrap();
                SparseLu::factorize(&csc, &sym, &mut SparseWorkspace::new()).unwrap()
            };
            let bt = b.transpose();
            for _ in 0..4 {
                let v = rng.vec_f64(tab.m, -1.0, 1.0);
                let errors = [
                    ("ftran", backward_error(&b, &tab.ftran_vec(v.clone()), &v)),
                    ("fresh LU solve", backward_error(&b, &fresh.solve(&v), &v)),
                    ("btran", backward_error(&bt, &tab.btran(v.clone()), &v)),
                    (
                        "fresh LU transposed solve",
                        backward_error(&bt, &fresh.solve_transposed(&v), &v),
                    ),
                ];
                for (what, err) in errors {
                    assert!(err <= 1e-12, "case {case}: {what} backward error {err:e}");
                }
            }
        }
        assert!(
            checked >= 10,
            "only {checked} cases kept borders and etas together"
        );
    }
}
