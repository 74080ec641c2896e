//! Bounded-variable two-phase primal simplex, plus the dual simplex that
//! cut loops re-solve with.
//!
//! Layout: one slack column per row turns every constraint into an equality
//! with bounds on the slack; artificial columns are added only for rows whose
//! initial slack value falls outside the slack bounds. Phase 1 minimizes the
//! sum of artificials; Phase 2 minimizes the true objective with artificials
//! frozen at zero.
//!
//! The basis lives in a `BasisFactor`: a sparse LU factorization with
//! Bartels–Golub-style product-form eta updates per pivot, at every row
//! count. Each refactorization orders the basis columns by nonzero count
//! ([`LuSymbolic::by_column_count`]): one sort, slack singletons first, the
//! epigraph hub of an OA master last. The factorization is rebuilt every
//! `REFACTOR_EVERY` pivots for numerical hygiene. Every optimum can be
//! checked without trusting this module: [`LpSolution::certify`] reads only
//! the LP, the point, the duals and the objective.
//!
//! [`solve_warm`] runs the dual simplex from the basis saved by a previous
//! solve, or from the slack basis when there is none. Neither appending a
//! `<=` cut row nor moving variable bounds changes the cost vector, so the
//! reduced costs of the saved basis keep their values. Their signs can
//! still be wrong for a boxed nonbasic variable whose box widened (a pin
//! `lo == hi` released); such a variable moves to its other bound, which
//! restores dual feasibility. The new cut's slack enters the basis,
//! out-of-bound nonbasic variables snap to their moved bounds, and a
//! handful of dual pivots restore primal feasibility — no Phase 1
//! artificials, no cold Phase 2. Only a start that stays dual infeasible,
//! numerical trouble or an infeasibility verdict falls back to the cold
//! two-phase solve, which is the one source of `Infeasible`.
// lint:allow-file(slice-index): the tableau kernel indexes basis/column
// arrays end to end; every index is derived from tableau dimensions fixed
// at construction, and iterator forms would obscure the pivot algebra.

use crate::model::{LinearProgram, RowSense};
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
/// Pivots between basis refactorizations.
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
/// bound). Looser than `OPT_TOL` because the saved optimum was itself only
/// tolerance-optimal and the basis is refactorized on reload; any residual
/// drift is repaired by the primal clean-up phase after the dual pivots.
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

/// Basis saved at a previous optimum for reuse by [`solve_warm`].
///
/// Opaque to callers; keep one per cut loop (the OA master keeps one per
/// tree) and pass it to every `solve_warm` call. The reuse contract is that
/// successive LPs only *append* rows and *move* variable bounds — existing
/// rows and the cost vector must not change between solves. Bound moves
/// may widen a box as well as narrow it: a nonbasic variable released from
/// a pin moves to whichever bound keeps the basis dual feasible. Both paths
/// through `solve_warm` (dual pivots or cold fallback) refresh the saved
/// basis, so staleness is self-healing.
#[derive(Debug, Clone, Default)]
pub struct WarmBasis {
    /// Status of every structural and slack column at the saved optimum.
    status: Vec<VarStatus>,
    /// Variable occupying each basis row.
    basis: Vec<usize>,
    num_vars: usize,
    num_rows: usize,
    saved: bool,
}

impl WarmBasis {
    /// An empty basis; the first `solve_warm` call starts from the slack
    /// basis and fills it in.
    pub fn new() -> Self {
        WarmBasis::default()
    }

    /// Whether the saved basis can seed a solve of `lp` (same columns, row
    /// set grown by appending only).
    fn usable_for(&self, lp: &LinearProgram) -> bool {
        self.saved && self.num_vars == lp.num_vars() && self.num_rows <= lp.num_rows()
    }

    /// The saved statuses and basis, extended to `lp`'s rows: each appended
    /// cut row's slack starts basic in its own row (an OA cut is violated
    /// by the incumbent vertex, so that slack is out of bounds and the dual
    /// pivots drive it out again).
    fn reload(&self, lp: &LinearProgram) -> (Vec<VarStatus>, Vec<usize>) {
        let mut status = self.status.clone();
        let mut basis = self.basis.clone();
        for r in self.num_rows..lp.num_rows() {
            status.push(VarStatus::Basic(r));
            basis.push(self.num_vars + r);
        }
        (status, basis)
    }

    /// Records the basis of an optimal tableau. A degenerate optimum can
    /// leave a Phase-1 artificial basic at zero; such a basis is not
    /// reusable and is dropped.
    fn save_from(&mut self, tab: &Tableau, num_vars: usize) {
        let nm = num_vars + tab.m;
        if tab.basis.iter().any(|&b| b >= nm) {
            self.saved = false;
            return;
        }
        self.status.clear();
        self.status.extend_from_slice(&tab.status[..nm]);
        self.basis.clear();
        self.basis.extend_from_slice(&tab.basis);
        self.num_vars = num_vars;
        self.num_rows = tab.m;
        self.saved = true;
    }
}

/// One product-form update recorded by a pivot. The update matrix `E⁻¹`
/// applies to a vector as `v[r] /= pivot; v[i] -= w_i·v[r]` (`i ≠ r`): the
/// elementary row operation of the pivot.
struct Eta {
    r: usize,
    /// Off-pivot rows of the ftran column (`i ≠ r`, structural zeros
    /// dropped).
    w: Vec<(usize, f64)>,
    pivot: f64,
}

/// The basis representation behind the simplex: a `SparseLu` plus the etas
/// appended since the last refactorization (Bartels–Golub-style product
/// form). ftran applies the LU solve then the etas in order; btran applies
/// the transposed etas in reverse then the transposed LU solve.
#[derive(Default)]
struct BasisFactor {
    /// `None` until the first refactorization.
    lu: Option<SparseLu>,
    etas: Vec<Eta>,
    ws: SparseWorkspace,
}

struct Tableau {
    /// All columns: structurals, then slacks, then artificials.
    cols: Vec<Column>,
    lo: Vec<f64>,
    hi: Vec<f64>,
    status: Vec<VarStatus>,
    /// Variable occupying each basis row.
    basis: Vec<usize>,
    /// Basis factorization (sparse LU + etas).
    factor: BasisFactor,
    /// Values of the basic variables, row-aligned with `basis`.
    xb: Vec<f64>,
    /// Right-hand side per row (all rows are equalities after slacks).
    rhs: Vec<f64>,
    /// Whether each column may enter the basis (artificials may not in
    /// Phase 2).
    can_enter: Vec<bool>,
    m: usize,
    /// Basis (re)factorizations performed.
    factorizations: u64,
    /// Product-form eta updates appended.
    factor_updates: u64,
    /// Cumulative factor nonzeros across refactorizations.
    fill_nnz: u64,
}

impl Tableau {
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

    /// y = B⁻ᵀ v: transposed etas in reverse order, then the transposed LU
    /// solve.
    fn btran(&self, mut v: Vec<f64>) -> Vec<f64> {
        let BasisFactor { lu, etas, .. } = &self.factor;
        for eta in etas.iter().rev() {
            let mut s = v[eta.r];
            for &(i, wi) in &eta.w {
                s -= wi * v[i];
            }
            v[eta.r] = s / eta.pivot;
        }
        match lu {
            Some(f) => f.solve_transposed(&v),
            None => v,
        }
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

    /// w = B⁻¹ v for a dense right-hand side: LU solve then the etas in
    /// recording order.
    fn ftran_vec(&self, v: Vec<f64>) -> Vec<f64> {
        let BasisFactor { lu, etas, .. } = &self.factor;
        let mut w = match lu {
            Some(f) => f.solve(&v),
            None => v,
        };
        for eta in etas {
            let vr = w[eta.r] / eta.pivot;
            w[eta.r] = vr;
            if !exactly_zero(vr) {
                for &(i, wi) in &eta.w {
                    w[i] -= wi * vr;
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
        self.factor.etas.push(Eta {
            r,
            w: wr,
            pivot: w[r],
        });
        self.factor_updates += 1;
    }

    /// Rebuilds the basis factorization and `xb` from scratch (numerical
    /// hygiene; also the eta compaction point).
    fn refactorize(&mut self) -> Result<(), ()> {
        self.factorizations += 1;
        let bcols: Vec<&[(usize, f64)]> = self
            .basis
            .iter()
            .map(|&bvar| &self.cols[bvar][..])
            .collect();
        let b = CscMatrix::from_columns(self.m, &bcols).map_err(|_| ())?;
        let sym = LuSymbolic::by_column_count(&b).map_err(|_| ())?;
        let f = SparseLu::factorize(&b, &sym, &mut self.factor.ws).map_err(|_| ())?;
        self.fill_nnz += f.fill_nnz() as u64;
        self.factor.etas.clear();
        self.factor.lu = Some(f);
        self.recompute_xb();
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
    /// `IterationLimit`), carrying this tableau's factorization work.
    fn stopped(&self, status: LpStatus, iterations: usize, dual_pivots: usize) -> LpSolution {
        LpSolution {
            dual_pivots,
            factorizations: self.factorizations,
            factor_updates: self.factor_updates,
            fill_nnz: self.fill_nnz,
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
    /// went through eta updates since the last refactorization, and some
    /// row residual of the structural point fails the row check of
    /// [`LpSolution::certify`] (relative to `1 + |rhs| + Σ|a_j·x_j|` at
    /// 1e-7, this module's `FEAS_TOL`).
    fn drifted(&self, lp: &LinearProgram) -> bool {
        !self.factor.etas.is_empty()
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
}

/// Solves the LP with default options.
pub fn solve(lp: &LinearProgram) -> LpSolution {
    solve_with(lp, &SimplexOptions::default())
}

/// Solves the LP with explicit options.
pub fn solve_with(lp: &LinearProgram, opts: &SimplexOptions) -> LpSolution {
    let sol = solve_inner(lp, None);
    opts.trace.emit(|| Event::LpSolved {
        pivots: sol.iterations as u64,
    });
    sol
}

/// Solves the LP, reusing (and refreshing) the basis in `warm`.
///
/// The solve runs dual-simplex pivots from the basis `warm` holds when it
/// is compatible with `lp` (see [`WarmBasis`]), and otherwise from the
/// slack basis: structurals at a finite bound, every slack basic in its own
/// row. Either start first moves each boxed nonbasic variable to the bound
/// its reduced cost asks for. A start that is still dual infeasible, any
/// numerical trouble and any infeasibility verdict fall back to the cold
/// two-phase solve, so results never depend on the start being good and
/// `Infeasible` always comes from the cold path. `dual_pivots`/`warm_used`
/// in the solution report what happened; the counters include the work of
/// an abandoned dual attempt.
pub fn solve_warm(lp: &LinearProgram, opts: &SimplexOptions, warm: &mut WarmBasis) -> LpSolution {
    let reuse = warm.usable_for(lp);
    let (status, basis) = if reuse {
        warm.reload(lp)
    } else {
        slack_basis(lp)
    };
    let sol = match try_dual(lp, status, basis, warm) {
        Ok(sol) => LpSolution {
            warm_used: reuse,
            ..sol
        },
        Err(attempt) => {
            let cold = solve_inner(lp, Some(warm));
            LpSolution {
                iterations: cold.iterations + attempt.iterations,
                dual_pivots: cold.dual_pivots + attempt.dual_pivots,
                factorizations: cold.factorizations + attempt.factorizations,
                factor_updates: cold.factor_updates + attempt.factor_updates,
                fill_nnz: cold.fill_nnz + attempt.fill_nnz,
                ..cold
            }
        }
    };
    opts.trace.emit(|| Event::LpSolved {
        pivots: sol.iterations as u64,
    });
    sol
}

/// The slack basis of `lp`: structurals nonbasic at [`initial_status`],
/// every slack basic in its own row.
fn slack_basis(lp: &LinearProgram) -> (Vec<VarStatus>, Vec<usize>) {
    let n = lp.num_vars();
    let m = lp.num_rows();
    let status = lp
        .lowers()
        .iter()
        .zip(lp.uppers())
        .map(|(&lo, &hi)| initial_status(lo, hi))
        .chain((0..m).map(VarStatus::Basic))
        .collect();
    (status, (n..n + m).collect())
}

/// Structural + slack columns, bounds, and row right-hand sides — the part
/// of the tableau shared by cold and warm starts (artificials are cold-only).
struct TableauBase {
    cols: Vec<Column>,
    lo: Vec<f64>,
    hi: Vec<f64>,
    rhs: Vec<f64>,
}

fn build_base(lp: &LinearProgram) -> TableauBase {
    let m = lp.num_rows();
    let n = lp.num_vars();
    // Structural columns (transpose the row-wise storage, summing dups).
    let mut cols: Vec<Column> = vec![Vec::new(); n];
    let mut rhs = vec![0.0; m];
    for (r, row) in lp.rows().iter().enumerate() {
        rhs[r] = row.rhs;
        for &(v, c) in &row.coeffs {
            // Rows are visited in order, so a repeat of `v` within this row
            // can only be the column's last entry.
            match cols[v.0].last_mut() {
                Some(entry) if entry.0 == r => entry.1 += c,
                _ if !exactly_zero(c) => cols[v.0].push((r, c)),
                _ => {}
            }
        }
    }
    let mut lo = lp.lowers().to_vec();
    let mut hi = lp.uppers().to_vec();

    // Slack columns.
    for (r, row) in lp.rows().iter().enumerate() {
        cols.push(vec![(r, 1.0)]);
        match row.sense {
            RowSense::Le => {
                lo.push(0.0);
                hi.push(f64::INFINITY);
            }
            RowSense::Ge => {
                lo.push(f64::NEG_INFINITY);
                hi.push(0.0);
            }
            RowSense::Eq => {
                lo.push(0.0);
                hi.push(0.0);
            }
        }
    }
    TableauBase { cols, lo, hi, rhs }
}

/// The actual two-phase solve; `solve_with` wraps it so that every return
/// path emits exactly one trace event. When `save` is given, the optimal
/// basis is recorded into it for later `solve_warm` calls.
fn solve_inner(lp: &LinearProgram, save: Option<&mut WarmBasis>) -> LpSolution {
    let m = lp.num_rows();
    let n = lp.num_vars();

    let TableauBase {
        mut cols,
        mut lo,
        mut hi,
        rhs,
    } = build_base(lp);
    let mut can_enter = vec![true; n + m];
    let slack_base = n;

    // Initial nonbasic placement for structurals.
    let mut status: Vec<VarStatus> = (0..n).map(|j| initial_status(lo[j], hi[j])).collect();

    // Row residuals with structurals at their parked values.
    let mut resid = rhs.clone();
    for j in 0..n {
        let v = match status[j] {
            VarStatus::AtLower => lo[j],
            VarStatus::AtUpper => hi[j],
            _ => 0.0,
        };
        if !exactly_zero(v) {
            for &(row, a) in &cols[j] {
                resid[row] -= a * v;
            }
        }
    }

    // Slack placement: basic when the residual fits its bounds, otherwise
    // parked at the nearest bound with an artificial absorbing the deficit.
    // Slack statuses are pushed first (they occupy columns n..n+m); the
    // artificial statuses are appended afterwards so `status[j]` stays
    // aligned with column `j`.
    let mut basis = Vec::with_capacity(m);
    let mut xb = Vec::with_capacity(m);
    let mut artificials = Vec::new();
    let mut art_status = Vec::new();
    for (r, &s) in resid.iter().enumerate() {
        let sj = slack_base + r;
        if s >= lo[sj] - FEAS_TOL && s <= hi[sj] + FEAS_TOL {
            status.push(VarStatus::Basic(r));
            basis.push(sj);
            xb.push(s);
        } else {
            let parked = if s < lo[sj] { lo[sj] } else { hi[sj] };
            status.push(if parked == lo[sj] {
                VarStatus::AtLower
            } else {
                VarStatus::AtUpper
            });
            let deficit = s - parked;
            // Artificial column sign(deficit)·e_r, basic at |deficit|.
            let aj = cols.len();
            cols.push(vec![(r, deficit.signum())]);
            lo.push(0.0);
            hi.push(f64::INFINITY);
            can_enter.push(true);
            art_status.push(VarStatus::Basic(r));
            basis.push(aj);
            xb.push(deficit.abs());
            artificials.push(aj);
        }
    }
    status.extend(art_status);

    let mut tab = Tableau {
        cols,
        lo,
        hi,
        status,
        basis,
        factor: BasisFactor::default(),
        factorizations: 0,
        factor_updates: 0,
        fill_nnz: 0,
        xb,
        rhs,
        can_enter,
        m,
    };
    // The slack part of the initial basis is the identity but artificial
    // columns may carry a -1 coefficient; build the true inverse up front.
    if tab.refactorize().is_err() {
        return tab.stopped(LpStatus::IterationLimit, 0, 0);
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
            PhaseEnd::Unbounded | PhaseEnd::IterationLimit => {
                return tab.stopped(LpStatus::IterationLimit, iterations, 0);
            }
        }
        let infeasibility: f64 = artificials.iter().map(|&a| tab.value(a).max(0.0)).sum();
        if infeasibility > FEAS_TOL * 10.0 {
            return tab.stopped(LpStatus::Infeasible, iterations, 0);
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
            if let Some(warm) = save {
                warm.save_from(&tab, n);
            }
            tab.optimal(lp, &costs2, iterations, dual_pivots)
        }
        Some(PhaseEnd::Unbounded) => tab.stopped(LpStatus::Unbounded, iterations, dual_pivots),
        Some(PhaseEnd::IterationLimit) | None => {
            tab.stopped(LpStatus::IterationLimit, iterations, dual_pivots)
        }
    }
}

/// Runs the dual simplex from the start `status`/`basis` and saves the
/// optimal basis into `warm`. `Err` means the caller should fall back to a
/// cold solve — singular start, dual infeasibility no bound flip repairs,
/// pivot breakdown, iteration cap, or a primal-infeasibility verdict
/// (re-derived cold so infeasibility always comes from one path) — and
/// carries the abandoned attempt's work.
fn try_dual(
    lp: &LinearProgram,
    mut status: Vec<VarStatus>,
    basis: Vec<usize>,
    warm: &mut WarmBasis,
) -> Result<LpSolution, LpSolution> {
    let m = lp.num_rows();
    let n = lp.num_vars();
    let nm = n + m;
    let TableauBase { cols, lo, hi, rhs } = build_base(lp);

    // Bound moves can change which bounds exist; re-park nonbasic variables
    // whose saved bound went infinite.
    for j in 0..nm {
        match status[j] {
            VarStatus::Basic(_) => {}
            VarStatus::AtLower if lo[j].is_finite() => {}
            VarStatus::AtUpper if hi[j].is_finite() => {}
            _ => status[j] = initial_status(lo[j], hi[j]),
        }
    }
    for (r, &b) in basis.iter().enumerate() {
        if status[b] != VarStatus::Basic(r) {
            return Err(LpSolution::without_point(LpStatus::IterationLimit, 0));
        }
    }

    let mut tab = Tableau {
        cols,
        lo,
        hi,
        status,
        basis,
        factor: BasisFactor::default(),
        factorizations: 0,
        factor_updates: 0,
        fill_nnz: 0,
        xb: vec![0.0; m],
        rhs,
        can_enter: vec![true; nm],
        m,
    };
    let mut costs = vec![0.0; nm];
    costs[..n].copy_from_slice(lp.costs());
    let mut iterations = 0usize;
    let mut dual_pivots = 0usize;
    let end = run_dual(&mut tab, &costs, &mut iterations, &mut dual_pivots);
    let end = settle(&mut tab, lp, &costs, end, &mut iterations, &mut dual_pivots);
    match end {
        Some(PhaseEnd::Optimal) => {
            warm.save_from(&tab, n);
            Ok(tab.optimal(lp, &costs, iterations, dual_pivots))
        }
        Some(PhaseEnd::Unbounded) => Ok(tab.stopped(LpStatus::Unbounded, iterations, dual_pivots)),
        Some(PhaseEnd::IterationLimit) | None => {
            Err(tab.stopped(LpStatus::IterationLimit, iterations, dual_pivots))
        }
    }
}

/// Checks an optimal `end` against eta drift: the simplex tests
/// feasibility on the basic values, which the eta updates change step by
/// step, so a point can leave a row unseen. While the optimum has
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
        end = run_dual(tab, costs, iterations, dual_pivots);
    }
    end
}

/// Factorizes the start basis of `tab`, makes it dual feasible by bound
/// flips, runs dual pivots until the basis is primal feasible, then a
/// primal clean-up phase. `None` is a failure the cold solve must redo.
fn run_dual(
    tab: &mut Tableau,
    costs: &[f64],
    iterations: &mut usize,
    dual_pivots: &mut usize,
) -> Option<PhaseEnd> {
    let nm = costs.len();
    tab.refactorize().ok()?;

    // The dual simplex needs a dual-feasible start. A boxed nonbasic
    // variable whose reduced cost has the wrong sign for its bound moves to
    // the other bound: a pin released since the basis was saved leaves
    // exactly that, because a fixed column is never checked (it never
    // enters, so any sign is fine). Any other wrong sign hands over to the
    // cold solve.
    let y = tab.duals(costs);
    let mut moved = false;
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
        moved = true;
    }
    if moved {
        tab.recompute_xb();
    }

    let mut since_refactor = 0usize;
    loop {
        if *iterations >= MAX_ITERS {
            return None;
        }
        if since_refactor >= REFACTOR_EVERY {
            tab.refactorize().ok()?;
            since_refactor = 0;
        }

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
        let (j, _, _) = enter?;

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
        since_refactor += 1;
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
    let mut since_refactor = 0usize;

    loop {
        if *iterations >= MAX_ITERS {
            return PhaseEnd::IterationLimit;
        }
        if since_refactor >= REFACTOR_EVERY {
            // A singular refactorization here would indicate corruption of
            // the basis bookkeeping; keep going with the updated inverse.
            let _ = tab.refactorize();
            since_refactor = 0;
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
        since_refactor += 1;
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

    #[test]
    fn build_base_sums_a_variable_repeated_within_a_row() {
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
        let base = build_base(&lp);
        assert_eq!(base.cols[0], vec![(0, 4.0), (1, -1.0), (2, 2.0)]);
        assert_eq!(base.cols[1], vec![(0, 2.0), (1, 5.5)]);
        // One slack column per row follows the structurals.
        assert_eq!(base.cols.len(), 2 + 3);
        assert_eq!(base.rhs, vec![4.0, 1.0, 2.0]);
    }
}
