//! Linear programming substrate for the MINLP stack (the "CLP" of this
//! reproduction).
//!
//! MINOTAUR's LP/NLP-based branch-and-bound (the solver the HSLB papers use)
//! drives an LP solver: it solves an LP relaxation at every branch-and-bound
//! node and appends outer-approximation cut rows whenever an integer-feasible
//! point violates a nonlinear constraint. This crate provides exactly that
//! interface:
//!
//! * [`LinearProgram`] — a builder for `min cᵀx` subject to row constraints
//!   (`<=`, `>=`, `=`) and per-variable bounds (finite or infinite), with
//!   incremental row addition for cuts.
//! * [`solve`] — a bounded-variable two-phase primal simplex (artificial
//!   Phase 1, Dantzig pricing with a Bland anti-cycling fallback) over a
//!   sparse LU basis factorization with product-form eta updates; each
//!   refactorization orders the basis columns by nonzero count, slack
//!   singletons first.
//! * [`WarmLp`] — the program an OA cut loop re-solves. It owns the
//!   [`LinearProgram`] and keeps the tableau and basis factor of its last
//!   solve; appended rows border the factor and moved bounds move their
//!   nonbasic variables, so [`WarmLp::solve`] re-enters the dual simplex
//!   without rebuilding or refactorizing. The first solve starts from the
//!   slack basis. Each solve moves boxed nonbasic variables to the bound
//!   their reduced costs ask for, and falls back to the two-phase solve
//!   only when the start stays dual infeasible, on numerical trouble, or to
//!   certify `Infeasible`.
//! * [`LpSolution`] / [`LpStatus`] — primal values, objective, duals, and
//!   infeasible/unbounded outcomes. [`LpSolution::certify`] checks an
//!   optimum from the LP, its point and its duals alone: primal and dual
//!   feasibility, complementary slackness and a zero duality gap.
//!
//! HSLB LPs range from a few dozen rows (E7 masters) to several hundred
//! (FMO masters after a few hundred OA cuts, whose epigraph column touches
//! every cut row) and — in the binary-encoded ablation of §III-E — a few
//! thousand columns.

//! # Example
//!
//! ```
//! use hslb_lp::{solve, LinearProgram, LpStatus, RowSense};
//!
//! // max x + y  s.t.  x + 2y <= 8, 3x + y <= 9  (as minimization)
//! let mut lp = LinearProgram::new();
//! let x = lp.add_var(-1.0, 0.0, f64::INFINITY);
//! let y = lp.add_var(-1.0, 0.0, f64::INFINITY);
//! lp.add_row(vec![(x, 1.0), (y, 2.0)], RowSense::Le, 8.0);
//! lp.add_row(vec![(x, 3.0), (y, 1.0)], RowSense::Le, 9.0);
//! let sol = solve(&lp);
//! assert_eq!(sol.status, LpStatus::Optimal);
//! assert!((sol.x[0] - 2.0).abs() < 1e-8 && (sol.x[1] - 3.0).abs() < 1e-8);
//! ```

pub mod model;
pub mod simplex;
pub mod solution;

pub use model::{LinearProgram, RowSense, VarId};
pub use simplex::{solve, solve_with, SimplexOptions, WarmLp};
pub use solution::{LpSolution, LpStatus};
