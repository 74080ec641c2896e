//! Structured convex NLP solver — the "filterSQP" of this reproduction.
//!
//! Every nonlinearity in the HSLB models is a sum of **univariate** terms of
//! the performance function `T(n) = a·n^(-c) + b·n + d` attached to a single
//! variable. Rather than a general expression tree, constraints are stored
//! structurally as
//!
//! ```text
//! g(x) = Σ linear_j x_j + Σ φ_v(x_v) + const <= 0
//! ```
//!
//! with each `φ` a [`ScalarFn`] (sum of [`Term`]s). This makes gradients,
//! Hessians, convexity checks and outer-approximation linearizations exact
//! and trivially cheap — the property §III-E of the paper relies on ("the
//! positivity of the coefficients implies that the nonlinear functions are
//! convex, which ensures that MINOTAUR finds a global solution").
//!
//! The solver ([`barrier::solve`]) is a Mehrotra predictor-corrector
//! interior-point method ([`mpc`]) on the condensed primal-dual KKT system.
//! It starts from a strictly feasible point: a repaired parent optimum on
//! warm starts, else the box midpoint, passed through a phase-1 solve that
//! relaxes every constraint with one slack variable when needed. Where the
//! predictor-corrector iterations cannot finish (or the problem has no
//! barrier terms), a fixed-μ fallback on the same machinery restarts them:
//! damped Newton stages on the log-barrier function with the duals slaved
//! to `μ/s`, then the predictor-corrector iterations again from a centred
//! point. Each solve that ran it sets [`NlpSolution::barrier_fallbacks`].
//! Every `Optimal` passes one exit test at the duals it returns. The
//! problem's pattern picks how the Newton system is factored
//! ([`kkt_path`]): a min–max relaxation without equality rows, whose
//! condensed matrix is a diagonal plus a few hub columns and bordered rows,
//! by an O(k) structured LDLᵀ in its main loop; every other system densely,
//! by the Cholesky without equality rows or the LU of the bordered system
//! with them.
//!
//! Every optimum can be checked without trusting the barrier:
//! [`NlpSolution::certify`] reads only the problem, the point, the
//! inequality multipliers and the objective, and proves the optimum by
//! weak duality, which the problem's convexity makes valid.

//! # Example
//!
//! Minimize `T` over `T >= 100/n` with `n <= 20`:
//!
//! ```
//! use hslb_nlp::{solve, ConstraintFn, NlpProblem, NlpStatus, ScalarFn};
//!
//! let mut p = NlpProblem::new();
//! let n = p.add_var(0.0, 1.0, 20.0);
//! let t = p.add_var(1.0, 0.0, 1e6);
//! p.add_constraint(
//!     ConstraintFn::new("perf")
//!         .nonlinear_term(n, ScalarFn::perf_model(100.0, 0.0, 1.0))
//!         .linear_term(t, -1.0),
//! );
//! let sol = solve(&p).unwrap();
//! assert_eq!(sol.status, NlpStatus::Optimal);
//! assert!((sol.objective - 5.0).abs() < 1e-3); // 100/20
//! ```

pub mod barrier;
mod certificate;
pub mod mpc;
pub mod problem;
pub mod term;

pub use barrier::{
    kkt_path, solve, solve_warm_with, solve_with, BarrierOptions, KktPath, NlpError, NlpSolution,
    NlpStatus, WarmStart,
};
pub use problem::{ConstraintFn, NlpProblem};
pub use term::{ScalarFn, Term};
