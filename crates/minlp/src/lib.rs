//! Hand-rolled MINLP solvers — the reproduction's substitute for MINOTAUR.
//!
//! The HSLB papers solve their node-allocation models with MINOTAUR's
//! LP/NLP-based branch-and-bound (Quesada–Grossmann single-tree outer
//! approximation, §III-E of the IPDPSW'14 text). No mature MINLP crates
//! exist, so this crate implements the full stack on top of the workspace's
//! own LP simplex ([`hslb_lp`]) and barrier NLP ([`hslb_nlp`]) solvers:
//!
//! * [`MinlpProblem`] — convex MINLP model: linear objective, structured
//!   convex constraints, continuous / integer / finite-allowed-set variables.
//!   Allowed-set variables model the paper's ocean node counts and
//!   atmosphere "sweet spots" natively (Table I lines 5–6, 29–31).
//! * [`solve_nlp_bnb`] — classical NLP-based branch and bound (solve the
//!   continuous relaxation at every node).
//! * [`solve_oa_bnb`] — the paper's LP/NLP-based branch and bound: a single
//!   tree over LP relaxations with lazy outer-approximation cuts added
//!   whenever an integer point violates a nonlinear constraint, and
//!   integer secants (chords through the admissible neighbours of each
//!   fractional coordinate) that cut off a fractional point before it is
//!   branched on.
//! * [`solve_parallel_bnb`] — fork-join parallel variant of the
//!   NLP-based tree with a shared atomic incumbent.
//! * Branching ([`branching`]): most-fractional variable selection and
//!   **interval branching on allowed-value sets** — the
//!   "branch on the special ordered set rather than on individual binary
//!   variables" trick the paper credits with two orders of magnitude
//!   (§III-E). The explicit binary SOS1 encoding is kept in [`encode`] for
//!   the ablation benchmark.
//! * [`oracle`] — exhaustive reference solver for cross-checking optima on
//!   small instances in tests.

//! # Example
//!
//! `min T` subject to `T >= 100/n`, `n` restricted to the allowed set
//! `{3, 5, 17}` — the optimum picks the largest member:
//!
//! ```
//! use hslb_minlp::{solve_oa_bnb, MinlpOptions, MinlpProblem, MinlpStatus};
//! use hslb_nlp::{ConstraintFn, ScalarFn};
//!
//! let mut p = MinlpProblem::new();
//! let n = p.add_set_var(0.0, [3, 5, 17]);
//! let t = p.add_var(1.0, 0.0, 1e6);
//! p.add_constraint(
//!     ConstraintFn::new("perf")
//!         .nonlinear_term(n, ScalarFn::perf_model(100.0, 0.0, 1.0))
//!         .linear_term(t, -1.0),
//! );
//! let sol = solve_oa_bnb(&p, &MinlpOptions::default());
//! assert_eq!(sol.status, MinlpStatus::Optimal);
//! assert_eq!(sol.x[n].round() as i64, 17);
//! ```

pub mod ampl;
pub mod bnb;
pub mod branching;
pub mod encode;
pub mod model;
pub mod oa;
pub mod oracle;
pub mod parallel;
pub mod presolve;
pub(crate) mod scratch;
pub mod types;

pub use ampl::to_ampl;
pub use bnb::{solve_nlp_bnb, solve_nlp_bnb_seeded};
pub use encode::encode_sets_as_binaries;
pub use model::{MinlpProblem, VarDomain};
pub use oa::solve_oa_bnb;
pub use oracle::solve_exhaustive;
pub use parallel::solve_parallel_bnb;
pub use presolve::{presolve, presolved, PresolveOutcome};
pub use types::{MinlpOptions, MinlpSolution, MinlpStatus, NodeSelection, ABS_GAP, REL_GAP};

// Observability vocabulary, re-exported so downstream crates can configure
// traces/clocks and read counters without a direct `hslb-obs` dependency.
pub use hslb_obs::{ClockHandle, Event, FakeClock, RingBuffer, SolveStats, Trace};
