//! Least-squares kernels for the HSLB fitting step.
//!
//! The HSLB papers (SC'12 §Fit, IPDPSW'14 Table II line 10) fit the
//! performance function `T(n) = a/n^c + b·n + d` to observed component wall
//! clocks by solving
//!
//! ```text
//! min_{a,b,c,d >= 0}  Σ_i ( y_i - T(n_i; a,b,c,d) )²
//! ```
//!
//! The problem is non-convex only in `c`: for a fixed exponent it is a
//! nonnegative linear least-squares problem in the other coefficients. The
//! fit is therefore solved by variable projection (Golub & Pereyra, SIAM J.
//! Numer. Anal. 1973; O'Leary & Rust, Comput. Optim. Appl. 2013): the inner
//! problem exactly, the one-dimensional profile over `c` by a bracketed
//! search. `hslb-perfmodel` builds the model columns; this crate provides
//! the generic parts:
//!
//! * [`nnls()`](nnls()) — nonnegative least squares in at most three columns, solved
//!   exactly by trying supports.
//! * [`minimize`] — a grid over `(0, hi]` plus Brent's method in the best
//!   cell, global over the grid's range up to its spacing.
//! * [`stats`] — goodness-of-fit statistics (R², RMSE) used to judge fits the
//!   way the paper does ("R² was very close to 1 for each component").

pub mod nnls;
pub mod search;
pub mod stats;

pub use nnls::{nnls, NnlsSolution, NormalEquations, MAX_COLS};
pub use search::{minimize, Grid};
pub use stats::{r_squared, rmse, sse, FitQuality};
