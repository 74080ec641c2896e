//! Parallel performance models and the HSLB fitting step.
//!
//! Implements Table II of the IPDPSW'14 text (identical to the SC'12 FMO
//! paper's model): the wall-clock time of component `j` on `n` nodes is
//!
//! ```text
//! T_j(n) = T_sca(n) + T_nln(n) + T_ser = a_j / n^c_j + b_j·n + d_j
//! ```
//!
//! with all parameters nonnegative (Table II line 11). `T_sca` is the
//! perfectly scalable part, `T_ser` the serial floor, and `T_nln` the
//! partially-parallel/communication part (increasing on Intrepid, hence the
//! linear growth form).
//!
//! * [`PerfModel`] — the fitted function; evaluates, differentiates, and
//!   exports itself as a structured [`hslb_nlp::ScalarFn`] for the MINLP.
//! * [`fit()`](fit()) — the least-squares fitting step (Table II line 10) by
//!   variable projection: an exact nonnegative least squares per decay
//!   exponent and a grid-plus-Brent search over the exponent, global over
//!   the grid's range up to its spacing. Returns the model plus [`FitReport`] quality
//!   statistics (the paper's R² check).
//! * [`ScalingData`] — observation container plus the paper's §III-C advice
//!   on choosing benchmark node counts ([`ScalingData::suggest_node_counts`]).
//! * [`ModelKind`] — alternative functional forms (pure Amdahl, power law)
//!   used for model-selection ablations.

//! # Example
//!
//! Fit the paper model to five observations of a perfectly Amdahl-scaling
//! component:
//!
//! ```
//! use hslb_perfmodel::{fit, PerfModel, ScalingData};
//!
//! let truth = PerfModel::amdahl(1484.0, 1.94); // the 1° land surface
//! let data = ScalingData::from_pairs(
//!     [15u64, 24, 71, 128, 384].map(|n| (n, truth.eval(n as f64))),
//! );
//! let report = fit(&data).unwrap();
//! assert!(report.quality.r_squared > 0.9999);
//! assert!((report.model.eval(200.0) - truth.eval(200.0)).abs() < 0.5);
//! ```

pub mod data;
pub mod fit;
pub mod jsonio;
pub mod model;

pub use data::ScalingData;
pub use fit::{fit, fit_kind, FitError, FitReport};
pub use model::{ModelKind, PerfModel};
