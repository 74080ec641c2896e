//! The performance function `T(n) = a/n^c + b·n + d` and variants.

use hslb_nlp::ScalarFn;

/// Functional form used when fitting (the full paper model or a restricted
/// variant for ablations).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    /// `a/n^c + b·n + d` — Table II of the paper.
    Paper,
    /// `a/n + d` — classic Amdahl split (c pinned to 1, b pinned to 0).
    Amdahl,
    /// `a/n^c + d` — power-law decay without the increasing term.
    PowerLaw,
}

impl ModelKind {
    /// Number of free parameters.
    pub fn dim(&self) -> usize {
        match self {
            ModelKind::Paper => 4,
            ModelKind::Amdahl => 2,
            ModelKind::PowerLaw => 3,
        }
    }
}

/// A fitted performance model for one component.
///
/// All parameters are nonnegative by construction (the paper's constraint);
/// see [`crate::fit()`](crate::fit()) for how they are estimated.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerfModel {
    /// Scalable-work coefficient (`T_sca = a / n^c`).
    pub a: f64,
    /// Increasing-term coefficient (`T_nln = b·n`).
    pub b: f64,
    /// Decay exponent of the scalable part.
    pub c: f64,
    /// Serial floor (`T_ser = d`).
    pub d: f64,
}

impl PerfModel {
    /// Constructs a model, validating nonnegativity.
    ///
    /// # Panics
    /// Panics if any parameter is negative or non-finite.
    pub fn new(a: f64, b: f64, c: f64, d: f64) -> Self {
        for (name, v) in [("a", a), ("b", b), ("c", c), ("d", d)] {
            assert!(
                v.is_finite() && v >= 0.0,
                "parameter {name} must be nonnegative, got {v}"
            );
        }
        PerfModel { a, b, c, d }
    }

    /// Pure Amdahl model `a/n + d`.
    pub fn amdahl(a: f64, d: f64) -> Self {
        PerfModel::new(a, 0.0, 1.0, d)
    }

    /// Predicted wall-clock time on `n` nodes (`n > 0`).
    pub fn eval(&self, n: f64) -> f64 {
        debug_assert!(n > 0.0, "node count must be positive");
        self.a / n.powf(self.c) + self.b * n + self.d
    }

    /// Exports the *variable* part (`a/n^c + b·n`) as a structured
    /// [`ScalarFn`] for MINLP constraints; the constant `d` must be added to
    /// the constraint's constant term by the caller.
    pub fn to_scalar_fn(&self) -> ScalarFn {
        ScalarFn::perf_model(self.a, self.b, self.c)
    }

    /// Parameters as a slice-friendly array `[a, b, c, d]`.
    pub fn params(&self) -> [f64; 4] {
        [self.a, self.b, self.c, self.d]
    }
}

impl std::fmt::Display for PerfModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "T(n) = {:.6}/n^{:.4} + {:.6}·n + {:.4}",
            self.a, self.c, self.b, self.d
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_decomposes() {
        let m = PerfModel::new(1000.0, 0.01, 1.0, 5.0);
        let n = 50.0;
        assert!((m.eval(n) - (20.0 + 0.5 + 5.0)).abs() < 1e-12);
    }

    #[test]
    fn amdahl_special_case() {
        let m = PerfModel::amdahl(1495.0, 1.5);
        assert!((m.eval(24.0) - (1495.0 / 24.0 + 1.5)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "must be nonnegative")]
    fn rejects_negative_parameters() {
        PerfModel::new(-1.0, 0.0, 1.0, 0.0);
    }

    #[test]
    fn scalar_fn_round_trip() {
        let m = PerfModel::new(1000.0, 0.3, 0.9, 12.0);
        let f = m.to_scalar_fn();
        for &n in &[2.0, 37.0, 512.0] {
            assert!((f.eval(n) + m.d - m.eval(n)).abs() < 1e-9);
        }
    }

    #[test]
    fn display_is_readable() {
        let s = format!("{}", PerfModel::amdahl(10.0, 1.0));
        assert!(s.contains("T(n)"), "{s}");
    }
}
