//! Fit optimality, checked without trusting the fitter.
//!
//! * Golden residuals: `tests/data/fit_multistart_sse.txt` holds the
//!   residual sum of squares the 12-start Levenberg–Marquardt multistart
//!   reached on a pinned set of datasets, recorded before the profile search
//!   replaced it. Every current fit must do at least as well, up to 1e-9
//!   relative and 1e-24·Σy² absolute.
//! * KKT at the returned exponent: with `c` fixed, the fit is a linear least
//!   squares in its nonnegative coefficients. Each positive coefficient must
//!   have a zero gradient of the residual sum of squares, and each zero
//!   coefficient a nonnegative one, both within a relative tolerance.

use hslb_cesm_sim::{CesmSimulator, Scenario};
use hslb_perfmodel::{fit_kind, FitReport, ModelKind, PerfModel, ScalingData};
use hslb_rng::{hash_mix, Rng};

const GOLDEN: &str = include_str!("data/fit_multistart_sse.txt");

/// Relative slack on the multistart's residual.
const SSE_REL: f64 = 1e-9;
/// Absolute slack, relative to `Σy²`: rounding in the residual sum itself.
const SSE_ABS_REL: f64 = 1e-24;
/// KKT gradients are compared with `‖x_j‖·‖y‖`.
const KKT_REL: f64 = 1e-9;

/// The pinned dataset of one golden line.
fn dataset(set: &str, index: u64) -> ScalingData {
    match set {
        "testkit" => {
            let mut rng = Rng::new(hash_mix(&[index, 0x601D]));
            hslb_testkit::gen::fit_dataset(&mut rng, 1 + (index % 4) as u32).data
        }
        "micro" => {
            let truth = PerfModel::new(27_180.0, 5e-4, 1.0, 44.0);
            ScalingData::from_pairs(
                [104u64, 208, 416, 832, 1664, 3328]
                    .iter()
                    .map(|&n| (n, truth.eval(n as f64))),
            )
        }
        "e1" => {
            let scenario = Scenario::one_degree(2048);
            let mut sim = CesmSimulator::new(scenario.clone(), hslb_rng::seeds::CESM);
            let data = hslb::gather(&mut sim, &scenario.benchmark_counts(5));
            data[usize::try_from(index).expect("component index")].clone()
        }
        other => panic!("unknown golden set {other}"),
    }
}

fn kind_named(name: &str) -> ModelKind {
    match name {
        "Paper" => ModelKind::Paper,
        "PowerLaw" => ModelKind::PowerLaw,
        "Amdahl" => ModelKind::Amdahl,
        other => panic!("unknown model kind {other}"),
    }
}

fn golden_cases() -> Vec<(String, ScalingData, ModelKind, f64)> {
    GOLDEN
        .lines()
        .filter(|l| !l.starts_with('#'))
        .map(|line| {
            let f: Vec<&str> = line.split_whitespace().collect();
            let index: u64 = f[1].parse().expect("index");
            let sse: f64 = f[3].parse().expect("sse");
            (
                line.to_string(),
                dataset(f[0], index),
                kind_named(f[2]),
                sse,
            )
        })
        .collect()
}

fn sse(model: &PerfModel, data: &ScalingData) -> f64 {
    data.points()
        .iter()
        .map(|&(n, y)| (y - model.eval(n as f64)).powi(2))
        .sum()
}

/// A linear coefficient of a fitted model: its name, its value, and its
/// column `x(n, c)`.
type Column = (&'static str, f64, fn(f64, f64) -> f64);

fn columns(kind: ModelKind, m: &PerfModel) -> Vec<Column> {
    let mut cols: Vec<Column> = vec![("a", m.a, |n, c| n.powf(-c))];
    if kind == ModelKind::Paper {
        cols.push(("b", m.b, |n, _| n));
    }
    cols.push(("d", m.d, |_, _| 1.0));
    cols
}

/// KKT conditions of the linear coefficients at the returned exponent.
fn check_kkt(label: &str, kind: ModelKind, data: &ScalingData, rep: &FitReport) {
    let y_norm = data.points().iter().map(|p| p.1 * p.1).sum::<f64>().sqrt();
    for (name, coef, col) in columns(kind, &rep.model) {
        // d(SSE)/dβ_j = -2 Σ x_ij r_i.
        let (mut grad, mut x_norm) = (0.0, 0.0);
        for &(n, y) in data.points() {
            let x = col(n as f64, rep.model.c);
            grad -= 2.0 * x * (y - rep.model.eval(n as f64));
            x_norm += x * x;
        }
        let tol = KKT_REL * 2.0 * x_norm.sqrt() * y_norm;
        if coef > 0.0 {
            assert!(
                grad.abs() <= tol,
                "{label}: {name} = {coef} > 0 but gradient {grad:e} (tol {tol:e}); {}",
                rep.model
            );
        } else {
            assert!(
                grad >= -tol,
                "{label}: {name} = 0 but gradient {grad:e} < 0 (tol {tol:e}); {}",
                rep.model
            );
        }
    }
}

#[test]
fn no_fit_is_worse_than_the_multistart() {
    let cases = golden_cases();
    assert_eq!(cases.len(), 64 * 3 + 1 + 4, "golden table incomplete");
    for (label, data, kind, golden) in cases {
        let rep = fit_kind(&data, kind).expect("pinned data fits");
        let sy2: f64 = data.points().iter().map(|p| p.1 * p.1).sum();
        let got = sse(&rep.model, &data);
        let bound = golden * (1.0 + SSE_REL) + SSE_ABS_REL * sy2;
        assert!(
            got <= bound,
            "{label}: SSE {got:e} above the multistart's {golden:e} (bound {bound:e}); {}",
            rep.model
        );
    }
}

#[test]
fn linear_coefficients_meet_kkt_at_the_returned_exponent() {
    for (label, data, kind, _) in golden_cases() {
        let rep = fit_kind(&data, kind).expect("pinned data fits");
        check_kkt(&label, kind, &data, &rep);
    }
}
