//! Minimization of a function of one nonnegative variable: a uniform grid
//! finds the best cell, and Brent's method refines inside it.
//!
//! The grid makes the search global up to its spacing: a local minimum in a
//! basin narrower than one cell can be missed, but no starting point is
//! needed. While the best grid point is the top end, the grid goes on to
//! twice the upper end, with the same number of cells, up to a cap.

/// Grid over `(0, hi]` for [`minimize`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Grid {
    /// Upper end of the first interval.
    pub hi: f64,
    /// Cells per interval; the grid points are the cell ends.
    pub cells: usize,
    /// Upper end past which the grid is not extended.
    pub cap: f64,
}

/// Relative part of Brent's step tolerance. The grid cell has already
/// located the minimum, so the refinement can run to near working
/// precision: on near-exact data the profile stays resolvable that far.
const X_REL_TOL: f64 = 1e-12;
/// Absolute part of Brent's step tolerance, for minima near zero.
const X_ABS_TOL: f64 = 1e-15;
/// `(3 − √5) / 2`: the golden-section fraction.
const GOLDEN: f64 = 0.381_966_011_250_105_1;

/// Minimizes `f` over `x > 0` on `grid`; returns `(x, f(x))` at the best
/// point evaluated. Every comparison with `NaN` is false, so a point where
/// `f` is `NaN` is never taken as the best.
///
/// # Panics
/// Panics if `grid.cells == 0` or `grid.hi` is not positive.
pub fn minimize(mut f: impl FnMut(f64) -> f64, grid: &Grid) -> (f64, f64) {
    assert!(
        grid.cells > 0 && grid.hi > 0.0,
        "the grid needs a cell and a positive upper end"
    );
    let (mut x, mut fx) = (grid.hi, f64::INFINITY);
    // Grid neighbours of the best point; `above` is unset while the best
    // point is the last one evaluated.
    let (mut below, mut above) = (0.0, None);
    let (mut lo, mut hi) = (0.0, grid.hi);
    loop {
        let step = (hi - lo) / grid.cells as f64;
        let mut prev = lo;
        for k in 1..=grid.cells {
            let xk = if k == grid.cells {
                hi
            } else {
                lo + step * k as f64
            };
            let fk = f(xk);
            if fk < fx {
                (x, fx, below, above) = (xk, fk, prev, None);
            } else if above.is_none() && fx.is_finite() {
                above = Some(xk);
            }
            prev = xk;
        }
        if above.is_some() || hi >= grid.cap {
            break;
        }
        (lo, hi) = (hi, (2.0 * hi).min(grid.cap));
    }
    brent(&mut f, below, above.unwrap_or(x), x, fx)
}

/// Brent's minimization (Brent, *Algorithms for Minimization without
/// Derivatives*, 1973, ch. 5) on `[a, b]` from the point `x` with value
/// `fx`, which must be no worse than any evaluated point of the bracket.
fn brent(f: &mut impl FnMut(f64) -> f64, mut a: f64, mut b: f64, x0: f64, fx0: f64) -> (f64, f64) {
    let (mut x, mut fx) = (x0, fx0);
    // `w` is the second-best point, `v` the previous `w`.
    let (mut w, mut fw, mut v, mut fv) = (x, fx, x, fx);
    // `d` is the last step; `e` the step before it.
    let (mut d, mut e) = (0.0_f64, 0.0_f64);
    loop {
        let m = 0.5 * (a + b);
        let tol1 = X_REL_TOL * x.abs() + X_ABS_TOL;
        let tol2 = 2.0 * tol1;
        if (x - m).abs() <= tol2 - 0.5 * (b - a) {
            return (x, fx);
        }
        let mut golden = true;
        if e.abs() > tol1 {
            // Parabola through x, w and v.
            let r = (x - w) * (fx - fv);
            let q = (x - v) * (fx - fw);
            let mut p = (x - v) * q - (x - w) * r;
            let mut q = 2.0 * (q - r);
            if q > 0.0 {
                p = -p;
            } else {
                q = -q;
            }
            let e_prev = e;
            if p.abs() < (0.5 * q * e_prev).abs() && p > q * (a - x) && p < q * (b - x) {
                e = d;
                d = p / q;
                let u = x + d;
                if u - a < tol2 || b - u < tol2 {
                    d = tol1.copysign(m - x);
                }
                golden = false;
            }
        }
        if golden {
            e = if x >= m { a - x } else { b - x };
            d = GOLDEN * e;
        }
        let u = if d.abs() >= tol1 {
            x + d
        } else {
            x + tol1.copysign(d)
        };
        let fu = f(u);
        if fu <= fx {
            if u >= x {
                a = x;
            } else {
                b = x;
            }
            (v, fv, w, fw, x, fx) = (w, fw, x, fx, u, fu);
        } else {
            if u < x {
                a = u;
            } else {
                b = u;
            }
            if fu <= fw || w.to_bits() == x.to_bits() {
                (v, fv, w, fw) = (w, fw, u, fu);
            } else if fu <= fv || v.to_bits() == x.to_bits() || v.to_bits() == w.to_bits() {
                (v, fv) = (u, fu);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GRID: Grid = Grid {
        hi: 4.0,
        cells: 40,
        cap: 32.0,
    };

    #[test]
    fn finds_a_smooth_minimum_to_working_precision() {
        let evals = std::cell::Cell::new(0);
        let f = |x: f64| {
            evals.set(evals.get() + 1);
            (x - 1.234_567_890_123).powi(2)
        };
        let (x, fx) = minimize(f, &GRID);
        assert!((x - 1.234_567_890_123).abs() < 1e-11, "{x}");
        assert!(fx < 1e-22);
        assert!(evals.get() < 100, "{} evaluations", evals.get());
    }

    #[test]
    fn grid_picks_the_global_basin() {
        // A shallow local minimum at 0.5 and the global one at 3.0.
        let f = |x: f64| ((x - 0.5).powi(2) + 0.1).min((x - 3.0).powi(2) + 0.01 * (x - 3.0).abs());
        let (x, fx) = minimize(f, &GRID);
        assert!((x - 3.0).abs() < 1e-6, "{x}");
        assert!(fx < 1e-6);
    }

    #[test]
    fn extends_past_the_first_interval() {
        let (x, _) = minimize(|x| (x - 9.5).powi(2), &GRID);
        assert!((x - 9.5).abs() < 1e-9, "{x}");
    }

    #[test]
    fn stops_at_the_cap() {
        let (x, _) = minimize(|x| -x, &GRID);
        assert!((x - 32.0).abs() < 1e-9, "{x}");
    }

    #[test]
    fn minimum_near_zero_is_reached() {
        let (x, _) = minimize(|x| (x - 1e-3).powi(2), &GRID);
        assert!((x - 1e-3).abs() < 1e-12, "{x}");
    }

    #[test]
    fn nan_is_never_the_minimum() {
        let (x, fx) = minimize(
            |x| if x < 2.0 { f64::NAN } else { (x - 2.5).powi(2) },
            &GRID,
        );
        assert!((x - 2.5).abs() < 1e-9, "{x}");
        assert!(fx.is_finite());
    }
}
