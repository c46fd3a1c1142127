//! Scalar numeric kernels: monotone bisection, root finding and convex
//! minimisation.

/// Iteration cap for all scalar searches (enough for f64 resolution).
pub const MAX_ITER: usize = 200;

/// Smallest `x ∈ [lo, hi]` with `pred(x)` true, for a monotone predicate
/// (false … false true … true). Requires `pred(hi)`; if `pred(lo)` already
/// holds, returns `lo`. The result is the `hi` end of the final bracket, so
/// the predicate holds at the returned point.
pub fn bisect_predicate(mut lo: f64, mut hi: f64, pred: impl Fn(f64) -> bool) -> f64 {
    debug_assert!(lo <= hi);
    if pred(lo) {
        return lo;
    }
    debug_assert!(pred(hi), "predicate must hold at the upper bracket");
    for _ in 0..MAX_ITER {
        let mid = 0.5 * (lo + hi);
        if mid <= lo || mid >= hi {
            break; // f64 exhausted
        }
        if pred(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    hi
}

/// Root of a nondecreasing function `f` on `[lo, hi]` with `f(lo) ≤ 0 ≤
/// f(hi)`, by the Illinois variant of regula falsi: secant interpolation
/// with the retained endpoint's value halved on stagnation, falling back
/// to bisection when the interpolant leaves the bracket. The result is
/// within `tol` of the sign change; convergence is superlinear on smooth
/// `f`, which matters when each evaluation is an O(m) sweep.
pub fn falsi_root(mut lo: f64, mut hi: f64, tol: f64, f: impl Fn(f64) -> f64) -> f64 {
    debug_assert!(lo <= hi);
    let mut flo = f(lo);
    if flo > 0.0 {
        return lo;
    }
    let mut fhi = f(hi);
    if fhi < 0.0 {
        return hi;
    }
    // Which end the previous iterate kept: -1 = lo, 1 = hi, 0 = neither.
    let mut side = 0i8;
    for _ in 0..MAX_ITER {
        if hi - lo <= tol {
            break;
        }
        let mut mid = if fhi > flo {
            (lo * fhi - hi * flo) / (fhi - flo)
        } else {
            0.5 * (lo + hi)
        };
        if !(mid > lo && mid < hi) {
            mid = 0.5 * (lo + hi);
            if mid <= lo || mid >= hi {
                break; // f64 exhausted
            }
        }
        let fm = f(mid);
        if fm <= 0.0 {
            lo = mid;
            flo = fm;
            if side == -1 {
                fhi *= 0.5;
            }
            side = -1;
        } else {
            hi = mid;
            fhi = fm;
            if side == 1 {
                flo *= 0.5;
            }
            side = 1;
        }
    }
    0.5 * (lo + hi)
}

/// Golden-section minimisation of a (quasi-)convex `f` on `[lo, hi]`.
/// Returns `(argmin, min)` within `tol` of the true minimiser. Robust to the
/// piecewise-smooth convex objectives of Theorem 2.4 (kinks where the loaded
/// link set changes).
pub fn golden_min(mut lo: f64, mut hi: f64, tol: f64, f: impl Fn(f64) -> f64) -> (f64, f64) {
    debug_assert!(lo <= hi);
    const INV_PHI: f64 = 0.618_033_988_749_894_9;
    let mut x1 = hi - INV_PHI * (hi - lo);
    let mut x2 = lo + INV_PHI * (hi - lo);
    let mut f1 = f(x1);
    let mut f2 = f(x2);
    for _ in 0..MAX_ITER {
        if hi - lo <= tol {
            break;
        }
        if f1 <= f2 {
            hi = x2;
            x2 = x1;
            f2 = f1;
            x1 = hi - INV_PHI * (hi - lo);
            f1 = f(x1);
        } else {
            lo = x1;
            x1 = x2;
            f1 = f2;
            x2 = lo + INV_PHI * (hi - lo);
            f2 = f(x2);
        }
    }
    let xm = 0.5 * (lo + hi);
    let fm = f(xm);
    // Return the best of the probes (guards near-flat objectives).
    if f1 <= fm && f1 <= f2 {
        (x1, f1)
    } else if f2 <= fm {
        (x2, f2)
    } else {
        (xm, fm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predicate_threshold() {
        let x = bisect_predicate(0.0, 10.0, |x| x >= std::f64::consts::PI);
        assert!((x - std::f64::consts::PI).abs() < 1e-12);
        assert!(x >= std::f64::consts::PI);
    }

    #[test]
    fn predicate_already_true() {
        assert_eq!(bisect_predicate(2.0, 5.0, |x| x >= 1.0), 2.0);
    }

    #[test]
    fn root_of_cubic() {
        let r = falsi_root(0.0, 4.0, 1e-14, |x| x * x * x - 8.0);
        assert!((r - 2.0).abs() < 1e-10);
    }

    #[test]
    fn falsi_finds_known_roots() {
        for (f, root) in [
            (
                (|x: f64| x - std::f64::consts::PI) as fn(f64) -> f64,
                std::f64::consts::PI,
            ),
            (|x| (x - 2.5).tanh(), 2.5),
        ] {
            let r = falsi_root(0.0, 4.0, 1e-14, f);
            assert!((r - root).abs() < 1e-10, "{r} vs {root}");
        }
    }

    #[test]
    fn falsi_counts_fewer_evaluations() {
        // Bisection needs 54 evaluations for this bracket and tolerance;
        // Illinois needs 33. The bar keeps two thirds of bisection's count.
        use std::cell::Cell;
        let n = Cell::new(0usize);
        let f = |x: f64| {
            n.set(n.get() + 1);
            x * x * x - 8.0
        };
        falsi_root(0.0, 4.0, 1e-15, f);
        assert!(n.get() <= 35, "falsi used {} evaluations", n.get());
    }

    #[test]
    fn falsi_clamps_when_no_sign_change() {
        assert_eq!(falsi_root(1.0, 2.0, 1e-12, |x| x), 1.0);
        assert_eq!(falsi_root(-2.0, -1.0, 1e-12, |x| x), -1.0);
    }

    #[test]
    fn golden_quadratic() {
        let (x, v) = golden_min(-10.0, 10.0, 1e-12, |x| (x - 3.0) * (x - 3.0) + 1.0);
        assert!((x - 3.0).abs() < 1e-6);
        assert!((v - 1.0).abs() < 1e-10);
    }

    #[test]
    fn golden_piecewise_kink() {
        // Convex with a kink at 1: min there.
        let (x, _) = golden_min(0.0, 5.0, 1e-12, |x| (x - 1.0).abs() + 0.5 * x);
        assert!((x - 1.0).abs() < 1e-6);
    }

    #[test]
    fn golden_boundary_minimum() {
        let (x, _) = golden_min(0.0, 2.0, 1e-12, |x| x);
        assert!(x < 1e-6);
    }
}
