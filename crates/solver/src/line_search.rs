//! Exact line search for Frank–Wolfe steps.
//!
//! Along a direction `d` from a feasible flow `f`, the objective
//! `φ(γ) = Σ_e F_e(f_e + γ d_e)` is convex, so `φ'` is nondecreasing and the
//! minimiser on `[0, γ_max]` is a sign change of `φ'` — found by Illinois
//! regula falsi on the batched path and by bisection on the scalar one
//! (exact up to f64, no Armijo constants to tune).

use sopt_latency::{DirPlan, Latency};

use crate::eval::Eval;
use crate::objective::CostModel;
use crate::roots::{bisect_root, falsi_root};

/// Upper bound on the step so that `f + γ d` stays strictly inside every
/// link's capacity domain (M/M/1 poles). Returns at most `1`.
pub fn max_step<L: Latency>(lats: &[L], f: &[f64], d: &[f64]) -> f64 {
    let mut gamma = 1.0f64;
    for ((l, &fe), &de) in lats.iter().zip(f).zip(d) {
        let cap = l.capacity();
        if cap.is_finite() && de > 0.0 {
            // Stay a hair inside the pole.
            let room = (cap * 0.999_999 - fe).max(0.0);
            gamma = gamma.min(room / de);
        }
    }
    gamma
}

/// Minimise `γ ↦ Σ_e F_e(f_e + γ d_e)` over `[0, γ_max]`.
pub fn exact_step<L: Latency>(
    lats: &[L],
    model: CostModel,
    f: &[f64],
    d: &[f64],
    gamma_max: f64,
) -> f64 {
    let dphi = |gamma: f64| -> f64 {
        lats.iter()
            .zip(f)
            .zip(d)
            .map(|((l, &fe), &de)| {
                if de == 0.0 {
                    0.0
                } else {
                    de * model.edge_gradient(l, (fe + gamma * de).max(0.0))
                }
            })
            .sum()
    };
    if dphi(0.0) >= 0.0 {
        return 0.0; // not a descent direction
    }
    if dphi(gamma_max) <= 0.0 {
        return gamma_max; // still descending at the cap
    }
    bisect_root(0.0, gamma_max, 1e-15, dphi)
}

/// [`max_step`] through an [`Eval`] view: the batched path reads the
/// precomputed capacity slice instead of dispatching per edge.
pub fn max_step_eval(ev: &Eval, f: &[f64], d: &[f64]) -> f64 {
    let Some(batch) = ev.batch() else {
        return max_step(ev.latencies(), f, d);
    };
    let mut gamma = 1.0f64;
    for ((&cap, &fe), &de) in batch.capacities().iter().zip(f).zip(d) {
        if cap.is_finite() && de > 0.0 {
            // Stay a hair inside the pole.
            let room = (cap * 0.999_999 - fe).max(0.0);
            gamma = gamma.min(room / de);
        }
    }
    gamma
}

/// [`exact_step`] through an [`Eval`] view. The batched path gathers the
/// direction's nonzero entries into `plan` once, then minimises `φ` with
/// the Illinois root finder — each `φ'` probe is a short contiguous sweep
/// and far fewer probes are needed than bisection takes. The scalar path
/// (`plan` untouched) reproduces [`exact_step`]'s historical
/// bisection-over-dense-sweeps behaviour exactly.
pub fn exact_step_eval(
    ev: &Eval,
    model: CostModel,
    f: &[f64],
    d: &[f64],
    gamma_max: f64,
    plan: &mut DirPlan,
) -> f64 {
    let Some(batch) = ev.batch() else {
        return exact_step(ev.latencies(), model, f, d, gamma_max);
    };
    batch.plan_dir(f, d, plan);
    let plan = &*plan;
    let dphi = |gamma: f64| match model {
        CostModel::Wardrop => plan.value(batch, gamma),
        CostModel::SystemOptimum => plan.marginal(batch, gamma),
    };
    if dphi(0.0) >= 0.0 {
        return 0.0; // not a descent direction
    }
    if dphi(gamma_max) <= 0.0 {
        return gamma_max; // still descending at the cap
    }
    falsi_root(0.0, gamma_max, 1e-15, dphi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sopt_latency::LatencyFn;

    #[test]
    fn quadratic_interior_step() {
        // One link ℓ(x) = x, Wardrop objective x²/2; from f=0 toward d=1 the
        // derivative is γ — minimised at 0... use f=2, d=-1: φ(γ) = (2-γ)²/2,
        // φ' = -(2-γ) < 0 until γ=2 > γ_max=1 → full step.
        let lats = vec![LatencyFn::identity()];
        let g = exact_step(&lats, CostModel::Wardrop, &[2.0], &[-1.0], 1.0);
        assert!((g - 1.0).abs() < 1e-12);
    }

    #[test]
    fn balances_two_links() {
        // Links x and x; f = (1, 0); d = (-1, 1). Beckmann optimal split at
        // γ = 0.5 (flows equal).
        let lats = vec![LatencyFn::identity(), LatencyFn::identity()];
        let g = exact_step(&lats, CostModel::Wardrop, &[1.0, 0.0], &[-1.0, 1.0], 1.0);
        assert!((g - 0.5).abs() < 1e-9);
    }

    #[test]
    fn non_descent_returns_zero() {
        let lats = vec![LatencyFn::identity(), LatencyFn::identity()];
        // Moving flow from the balanced point is never profitable.
        let g = exact_step(&lats, CostModel::Wardrop, &[0.5, 0.5], &[1.0, -1.0], 1.0);
        assert_eq!(g, 0.0);
    }

    #[test]
    fn step_respects_mm1_capacity() {
        let lats = vec![LatencyFn::mm1(1.0), LatencyFn::affine(1.0, 0.0)];
        let gmax = max_step(&lats, &[0.5, 0.5], &[1.0, -1.0]);
        assert!(gmax < 0.5);
        assert!(gmax > 0.49);
    }

    #[test]
    fn max_step_defaults_to_one() {
        let lats = vec![LatencyFn::identity()];
        assert_eq!(max_step(&lats, &[0.0], &[5.0]), 1.0);
    }

    #[test]
    fn eval_variants_match_scalar() {
        use sopt_latency::LatencyBatch;
        let lats = vec![LatencyFn::mm1(1.0), LatencyFn::affine(1.0, 0.0)];
        let batch = LatencyBatch::new(&lats);
        let ev = Eval::new(&lats, Some(&batch));
        let f = [0.5, 0.3];
        let d = [0.4, -0.4];
        let gmax_scalar = max_step(&lats, &f, &d);
        let gmax_eval = max_step_eval(&ev, &f, &d);
        assert!((gmax_eval - gmax_scalar).abs() < 1e-15);
        let mut plan = DirPlan::new();
        for model in [CostModel::Wardrop, CostModel::SystemOptimum] {
            let a = exact_step_eval(&ev, model, &f, &d, gmax_eval, &mut plan);
            let b = exact_step(&lats, model, &f, &d, gmax_scalar);
            assert!((a - b).abs() < 1e-12, "{model:?}: {a} vs {b}");
        }
    }
}
