//! Exact line search for Frank–Wolfe steps.
//!
//! Along a direction `d` from a feasible flow `f`, the objective
//! `φ(γ) = Σ_e F_e(f_e + γ d_e)` is convex, so `φ'` is nondecreasing and the
//! minimiser on `[0, γ_max]` is a sign change of `φ'` — found by Illinois
//! regula falsi over a gathered [`DirPlan`] of the direction's nonzero
//! entries (exact up to f64, no Armijo constants to tune).

use sopt_latency::DirPlan;

use crate::eval::Eval;
use crate::objective::CostModel;
use crate::roots::falsi_root;

/// Upper bound on the step so that `f + γ d` stays strictly inside every
/// link's capacity domain (M/M/1 poles). Returns at most `1`.
pub fn max_step(ev: &Eval, f: &[f64], d: &[f64]) -> f64 {
    let mut gamma = 1.0f64;
    for ((&cap, &fe), &de) in ev.batch().capacities().iter().zip(f).zip(d) {
        if cap.is_finite() && de > 0.0 {
            // Stay a hair inside the pole.
            let room = (cap * 0.999_999 - fe).max(0.0);
            gamma = gamma.min(room / de);
        }
    }
    gamma
}

/// Minimise `γ ↦ Σ_e F_e(f_e + γ d_e)` over `[0, γ_max]`. The direction's
/// nonzero entries are gathered into `plan` once, so each `φ'` probe of the
/// Illinois root finder is a short contiguous sweep.
pub fn exact_step(
    ev: &Eval,
    model: CostModel,
    f: &[f64],
    d: &[f64],
    gamma_max: f64,
    plan: &mut DirPlan,
) -> f64 {
    let batch = ev.batch();
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
    use sopt_latency::{Latency, LatencyBatch, LatencyFn};

    fn step(lats: &[LatencyFn], model: CostModel, f: &[f64], d: &[f64], gamma_max: f64) -> f64 {
        let batch = LatencyBatch::new(lats);
        exact_step(
            &Eval::new(lats, &batch),
            model,
            f,
            d,
            gamma_max,
            &mut DirPlan::new(),
        )
    }

    fn cap(lats: &[LatencyFn], f: &[f64], d: &[f64]) -> f64 {
        let batch = LatencyBatch::new(lats);
        max_step(&Eval::new(lats, &batch), f, d)
    }

    #[test]
    fn quadratic_interior_step() {
        // One link ℓ(x) = x, Wardrop objective x²/2; from f=0 toward d=1 the
        // derivative is γ — minimised at 0... use f=2, d=-1: φ(γ) = (2-γ)²/2,
        // φ' = -(2-γ) < 0 until γ=2 > γ_max=1 → full step.
        let lats = vec![LatencyFn::identity()];
        let g = step(&lats, CostModel::Wardrop, &[2.0], &[-1.0], 1.0);
        assert!((g - 1.0).abs() < 1e-12);
    }

    #[test]
    fn balances_two_links() {
        // Links x and x; f = (1, 0); d = (-1, 1). Beckmann optimal split at
        // γ = 0.5 (flows equal).
        let lats = vec![LatencyFn::identity(), LatencyFn::identity()];
        let g = step(&lats, CostModel::Wardrop, &[1.0, 0.0], &[-1.0, 1.0], 1.0);
        assert!((g - 0.5).abs() < 1e-9);
    }

    #[test]
    fn non_descent_returns_zero() {
        let lats = vec![LatencyFn::identity(), LatencyFn::identity()];
        // Moving flow from the balanced point is never profitable.
        let g = step(&lats, CostModel::Wardrop, &[0.5, 0.5], &[1.0, -1.0], 1.0);
        assert_eq!(g, 0.0);
    }

    #[test]
    fn step_respects_mm1_capacity() {
        let lats = vec![LatencyFn::mm1(1.0), LatencyFn::affine(1.0, 0.0)];
        let gmax = cap(&lats, &[0.5, 0.5], &[1.0, -1.0]);
        assert!(gmax < 0.5);
        assert!(gmax > 0.49);
    }

    #[test]
    fn max_step_defaults_to_one() {
        let lats = vec![LatencyFn::identity()];
        assert_eq!(cap(&lats, &[0.0], &[5.0]), 1.0);
    }

    #[test]
    fn eval_variants_match_scalar() {
        // Scalar reference: per-edge capacities and φ' through `LatencyFn`
        // dispatch. The step must sit on φ''s sign change.
        let lats = vec![LatencyFn::mm1(2.0), LatencyFn::affine(1.0, 0.0)];
        let f = [0.2, 1.3];
        let d = [1.3, -1.3];
        let gmax = cap(&lats, &f, &d);
        let room = (lats[0].capacity() * 0.999_999 - f[0]) / d[0];
        assert_eq!(gmax, room.min(1.0));
        for model in [CostModel::Wardrop, CostModel::SystemOptimum] {
            let dphi = |g: f64| -> f64 {
                (0..2)
                    .map(|e| d[e] * model.edge_gradient(&lats[e], (f[e] + g * d[e]).max(0.0)))
                    .sum()
            };
            let g = step(&lats, model, &f, &d, gmax);
            assert!(g > 0.0 && g < gmax, "{model:?}: step {g} not interior");
            assert!(dphi(g - 1e-9) < 0.0, "{model:?}: φ' ≥ 0 below {g}");
            assert!(dphi(g + 1e-9) > 0.0, "{model:?}: φ' ≤ 0 above {g}");
        }
    }
}
