//! Batched latency evaluation for the solver hot loops.
//!
//! Every O(m) sweep of the Frank–Wolfe family — gradient costs, curvature
//! weights, the final objective — runs through the kind-homogeneous
//! struct-of-arrays lanes of a prebuilt [`LatencyBatch`]. [`Eval`] pairs
//! those lanes with the cost model's choice of lane kernel; solvers build
//! it once per solve (the batch lives in the workspace, so construction
//! amortises across iterations and warm polishes). The line search probes
//! its derivative through a gathered `DirPlan` instead (see
//! [`crate::line_search`]).

use sopt_latency::{LatencyBatch, LatencyFn};

use crate::objective::CostModel;

/// A view over an edge-latency vector and the [`LatencyBatch`] built over
/// it, evaluating the solver's O(m) sweeps through the batched lanes.
#[derive(Clone, Copy, Debug)]
pub struct Eval<'a> {
    lats: &'a [LatencyFn],
    batch: &'a LatencyBatch,
}

impl<'a> Eval<'a> {
    /// Wrap `lats` and `batch`, which must have been built (or rebuilt)
    /// over exactly `lats`.
    pub fn new(lats: &'a [LatencyFn], batch: &'a LatencyBatch) -> Self {
        assert_eq!(batch.len(), lats.len(), "batch/latency length mismatch");
        Self { lats, batch }
    }

    /// The underlying latency slice.
    pub fn latencies(&self) -> &'a [LatencyFn] {
        self.lats
    }

    /// The batched lanes.
    pub fn batch(&self) -> &'a LatencyBatch {
        self.batch
    }

    /// Capacity `sup { x : ℓ_e(x) < ∞ }` of edge `e`.
    #[inline]
    pub fn capacity(&self, e: usize) -> f64 {
        self.batch.capacities()[e]
    }

    /// `out[e] = F'_e(f[e])` — the gradient costs Dijkstra prices with.
    pub fn gradient_into(&self, model: CostModel, f: &[f64], out: &mut [f64]) {
        match model {
            CostModel::Wardrop => self.batch.value_into(f, out),
            CostModel::SystemOptimum => self.batch.marginal_into(f, out),
        }
    }

    /// `out[e] = F''_e(f[e])` — the curvature weights of conjugate FW.
    pub fn curvature_into(&self, model: CostModel, f: &[f64], out: &mut [f64]) {
        match model {
            CostModel::Wardrop => self.batch.derivative_into(f, out),
            CostModel::SystemOptimum => self.batch.marginal_derivative_into(f, out),
        }
    }

    /// `Σ_e F_e(f[e])` — the objective value at `f`.
    pub fn objective_sum(&self, model: CostModel, f: &[f64]) -> f64 {
        match model {
            CostModel::Wardrop => self.batch.beckmann_sum(f),
            CostModel::SystemOptimum => self.batch.total_cost_sum(f),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sopt_latency::Latency;

    #[test]
    fn batched_and_scalar_views_agree() {
        // The scalar reference is per-edge `LatencyFn` dispatch through the
        // cost model's edge functions.
        let lats = vec![
            LatencyFn::bpr(1.0, 0.15, 10.0, 4),
            LatencyFn::mm1(6.0),
            LatencyFn::affine(0.5, 1.0),
            LatencyFn::constant(2.0),
        ];
        let batch = LatencyBatch::new(&lats);
        let batched = Eval::new(&lats, &batch);
        let f = [2.0, 1.5, 0.7, 3.0];
        let mut out = [0.0; 4];
        for model in [CostModel::Wardrop, CostModel::SystemOptimum] {
            batched.gradient_into(model, &f, &mut out);
            for e in 0..4 {
                let want = model.edge_gradient(&lats[e], f[e]);
                assert!((out[e] - want).abs() < 1e-12, "gradient edge {e}");
            }
            batched.curvature_into(model, &f, &mut out);
            for e in 0..4 {
                let want = model.edge_curvature(&lats[e], f[e]);
                assert!((out[e] - want).abs() < 1e-12, "curvature edge {e}");
            }
            let want: f64 = (0..4).map(|e| model.edge_objective(&lats[e], f[e])).sum();
            let got = batched.objective_sum(model, &f);
            assert!(
                (got - want).abs() < 1e-12 * want.abs().max(1.0),
                "objective"
            );
        }
        for (e, l) in lats.iter().enumerate() {
            assert_eq!(batched.capacity(e), l.capacity());
        }
    }
}
