//! Equilibria on arbitrary s–t and k-commodity networks (Frank–Wolfe).
//!
//! Every solve has three forms: the classic panicking convenience
//! (`network_nash`), a `try_` variant surfacing the unreachable-sink
//! failure as a typed [`SolverError`], and a warm-start parameter on the
//! `try_` form — `seed` is a per-commodity flow set (usually the
//! `per_commodity` of a previous [`FwResult`], or MOP's free flow for an
//! induced solve) that skips the all-or-nothing bootstrap when the previous
//! solution is close to the new one.

use sopt_latency::LatencyFn;
use sopt_network::flow::EdgeFlow;
use sopt_network::graph::NodeId;
use sopt_network::instance::{MultiCommodityInstance, NetworkInstance};
use sopt_solver::error::SolverError;
use sopt_solver::frank_wolfe::{
    try_solve_parts, try_solve_warm, try_solve_warm_multicommodity, FwOptions, FwResult,
};
use sopt_solver::objective::CostModel;

/// Warm-start seed for the `try_` solves: per-commodity flows of a nearby
/// solution (rescaled internally; an unusable seed falls back to a cold
/// start).
pub type WarmSeed<'a> = Option<&'a FwResult>;

/// Wrap a bare edge flow as a single-commodity warm-start seed. Only the
/// per-commodity flow matters to the seeded solver; the bookkeeping fields
/// are placeholders (`converged = false`, no iterations). MOP uses this to
/// seed the induced solve from its free flow.
pub fn warm_seed_from(flow: &EdgeFlow) -> FwResult {
    warm_seed_from_per(vec![flow.clone()])
}

/// Wrap per-commodity flows as a k-commodity warm-start seed (one
/// [`EdgeFlow`] per commodity, in commodity order).
pub fn warm_seed_from_per(per: Vec<EdgeFlow>) -> FwResult {
    let m = per.first().map_or(0, |f| f.0.len());
    let mut combined = EdgeFlow::zeros(m);
    for p in &per {
        for (c, x) in combined.0.iter_mut().zip(&p.0) {
            *c += x;
        }
    }
    FwResult {
        flow: combined,
        per_commodity: per,
        objective: f64::NAN,
        rel_gap: f64::INFINITY,
        iterations: 0,
        fw_iterations: 0,
        polish_rounds: 0,
        converged: false,
    }
}

/// Nash (Wardrop) flow of `(G, r)`: minimiser of the Beckmann potential.
/// Panics where [`try_network_nash`] errors.
pub fn network_nash(inst: &NetworkInstance, opts: &FwOptions) -> FwResult {
    try_network_nash(inst, opts, None).unwrap_or_else(|e| panic!("{e}"))
}

/// [`network_nash`] with typed errors and an optional warm start.
pub fn try_network_nash(
    inst: &NetworkInstance,
    opts: &FwOptions,
    seed: WarmSeed<'_>,
) -> Result<FwResult, SolverError> {
    try_solve_warm(inst, CostModel::Wardrop, opts, seed)
}

/// Optimum flow `O` of `(G, r)`: minimiser of total cost. Panics where
/// [`try_network_optimum`] errors.
pub fn network_optimum(inst: &NetworkInstance, opts: &FwOptions) -> FwResult {
    try_network_optimum(inst, opts, None).unwrap_or_else(|e| panic!("{e}"))
}

/// [`network_optimum`] with typed errors and an optional warm start.
pub fn try_network_optimum(
    inst: &NetworkInstance,
    opts: &FwOptions,
    seed: WarmSeed<'_>,
) -> Result<FwResult, SolverError> {
    try_solve_warm(inst, CostModel::SystemOptimum, opts, seed)
}

/// The equilibrium induced by a Leader edge flow: Followers route the
/// remaining rate against a-posteriori latencies `ℓ_e(· + s_e)`.
///
/// `leader_value` is the s→t value of the Leader's flow (the amount
/// subtracted from the follower rate). Returns the *follower* result; the
/// Stackelberg equilibrium is `leader + follower`. Panics where
/// [`try_induced_network`] errors.
pub fn induced_network(
    inst: &NetworkInstance,
    leader: &EdgeFlow,
    leader_value: f64,
    opts: &FwOptions,
) -> FwResult {
    try_induced_network(inst, leader, leader_value, opts, None).unwrap_or_else(|e| panic!("{e}"))
}

/// [`induced_network`] with typed errors and an optional warm start —
/// chained α-sweeps seed each induced solve from the previous α's
/// follower flow; MOP callers seed from the free flow (which *is* the
/// induced equilibrium when the strategy enforces the optimum).
pub fn try_induced_network(
    inst: &NetworkInstance,
    leader: &EdgeFlow,
    leader_value: f64,
    opts: &FwOptions,
    seed: WarmSeed<'_>,
) -> Result<FwResult, SolverError> {
    assert_eq!(leader.as_slice().len(), inst.num_edges());
    assert!(leader_value >= -1e-12 && leader_value <= inst.rate + 1e-9);
    let latencies: Vec<LatencyFn> = inst
        .latencies
        .iter()
        .zip(leader.as_slice())
        .map(|(l, &s)| l.preloaded(s))
        .collect();
    let demands = [(inst.source, inst.sink, (inst.rate - leader_value).max(0.0))];
    try_solve_parts(
        &inst.graph,
        &latencies,
        &demands,
        CostModel::Wardrop,
        opts,
        seed,
    )
}

/// Nash flow of a k-commodity instance. Panics where
/// [`try_multicommodity_nash`] errors.
pub fn multicommodity_nash(inst: &MultiCommodityInstance, opts: &FwOptions) -> FwResult {
    try_multicommodity_nash(inst, opts, None).unwrap_or_else(|e| panic!("{e}"))
}

/// [`multicommodity_nash`] with typed errors and an optional warm start.
pub fn try_multicommodity_nash(
    inst: &MultiCommodityInstance,
    opts: &FwOptions,
    seed: WarmSeed<'_>,
) -> Result<FwResult, SolverError> {
    try_solve_warm_multicommodity(inst, CostModel::Wardrop, opts, seed)
}

/// Optimum flow of a k-commodity instance. Panics where
/// [`try_multicommodity_optimum`] errors.
pub fn multicommodity_optimum(inst: &MultiCommodityInstance, opts: &FwOptions) -> FwResult {
    try_multicommodity_optimum(inst, opts, None).unwrap_or_else(|e| panic!("{e}"))
}

/// [`multicommodity_optimum`] with typed errors and an optional warm start.
pub fn try_multicommodity_optimum(
    inst: &MultiCommodityInstance,
    opts: &FwOptions,
    seed: WarmSeed<'_>,
) -> Result<FwResult, SolverError> {
    try_solve_warm_multicommodity(inst, CostModel::SystemOptimum, opts, seed)
}

/// Induced equilibrium on a k-commodity instance: the Leader preloads edge
/// flow `leader` whose per-commodity values are `leader_values[i]`; every
/// commodity's followers route the remainder selfishly. Panics where
/// [`try_induced_multicommodity`] errors.
pub fn induced_multicommodity(
    inst: &MultiCommodityInstance,
    leader: &EdgeFlow,
    leader_values: &[f64],
    opts: &FwOptions,
) -> FwResult {
    try_induced_multicommodity(inst, leader, leader_values, opts, None)
        .unwrap_or_else(|e| panic!("{e}"))
}

/// [`induced_multicommodity`] with typed errors and an optional warm start.
pub fn try_induced_multicommodity(
    inst: &MultiCommodityInstance,
    leader: &EdgeFlow,
    leader_values: &[f64],
    opts: &FwOptions,
    seed: WarmSeed<'_>,
) -> Result<FwResult, SolverError> {
    assert_eq!(leader_values.len(), inst.commodities.len());
    let latencies: Vec<LatencyFn> = inst
        .latencies
        .iter()
        .zip(leader.as_slice())
        .map(|(l, &s)| l.preloaded(s.max(0.0)))
        .collect();
    // Fully-controlled commodities legitimately drop to rate 0.
    let demands: Vec<(NodeId, NodeId, f64)> = inst
        .commodities
        .iter()
        .zip(leader_values)
        .map(|(c, &v)| (c.source, c.sink, (c.rate - v).max(0.0)))
        .collect();
    try_solve_parts(
        &inst.graph,
        &latencies,
        &demands,
        CostModel::Wardrop,
        opts,
        seed,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use sopt_network::DiGraph;

    /// Classic Braess instance (edges: s→v:x, s→w:1, v→w:0, v→t:1, w→t:x).
    fn braess() -> NetworkInstance {
        let mut g = DiGraph::with_nodes(4);
        g.add_edge(NodeId(0), NodeId(1));
        g.add_edge(NodeId(0), NodeId(2));
        g.add_edge(NodeId(1), NodeId(2));
        g.add_edge(NodeId(1), NodeId(3));
        g.add_edge(NodeId(2), NodeId(3));
        NetworkInstance::new(
            g,
            vec![
                LatencyFn::identity(),
                LatencyFn::constant(1.0),
                LatencyFn::constant(0.0),
                LatencyFn::constant(1.0),
                LatencyFn::identity(),
            ],
            NodeId(0),
            NodeId(3),
            1.0,
        )
    }

    #[test]
    fn braess_nash_vs_optimum_costs() {
        let inst = braess();
        let opts = FwOptions::default();
        let n = network_nash(&inst, &opts);
        let o = network_optimum(&inst, &opts);
        assert!((inst.cost(n.flow.as_slice()) - 2.0).abs() < 1e-6);
        assert!((inst.cost(o.flow.as_slice()) - 1.5).abs() < 1e-6);
    }

    #[test]
    fn induced_with_zero_leader_is_nash() {
        let inst = braess();
        let opts = FwOptions::default();
        let zero = EdgeFlow::zeros(inst.num_edges());
        let ind = induced_network(&inst, &zero, 0.0, &opts);
        let nash = network_nash(&inst, &opts);
        for e in 0..inst.num_edges() {
            assert!((ind.flow.0[e] - nash.flow.0[e]).abs() < 1e-5);
        }
    }

    #[test]
    fn induced_with_full_leader_leaves_no_followers() {
        let inst = braess();
        let opts = FwOptions::default();
        // Leader ships the whole unit on the two outer paths (optimum).
        let leader = EdgeFlow(vec![0.5, 0.5, 0.0, 0.5, 0.5]);
        let ind = induced_network(&inst, &leader, 1.0, &opts);
        assert!(ind.flow.0.iter().all(|f| f.abs() < 1e-9));
    }

    #[test]
    fn induced_followers_recongest_braess_middle() {
        // Leader plays half the optimum (α = 1/2, SCALE-like): followers
        // flood the middle path again.
        let inst = braess();
        let opts = FwOptions::default();
        let leader = EdgeFlow(vec![0.25, 0.25, 0.0, 0.25, 0.25]);
        let ind = induced_network(&inst, &leader, 0.5, &opts);
        assert!(ind.converged);
        // All follower flow uses the middle path.
        assert!((ind.flow.0[2] - 0.5).abs() < 1e-5, "{:?}", ind.flow);
        let total: Vec<f64> = leader
            .as_slice()
            .iter()
            .zip(ind.flow.as_slice())
            .map(|(a, b)| a + b)
            .collect();
        // C(S+T) = 2(3/4)² + 2·(1/4)·1 = 9/8 + 1/2 = 13/8.
        assert!((inst.cost(&total) - 13.0 / 8.0).abs() < 1e-5);
    }
}
