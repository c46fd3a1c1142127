//! Equilibria on networks (Frank–Wolfe): the Nash flow, the optimum, and
//! the equilibrium a Leader's flow induces.
//!
//! Each is one call over a [`Routing`] view, so an s–t instance is solved
//! as the one-commodity case of a k-commodity one. Every call returns its
//! failures as typed [`SolverError`]s and takes a warm seed: the
//! per-commodity flows of a nearby solution (usually a previous
//! [`FwResult`], or the plan's free flows for an induced solve) that skip
//! the all-or-nothing bootstrap when that solution is close to the new one.

use sopt_latency::LatencyFn;
use sopt_network::flow::EdgeFlow;
use sopt_network::instance::Routing;
use sopt_solver::error::SolverError;
use sopt_solver::frank_wolfe::{try_solve_parts, FwOptions, FwResult};
use sopt_solver::objective::CostModel;

/// Warm-start seed for the solves: per-commodity flows of a nearby
/// solution (rescaled internally; an unusable seed falls back to a cold
/// start).
pub type WarmSeed<'a> = Option<&'a FwResult>;

/// Wrap per-commodity flows (one [`EdgeFlow`] per commodity, in commodity
/// order) as a warm seed. A seeded solve reads only `per_commodity`; the
/// combined `flow` is left empty and the bookkeeping fields are
/// placeholders (`converged = false`, no iterations). Theorem 2.1's plan
/// seeds the induced solve with its free flows this way.
pub fn warm_seed(per_commodity: Vec<EdgeFlow>) -> FwResult {
    FwResult {
        flow: EdgeFlow(Vec::new()),
        per_commodity,
        objective: f64::NAN,
        rel_gap: f64::INFINITY,
        iterations: 0,
        fw_iterations: 0,
        polish_rounds: 0,
        converged: false,
    }
}

fn solve<'a>(
    net: impl Into<Routing<'a>>,
    model: CostModel,
    opts: &FwOptions,
    seed: WarmSeed<'_>,
) -> Result<FwResult, SolverError> {
    let net = net.into();
    try_solve_parts(net.graph, net.latencies, &net.demands(), model, opts, seed)
}

/// The Nash (Wardrop) flow: the minimiser of the Beckmann potential.
pub fn nash<'a>(
    net: impl Into<Routing<'a>>,
    opts: &FwOptions,
    seed: WarmSeed<'_>,
) -> Result<FwResult, SolverError> {
    solve(net, CostModel::Wardrop, opts, seed)
}

/// The optimum flow `O`: the minimiser of total cost.
pub fn optimum<'a>(
    net: impl Into<Routing<'a>>,
    opts: &FwOptions,
    seed: WarmSeed<'_>,
) -> Result<FwResult, SolverError> {
    solve(net, CostModel::SystemOptimum, opts, seed)
}

/// The equilibrium induced by a Leader edge flow `leader` that controls
/// `leader_values[i]` of commodity `i`: every commodity's followers route
/// the rest of its rate selfishly against the a-posteriori latencies
/// `ℓ_e(· + s_e)`. Returns the *follower* result; the Stackelberg
/// equilibrium is `leader + follower`.
///
/// The Leader must fit the instance: one entry per edge, each finite and
/// at least −1e-12 (clamped to 0), and one controlled value per commodity,
/// each in `[−1e-12, r_i + 1e-9]`. Anything else is
/// [`SolverError::InvalidLeader`]. A fully controlled commodity routes no
/// followers. Chained α-sweeps seed each solve from the previous α's
/// follower flows; the β plan seeds it from its free flows, which *are*
/// the induced equilibrium when the strategy enforces the optimum.
pub fn induced<'a>(
    net: impl Into<Routing<'a>>,
    leader: &[f64],
    leader_values: &[f64],
    opts: &FwOptions,
    seed: WarmSeed<'_>,
) -> Result<FwResult, SolverError> {
    let net = net.into();
    check_leader(net, leader, leader_values)?;
    let latencies: Vec<LatencyFn> = net
        .latencies
        .iter()
        .zip(leader)
        .map(|(l, &s)| l.preloaded(s.max(0.0)))
        .collect();
    let demands: Vec<_> = net
        .commodities()
        .iter()
        .zip(leader_values)
        .map(|(c, &v)| (c.source, c.sink, (c.rate - v).max(0.0)))
        .collect();
    try_solve_parts(
        net.graph,
        &latencies,
        &demands,
        CostModel::Wardrop,
        opts,
        seed,
    )
}

/// Whether a Leader flow fits `net` (see [`induced`]).
fn check_leader(net: Routing<'_>, leader: &[f64], values: &[f64]) -> Result<(), SolverError> {
    let bad = |reason: String| Err(SolverError::InvalidLeader { reason });
    let (m, commodities) = (net.num_edges(), net.commodities());
    if leader.len() != m {
        return bad(format!(
            "expected one entry per edge ({m} edges), got {}",
            leader.len()
        ));
    }
    if let Some((e, s)) = leader
        .iter()
        .enumerate()
        .find(|&(_, &s)| !(s.is_finite() && s >= -1e-12))
    {
        return bad(format!(
            "edge {e} carries {s}; entries must be finite and ≥ 0"
        ));
    }
    if values.len() != commodities.len() {
        return bad(format!(
            "expected one controlled value per commodity ({} commodities), got {}",
            commodities.len(),
            values.len()
        ));
    }
    for (i, (c, &v)) in commodities.iter().zip(values).enumerate() {
        if !(v >= -1e-12 && v <= c.rate + 1e-9) {
            return bad(format!(
                "commodity {i} controls {v}, outside [0, {}]",
                c.rate
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sopt_network::graph::NodeId;
    use sopt_network::instance::NetworkInstance;
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
        let n = nash(&inst, &opts, None).unwrap();
        let o = optimum(&inst, &opts, None).unwrap();
        assert!((inst.cost(n.flow.as_slice()) - 2.0).abs() < 1e-6);
        assert!((inst.cost(o.flow.as_slice()) - 1.5).abs() < 1e-6);
    }

    #[test]
    fn induced_with_zero_leader_is_nash() {
        let inst = braess();
        let opts = FwOptions::default();
        let zero = vec![0.0; inst.num_edges()];
        let ind = induced(&inst, &zero, &[0.0], &opts, None).unwrap();
        let nash = nash(&inst, &opts, None).unwrap();
        for e in 0..inst.num_edges() {
            assert!((ind.flow.0[e] - nash.flow.0[e]).abs() < 1e-5);
        }
    }

    #[test]
    fn induced_with_full_leader_leaves_no_followers() {
        let inst = braess();
        let opts = FwOptions::default();
        // Leader ships the whole unit on the two outer paths (optimum).
        let leader = [0.5, 0.5, 0.0, 0.5, 0.5];
        let ind = induced(&inst, &leader, &[1.0], &opts, None).unwrap();
        assert!(ind.flow.0.iter().all(|f| f.abs() < 1e-9));
    }

    #[test]
    fn induced_followers_recongest_braess_middle() {
        // Leader plays half the optimum (α = 1/2, SCALE-like): followers
        // flood the middle path again.
        let inst = braess();
        let opts = FwOptions::default();
        let leader = [0.25, 0.25, 0.0, 0.25, 0.25];
        let ind = induced(&inst, &leader, &[0.5], &opts, None).unwrap();
        assert!(ind.converged);
        // All follower flow uses the middle path.
        assert!((ind.flow.0[2] - 0.5).abs() < 1e-5, "{:?}", ind.flow);
        let total: Vec<f64> = leader
            .iter()
            .zip(ind.flow.as_slice())
            .map(|(a, b)| a + b)
            .collect();
        // C(S+T) = 2(3/4)² + 2·(1/4)·1 = 9/8 + 1/2 = 13/8.
        assert!((inst.cost(&total) - 13.0 / 8.0).abs() < 1e-5);
    }
}
