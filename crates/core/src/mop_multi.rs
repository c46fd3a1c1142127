//! Theorem 2.1: the price of optimum on arbitrary k-commodity networks.
//!
//! Per §5.1: on each commodity `i`, compute the shortest-path set
//! `P^{O,(i)}` under the optimal edge costs `ℓ_e(o_e)`; the Leader must
//! control the optimal flow of every non-shortest path of every commodity —
//! no more (wasted control breaks `S+T = O`), no less (leaked flow opts for
//! shortest paths). The free flow of commodity `i` is the largest part of
//! its optimal flow `O^i` routable inside its shortest-path subnetwork
//! (max-flow with capacities `o^i_e`). The result is a *strong* Stackelberg
//! strategy: per-commodity portions `α_i` with overall `β = Σ α_i r_i / r`.
//!
//! Commodities that share an origin share its shortest-path tree: the plan
//! runs one Dijkstra per distinct origin on one [`SpWorkspace`] and every
//! commodity's max-flow on one [`ResidualGraph`], with the same per-commodity
//! answers as one tree and one fresh max-flow graph per commodity.
//!
//! Past the trees, the plan's work per commodity follows its support, the
//! edges its optimum `O^i` loads (about 32 of `city-od`'s 8,280). One scan
//! of each `O^i` lists them; the DAG test, the max-flow
//! ([`ResidualGraph::max_flow_on`]) and the Leader sum visit only those,
//! and an edge off the support adds an exact `+0.0` to a dense sum, so
//! every answer is bit for bit a dense pass's.
//!
//! The plan is written once over a [`Routing`] view: an s–t network is its
//! one-commodity case, and MOP (Corollary 2.3, [`crate::mop`]) reads its
//! answer from the one-commodity plan. It keeps each commodity's free part
//! and the combined Leader flow ([`MopMultiPlan`]); a commodity's own
//! Leader flow is its optimum less its free part, which the anarchy curve
//! derives on the fly rather than storing k·m more floats.

use crate::error::CoreError;
use sopt_equilibrium::network;
use sopt_network::csr::{Csr, SpWorkspace};
use sopt_network::flow::EdgeFlow;
use sopt_network::graph::EdgeId;
use sopt_network::instance::Routing;
use sopt_network::maxflow::{MaxFlowResult, ResidualGraph};
use sopt_network::spath::on_shortest_dag;
use sopt_solver::aon::CommodityGroups;
use sopt_solver::frank_wolfe::{FwOptions, FwResult};

/// Theorem 2.1's plan: each commodity's free part and controlled value,
/// and the combined Leader flow.
#[derive(Clone, Debug)]
pub struct MopMultiPlan {
    /// Overall price of optimum `β = Σ (r_i − r'_i) / Σ r_i`.
    pub beta: f64,
    /// Per commodity, the free part riding its shortest paths: value `r'_i`
    /// (the value Dinic accumulates) and edge flow.
    pub free: Vec<MaxFlowResult>,
    /// Per commodity, the controlled value `r_i − r'_i`.
    pub leader_values: Vec<f64>,
    /// Per commodity, `α_i = (r_i − r'_i)/r_i`.
    pub alphas: Vec<f64>,
    /// The combined Leader edge flow `Σ_i (O^i − free_i)`, summed in
    /// commodity order.
    pub leader_total: EdgeFlow,
    /// Edge costs `ℓ_e(o_e)` at the combined optimum.
    pub edge_costs: Vec<f64>,
    /// `C(O)`.
    pub optimum_cost: f64,
}

impl MopMultiPlan {
    /// The minimum portion for a **weak** Stackelberg strategy (paper §4):
    /// a weak Leader controls the *same* portion `α` of every commodity, so
    /// to cover each commodity's requirement `α_i` she needs
    /// `α = max_i α_i ≥ β` (the strong strategy's overall portion).
    pub fn weak_beta(&self) -> f64 {
        self.alphas.iter().copied().fold(0.0, f64::max)
    }
}

/// Tolerance for shortest-path membership, relative to path costs.
pub(crate) const DAG_TOL: f64 = 1e-6;

/// Run the k-commodity MOP of Theorem 2.1 on a cold optimum, reporting
/// solver non-convergence and unreachable sinks as typed errors.
pub fn try_mop_multi<'a>(
    net: impl Into<Routing<'a>>,
    opts: &FwOptions,
) -> Result<MopMultiPlan, CoreError> {
    let net = net.into();
    let opt = network::optimum(net, opts, None)?;
    try_mop_multi_plan_with_optimum(net, &opt)
}

/// [`try_mop_multi`] with the optimum solve supplied by the caller: the
/// session layer threads a memoized optimum through here for both network
/// classes.
pub fn try_mop_multi_plan_with_optimum<'a>(
    net: impl Into<Routing<'a>>,
    opt: &FwResult,
) -> Result<MopMultiPlan, CoreError> {
    let inst = net.into();
    if !opt.converged {
        return Err(CoreError::NotConverged {
            what: "multicommodity optimum",
            rel_gap: opt.rel_gap,
        });
    }
    let edge_costs: Vec<f64> = inst
        .latencies
        .iter()
        .zip(opt.flow.as_slice())
        .map(|(l, &f)| sopt_latency::Latency::value(l, f))
        .collect();

    let m = inst.num_edges();
    let commodities = inst.commodities();
    let k = commodities.len();
    let mut groups = CommodityGroups::new();
    groups.rebuild(&inst.demands());

    // Each commodity's support (its non-zero optimal edges), in one flat
    // list: commodity `ci` owns `support[spans[ci]..spans[ci + 1]]`.
    let mut support: Vec<(EdgeId, f64)> = Vec::new();
    let mut spans: Vec<usize> = Vec::with_capacity(k + 1);
    spans.push(0);
    for o_i in &opt.per_commodity {
        support.extend(
            o_i.as_slice()
                .iter()
                .enumerate()
                .filter(|&(_, &o)| o != 0.0)
                .map(|(e, &o)| (EdgeId(e as u32), o)),
        );
        spans.push(support.len());
    }
    let support_of = |ci: usize| &support[spans[ci]..spans[ci + 1]];

    // One shortest-path tree per origin and one residual graph for every
    // commodity's max-flow, capped on its support's shortest-path DAG
    // edges; each commodity keeps its own DAG tolerance.
    let csr = Csr::new(inst.graph);
    let mut sp = SpWorkspace::new();
    let mut residual = ResidualGraph::new(inst.graph);
    let mut caps: Vec<(EdgeId, f64)> = Vec::new();
    let mut slots: Vec<Option<MaxFlowResult>> = vec![None; k];
    let mut unreachable: Option<usize> = None;
    for g in 0..groups.num_groups() {
        let (source, members) = groups.group(g);
        sp.dijkstra(&csr, &edge_costs, source);
        for &ci in members {
            let ci = ci as usize;
            let com = &commodities[ci];
            let dist = sp.dist()[com.sink.idx()];
            if !dist.is_finite() {
                unreachable = Some(unreachable.map_or(ci, |u| u.min(ci)));
            }
            if unreachable.is_some() {
                // Only the lowest failing index matters from here on.
                continue;
            }
            let tol = DAG_TOL * dist.abs().max(1.0);
            caps.clear();
            caps.extend(
                support_of(ci)
                    .iter()
                    .filter(|&&(e, _)| on_shortest_dag(inst.graph, &edge_costs, sp.dist(), e, tol)),
            );
            slots[ci] = Some(residual.max_flow_on(&caps, com.source, com.sink));
        }
    }
    if let Some(commodity) = unreachable {
        return Err(CoreError::Unreachable { commodity });
    }
    let free: Vec<MaxFlowResult> = slots
        .into_iter()
        .map(|c| c.expect("every commodity belongs to one origin group"))
        .collect();
    // Summed in commodity order, whatever the group order; off its support
    // a commodity's Leader part is exactly +0.0.
    let mut leader_total = EdgeFlow::zeros(m);
    for (ci, f) in free.iter().enumerate() {
        for &(e, o) in support_of(ci) {
            leader_total.0[e.idx()] += (o - f.flow.get(e)).max(0.0);
        }
    }
    let leader_values: Vec<f64> = commodities
        .iter()
        .zip(&free)
        .map(|(com, f)| (com.rate - f.value).max(0.0))
        .collect();
    let alphas = commodities
        .iter()
        .zip(&leader_values)
        .map(|(com, v)| v / com.rate)
        .collect();

    let controlled: f64 = leader_values.iter().sum();
    Ok(MopMultiPlan {
        beta: controlled / inst.total_rate(),
        free,
        leader_values,
        alphas,
        leader_total,
        edge_costs,
        optimum_cost: inst.cost(opt.flow.as_slice()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sopt_latency::LatencyFn;
    use sopt_network::graph::NodeId;
    use sopt_network::instance::{Commodity, MultiCommodityInstance};
    use sopt_network::DiGraph;

    fn mop_multi(inst: &MultiCommodityInstance) -> MopMultiPlan {
        try_mop_multi(inst, &FwOptions::default()).unwrap()
    }

    /// Two Pigou gadgets sharing nothing: per-commodity β must match the
    /// single-commodity answer (1/2 each).
    fn two_disjoint_pigous() -> MultiCommodityInstance {
        let mut g = DiGraph::with_nodes(4);
        g.add_edge(NodeId(0), NodeId(1)); // x
        g.add_edge(NodeId(0), NodeId(1)); // 1
        g.add_edge(NodeId(2), NodeId(3)); // x
        g.add_edge(NodeId(2), NodeId(3)); // 1
        MultiCommodityInstance::new(
            g,
            vec![
                LatencyFn::identity(),
                LatencyFn::constant(1.0),
                LatencyFn::identity(),
                LatencyFn::constant(1.0),
            ],
            vec![
                Commodity {
                    source: NodeId(0),
                    sink: NodeId(1),
                    rate: 1.0,
                },
                Commodity {
                    source: NodeId(2),
                    sink: NodeId(3),
                    rate: 1.0,
                },
            ],
        )
    }

    #[test]
    fn disjoint_pigous_give_half_each() {
        let inst = two_disjoint_pigous();
        let r = mop_multi(&inst);
        assert!((r.beta - 0.5).abs() < 1e-5, "β = {}", r.beta);
        for &alpha in &r.alphas {
            assert!((alpha - 0.5).abs() < 1e-5, "α_i = {alpha}");
        }
    }

    #[test]
    fn strategy_induces_multicommodity_optimum() {
        let inst = two_disjoint_pigous();
        let r = mop_multi(&inst);
        let follower = network::induced(
            &inst,
            r.leader_total.as_slice(),
            &r.leader_values,
            &FwOptions::default(),
            None,
        )
        .unwrap();
        let total: Vec<f64> = r
            .leader_total
            .as_slice()
            .iter()
            .zip(follower.flow.as_slice())
            .map(|(a, b)| a + b)
            .collect();
        let cost = inst.cost(&total);
        assert!(
            (cost - r.optimum_cost).abs() < 1e-5,
            "{cost} vs {}",
            r.optimum_cost
        );
    }

    #[test]
    fn shared_edge_two_commodities() {
        // Commodities (0→3) and (1→3) share the congested edge 2→3 but each
        // also has a private constant bypass; the Leader controls only the
        // non-shortest optimal flow per commodity.
        let mut g = DiGraph::with_nodes(4);
        g.add_edge(NodeId(0), NodeId(2)); // x
        g.add_edge(NodeId(1), NodeId(2)); // x
        g.add_edge(NodeId(2), NodeId(3)); // x (shared)
        g.add_edge(NodeId(0), NodeId(3)); // const 2 (bypass for c0)
        g.add_edge(NodeId(1), NodeId(3)); // const 2 (bypass for c1)
        let inst = MultiCommodityInstance::new(
            g,
            vec![
                LatencyFn::identity(),
                LatencyFn::identity(),
                LatencyFn::identity(),
                LatencyFn::constant(2.0),
                LatencyFn::constant(2.0),
            ],
            vec![
                Commodity {
                    source: NodeId(0),
                    sink: NodeId(3),
                    rate: 1.0,
                },
                Commodity {
                    source: NodeId(1),
                    sink: NodeId(3),
                    rate: 1.0,
                },
            ],
        );
        let r = mop_multi(&inst);
        assert!(r.beta >= 0.0 && r.beta <= 1.0);
        // Induced play must reproduce the optimum.
        let follower = network::induced(
            &inst,
            r.leader_total.as_slice(),
            &r.leader_values,
            &FwOptions::default(),
            None,
        )
        .unwrap();
        let total: Vec<f64> = r
            .leader_total
            .as_slice()
            .iter()
            .zip(follower.flow.as_slice())
            .map(|(a, b)| a + b)
            .collect();
        assert!((inst.cost(&total) - r.optimum_cost).abs() < 1e-4);
    }

    #[test]
    fn weak_beta_dominates_strong_beta() {
        let inst = two_disjoint_pigous();
        let r = mop_multi(&inst);
        assert!(r.weak_beta() >= r.beta - 1e-12);
        // Equal-rate symmetric commodities: weak = strong here.
        assert!((r.weak_beta() - 0.5).abs() < 1e-5);
        // A weak Leader controlling weak_beta of EVERY commodity covers all
        // per-commodity requirements.
        for &alpha in &r.alphas {
            assert!(alpha <= r.weak_beta() + 1e-12);
        }
    }
}
