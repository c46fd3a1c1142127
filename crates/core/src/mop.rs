//! Algorithm **MOP** (paper §2, Corollary 2.3): the price of optimum on an
//! arbitrary s–t network.
//!
//! ```text
//! (1) S = {}, r_S = 0.
//! (2) Compute the optimum O on (G, r).
//! (3) Set cost ℓ_e(o_e) on each edge.
//! (4) Compute the shortest paths P^O_{s→t} under those costs.
//! (5) Control the flow O_P > 0 of every non-shortest path P ∉ P^O_{s→t}.
//! (6) r' = the uncontrolled flow riding shortest paths.
//! (7) β_G = 1 − r'/r.
//! ```
//!
//! §5.1 argues the Leader must control exactly the optimal flow on every
//! non-shortest path: controlling less leaks flow to shortest paths,
//! controlling more (or touching shortest paths) also breaks `S + T = O`.
//! Path decompositions of `O` are not unique, so the minimum `β_G`
//! corresponds to the decomposition that routes as much of `O` as possible
//! over shortest paths — exactly the max flow through the shortest-path
//! subnetwork `G̃` with capacities `o_e` (footnote 5 computes the free flow
//! through `G̃`; Dinic makes that exact).
//!
//! MOP is Theorem 2.1 with one commodity, so [`try_mop_with_optimum`]
//! reads its answer from the one-commodity plan of
//! [`try_mop_multi_plan_with_optimum`]: `r'` is the value Dinic
//! accumulates. The greedy-decomposition variant [`mop_greedy`] is kept as
//! the ablation baseline.

use crate::error::CoreError;
use crate::mop_multi::{try_mop_multi_plan_with_optimum, DAG_TOL};
use sopt_equilibrium::network;
use sopt_network::csr::{Csr, SpWorkspace};
use sopt_network::flow::{decompose, EdgeFlow};
use sopt_network::instance::NetworkInstance;
use sopt_solver::frank_wolfe::{FwOptions, FwResult};

/// Output of [`try_mop`] / [`mop_greedy`].
#[derive(Clone, Debug)]
pub struct MopResult {
    /// The price of optimum `β_G = 1 − r'/r`.
    pub beta: f64,
    /// The optimum edge flow `O`.
    pub optimum: EdgeFlow,
    /// Edge costs `ℓ_e(o_e)` fixing the shortest-path structure.
    pub edge_costs: Vec<f64>,
    /// The free (uncontrolled) part of `O` riding shortest paths; value `r'`.
    pub free_flow: EdgeFlow,
    /// `r'`.
    pub free_value: f64,
    /// The Leader's strategy `S = O − free`; value `r − r'`.
    pub leader: EdgeFlow,
    /// `r − r'` (the controlled flow `β_G·r`).
    pub leader_value: f64,
    /// `C(O)` — the cost the strategy enforces.
    pub optimum_cost: f64,
}

/// Run MOP, reporting solver non-convergence and unreachable sinks as
/// typed errors.
pub fn try_mop(inst: &NetworkInstance, opts: &FwOptions) -> Result<MopResult, CoreError> {
    let opt = network::optimum(inst, opts, None)?;
    try_mop_with_optimum(inst, &opt)
}

/// [`try_mop`] with the optimum solve supplied by the caller: the
/// one-commodity case of Theorem 2.1's plan, with the free value `r'` the
/// value of the max flow through `G̃`.
pub fn try_mop_with_optimum(
    inst: &NetworkInstance,
    optimum: &FwResult,
) -> Result<MopResult, CoreError> {
    let plan = try_mop_multi_plan_with_optimum(inst, optimum)?;
    let [free] = <[_; 1]>::try_from(plan.free).expect("an s–t plan has one commodity");
    Ok(MopResult {
        beta: plan.beta,
        optimum: optimum.flow.clone(),
        edge_costs: plan.edge_costs,
        free_flow: free.flow,
        free_value: free.value,
        leader: plan.leader_total,
        leader_value: plan.leader_values[0],
        optimum_cost: plan.optimum_cost,
    })
}

/// Ablation: route the free flow by greedy path decomposition of `O`
/// (classify each extracted path as shortest/non-shortest). May overstate
/// `β_G` when the greedy decomposition wastes shortest-path capacity.
pub fn mop_greedy(inst: &NetworkInstance, opts: &FwOptions) -> MopResult {
    network::optimum(inst, opts, None)
        .map_err(CoreError::from)
        .and_then(|opt| greedy(inst, &opt))
        .expect("MOP needs a convergent optimum solve and a reachable sink")
}

fn greedy(inst: &NetworkInstance, opt: &FwResult) -> Result<MopResult, CoreError> {
    if !opt.converged {
        return Err(CoreError::NotConverged {
            what: "optimum",
            rel_gap: opt.rel_gap,
        });
    }
    let optimum = opt.flow.clone();
    let edge_costs = inst.edge_costs(optimum.as_slice());
    let mut sp = SpWorkspace::new();
    sp.dijkstra(&Csr::new(&inst.graph), &edge_costs, inst.source);
    let dist_t = sp.dist()[inst.sink.idx()];
    if !dist_t.is_finite() {
        return Err(CoreError::Unreachable { commodity: 0 });
    }
    let tol = DAG_TOL * dist_t.abs().max(1.0);
    // Decompose O and keep the shortest-path pieces.
    let decomp = decompose(&inst.graph, &optimum, inst.source, inst.sink);
    let mut free_flow = EdgeFlow::zeros(inst.num_edges());
    for (path, amount) in &decomp.paths {
        if (path.cost(&edge_costs) - dist_t).abs() <= tol {
            free_flow.add_path(path, *amount);
        }
    }
    let free_value = free_flow.excess(&inst.graph, inst.sink);
    let leader = EdgeFlow(
        optimum
            .as_slice()
            .iter()
            .zip(free_flow.as_slice())
            .map(|(o, f)| (o - f).max(0.0))
            .collect(),
    );
    let leader_value = (inst.rate - free_value).max(0.0);
    Ok(MopResult {
        beta: leader_value / inst.rate,
        optimum_cost: inst.cost(optimum.as_slice()),
        optimum,
        edge_costs,
        free_flow,
        free_value,
        leader,
        leader_value,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sopt_latency::LatencyFn;
    use sopt_network::graph::NodeId;
    use sopt_network::spath::on_shortest_dag;
    use sopt_network::DiGraph;

    fn mop(inst: &NetworkInstance, opts: &FwOptions) -> MopResult {
        try_mop(inst, opts).unwrap()
    }

    fn induced(inst: &NetworkInstance, r: &MopResult, seed: Option<&FwResult>) -> FwResult {
        let opts = FwOptions::default();
        network::induced(inst, r.leader.as_slice(), &[r.leader_value], &opts, seed).unwrap()
    }

    /// The paper's Fig. 7 instance (derived affine form, see DESIGN.md):
    /// `ℓ_sv = ℓ_wt = x`, `ℓ_sw = ℓ_vt = x + 1 − 4ε`, `ℓ_vw = 0`, `r = 1`.
    /// Unique optimum `(3/4−ε, 1/4+ε, 1/2−2ε, 1/4+ε, 3/4−ε)`.
    fn fig7(eps: f64) -> NetworkInstance {
        let mut g = DiGraph::with_nodes(4);
        g.add_edge(NodeId(0), NodeId(1)); // e0 s→v: x
        g.add_edge(NodeId(0), NodeId(2)); // e1 s→w: x + 1 − 4ε
        g.add_edge(NodeId(1), NodeId(2)); // e2 v→w: 0
        g.add_edge(NodeId(1), NodeId(3)); // e3 v→t: x + 1 − 4ε
        g.add_edge(NodeId(2), NodeId(3)); // e4 w→t: x
        NetworkInstance::new(
            g,
            vec![
                LatencyFn::identity(),
                LatencyFn::affine(1.0, 1.0 - 4.0 * eps),
                LatencyFn::constant(0.0),
                LatencyFn::affine(1.0, 1.0 - 4.0 * eps),
                LatencyFn::identity(),
            ],
            NodeId(0),
            NodeId(3),
            1.0,
        )
    }

    #[test]
    fn fig7_optimal_flows_match_paper() {
        let eps = 0.05;
        let r = mop(&fig7(eps), &FwOptions::default());
        let o = r.optimum.as_slice();
        let expect = [
            0.75 - eps,
            0.25 + eps,
            0.5 - 2.0 * eps,
            0.25 + eps,
            0.75 - eps,
        ];
        for (i, (&got, &want)) in o.iter().zip(&expect).enumerate() {
            assert!((got - want).abs() < 1e-5, "edge {i}: {got} ≠ {want}");
        }
    }

    #[test]
    fn fig7_beta_is_half_plus_two_eps() {
        for &eps in &[0.0, 0.01, 0.05, 0.1] {
            let r = mop(&fig7(eps), &FwOptions::default());
            let want = 0.5 + 2.0 * eps;
            assert!(
                (r.beta - want).abs() < 1e-4,
                "ε={eps}: β = {} ≠ {want}",
                r.beta
            );
            // The shortest path is the middle path with flow 1/2 − 2ε.
            assert!((r.free_value - (0.5 - 2.0 * eps)).abs() < 1e-4);
        }
    }

    #[test]
    fn fig7_middle_path_is_shortest() {
        let inst = fig7(0.05);
        let r = mop(&inst, &FwOptions::default());
        // Shortest subnetwork must contain s→v, v→w, w→t; not s→w or v→t.
        let mut sp = SpWorkspace::new();
        sp.dijkstra(&Csr::new(&inst.graph), &r.edge_costs, inst.source);
        let tol = DAG_TOL * sp.dist()[inst.sink.idx()].max(1.0);
        let ids: Vec<u32> = inst
            .graph
            .edge_ids()
            .filter(|&e| on_shortest_dag(&inst.graph, &r.edge_costs, sp.dist(), e, tol))
            .map(|e| e.0)
            .collect();
        assert!(
            ids.contains(&0) && ids.contains(&2) && ids.contains(&4),
            "{ids:?}"
        );
        assert!(!ids.contains(&1) && !ids.contains(&3), "{ids:?}");
    }

    #[test]
    fn fig7_strategy_induces_optimum() {
        let inst = fig7(0.05);
        let r = mop(&inst, &FwOptions::default());
        let follower = induced(&inst, &r, None);
        let total: Vec<f64> = r
            .leader
            .as_slice()
            .iter()
            .zip(follower.flow.as_slice())
            .map(|(a, b)| a + b)
            .collect();
        let cost = inst.cost(&total);
        assert!(
            (cost - r.optimum_cost).abs() < 1e-4,
            "induced {cost} ≠ C(O) {}",
            r.optimum_cost
        );
    }

    #[test]
    fn pigou_as_network() {
        // Two parallel edges: MOP reduces to OpTop's answer β = 1/2.
        let mut g = DiGraph::with_nodes(2);
        g.add_edge(NodeId(0), NodeId(1));
        g.add_edge(NodeId(0), NodeId(1));
        let inst = NetworkInstance::new(
            g,
            vec![LatencyFn::identity(), LatencyFn::constant(1.0)],
            NodeId(0),
            NodeId(1),
            1.0,
        );
        let r = mop(&inst, &FwOptions::default());
        assert!((r.beta - 0.5).abs() < 1e-5, "β = {}", r.beta);
        // Leader controls the slow edge at its optimal load.
        assert!((r.leader.0[1] - 0.5).abs() < 1e-5);
        assert!(r.leader.0[0].abs() < 1e-5);
    }

    #[test]
    fn series_network_needs_no_leader() {
        // A single path: Nash = optimum trivially, β = 0.
        let mut g = DiGraph::with_nodes(3);
        g.add_edge(NodeId(0), NodeId(1));
        g.add_edge(NodeId(1), NodeId(2));
        let inst = NetworkInstance::new(
            g,
            vec![LatencyFn::identity(), LatencyFn::affine(2.0, 0.3)],
            NodeId(0),
            NodeId(2),
            1.0,
        );
        let r = mop(&inst, &FwOptions::default());
        assert!(r.beta.abs() < 1e-6, "β = {}", r.beta);
        assert!(r.leader.as_slice().iter().all(|x| x.abs() < 1e-6));
    }

    #[test]
    fn exact_beta_never_exceeds_greedy() {
        for &eps in &[0.0, 0.05] {
            let inst = fig7(eps);
            let exact = mop(&inst, &FwOptions::default());
            let greedy = mop_greedy(&inst, &FwOptions::default());
            assert!(exact.beta <= greedy.beta + 1e-9);
        }
    }

    #[test]
    fn mop_with_supplied_optimum_matches() {
        let inst = fig7(0.05);
        let opts = FwOptions::default();
        let opt = network::optimum(&inst, &opts, None).unwrap();
        let via_supplied = try_mop_with_optimum(&inst, &opt).unwrap();
        let direct = mop(&inst, &opts);
        assert_eq!(via_supplied.beta, direct.beta);
        assert_eq!(via_supplied.optimum.as_slice(), direct.optimum.as_slice());
    }

    #[test]
    fn induced_seeded_with_free_flow_converges_immediately() {
        let inst = fig7(0.05);
        let r = mop(&inst, &FwOptions::default());
        // The free flow IS the follower equilibrium under the MOP strategy;
        // seeding with it should converge on the first gap check.
        let seed = network::warm_seed(vec![r.free_flow.clone()]);
        let warm = induced(&inst, &r, Some(&seed));
        assert!(warm.converged);
        assert!(
            warm.iterations <= 2,
            "warm induced took {} iterations",
            warm.iterations
        );
        let cold = induced(&inst, &r, None);
        assert!(cold.iterations >= warm.iterations);
        for e in 0..inst.num_edges() {
            assert!((warm.flow.0[e] - cold.flow.0[e]).abs() < 1e-5);
        }
    }

    #[test]
    fn leader_flow_is_feasible() {
        let inst = fig7(0.02);
        let r = mop(&inst, &FwOptions::default());
        assert!(r
            .leader
            .is_st_flow(&inst.graph, inst.source, inst.sink, r.leader_value, 1e-4));
        assert!(r
            .free_flow
            .is_st_flow(&inst.graph, inst.source, inst.sink, r.free_value, 1e-4));
    }
}
