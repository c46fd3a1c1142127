//! Randomized end-to-end MOP validation on layered networks: the strategy
//! must induce the optimum and β must be minimal along the scaling ray.

#[path = "../crates/network/tests/support/dense_dinic.rs"]
mod dense_dinic;

use stackopt::core::mop::{mop, mop_greedy};
use stackopt::equilibrium::certify::certify_network;
use stackopt::equilibrium::network::induced_network;
use stackopt::instances::random::random_layered_network;
use stackopt::solver::frank_wolfe::FwOptions;
use stackopt::solver::objective::CostModel;

fn opts() -> FwOptions {
    FwOptions {
        rel_gap: 1e-10,
        ..FwOptions::default()
    }
}

#[test]
fn mop_induces_optimum_on_random_layered_nets() {
    for seed in 0..8u64 {
        let inst = random_layered_network(3, 3, 2.0, seed);
        let r = mop(&inst, &opts());
        assert!(
            (0.0..=1.0 + 1e-6).contains(&r.beta),
            "seed {seed}: β = {}",
            r.beta
        );

        // The optimum itself is certified.
        certify_network(&inst, &r.optimum, CostModel::SystemOptimum, 1e-4)
            .unwrap_or_else(|e| panic!("seed {seed}: optimum not certified: {e}"));

        // Leader + induced followers = optimum cost.
        let follower = induced_network(&inst, &r.leader, r.leader_value, &opts());
        let total: Vec<f64> = r
            .leader
            .as_slice()
            .iter()
            .zip(follower.flow.as_slice())
            .map(|(a, b)| a + b)
            .collect();
        let cost = inst.cost(&total);
        assert!(
            (cost - r.optimum_cost).abs() < 2e-4 * r.optimum_cost.max(1.0),
            "seed {seed}: induced {cost} vs C(O) {}",
            r.optimum_cost
        );
    }
}

#[test]
fn mop_beta_never_exceeds_greedy_on_random_nets() {
    for seed in 0..8u64 {
        let inst = random_layered_network(3, 3, 2.0, seed);
        let exact = mop(&inst, &opts());
        let greedy = mop_greedy(&inst, &opts());
        assert!(
            exact.beta <= greedy.beta + 1e-6,
            "seed {seed}: exact β {} > greedy β {}",
            exact.beta,
            greedy.beta
        );
    }
}

#[test]
fn mop_leader_and_free_parts_partition_optimum() {
    for seed in [2u64, 5, 11] {
        let inst = random_layered_network(2, 4, 1.5, seed);
        let r = mop(&inst, &opts());
        for e in 0..inst.num_edges() {
            let o = r.optimum.as_slice()[e];
            let fr = r.free_flow.as_slice()[e];
            let ld = r.leader.as_slice()[e];
            assert!(fr >= -1e-9 && ld >= -1e-9, "seed {seed} edge {e}");
            assert!(fr <= o + 1e-6, "seed {seed} edge {e}: free exceeds optimum");
            assert!(
                (fr + ld - o).abs() < 1e-6,
                "seed {seed} edge {e}: partition broken"
            );
        }
        assert!((r.free_value + r.leader_value - inst.rate).abs() < 1e-6);
    }
}

#[test]
fn scaled_down_mop_strategy_misses_optimum() {
    // Minimality along the ray: 80% of the MOP strategy cannot induce C(O)
    // whenever β > 0 and the instance is not already optimal at Nash.
    for seed in 0..8u64 {
        let inst = random_layered_network(3, 3, 2.0, seed);
        let r = mop(&inst, &opts());
        if r.beta < 0.05 {
            continue;
        }
        let scaled: Vec<f64> = r.leader.as_slice().iter().map(|x| x * 0.8).collect();
        let follower = induced_network(
            &inst,
            &stackopt::network::flow::EdgeFlow(scaled.clone()),
            r.leader_value * 0.8,
            &opts(),
        );
        let total: Vec<f64> = scaled
            .iter()
            .zip(follower.flow.as_slice())
            .map(|(a, b)| a + b)
            .collect();
        let cost = inst.cost(&total);
        assert!(
            cost >= r.optimum_cost - 1e-6,
            "seed {seed}: scaled strategy beat the optimum?!"
        );
    }
}

/// Theorem 2.1's plan shares one tree per origin and one residual graph
/// per plan, and caps and reads back only each commodity's support; it
/// must answer bit for bit like the per-commodity loop it replaced (a full
/// Dijkstra, the shortest-path DAG and a dense max-flow over every edge
/// per commodity), built here as the oracle on the test-only dense Dinic.
#[test]
fn per_origin_plan_matches_the_per_commodity_loop() {
    use stackopt::core::mop_multi::{try_mop_multi_plan_with_optimum, try_mop_multi_with_optimum};
    use stackopt::equilibrium::network::try_multicommodity_optimum;
    use stackopt::instances::random::try_random_multicommodity;
    use stackopt::instances::try_grid_city_multi;
    use stackopt::latency::LatencyFn;
    use stackopt::network::spath::{dijkstra, shortest_dag_edges};
    use stackopt::network::{Commodity, DiGraph, MultiCommodityInstance, NodeId};

    // OD grids: the first three have one origin per commodity (k ≤ 16),
    // the last two share 16 origins among 40 and 24 commodities.
    let grids = [
        (4, 2.0, 6, 1),
        (5, 20.0, 10, 0),
        (6, 60.0, 12, 2),
        (5, 20.0, 40, 0),
        (5, 60.0, 24, 1),
    ];
    let mut cases: Vec<(String, _)> = grids
        .into_iter()
        .map(|(side, rate, k, seed)| {
            let inst = try_grid_city_multi(side, rate, k, seed).unwrap();
            (format!("grid {side} {rate} {k} {seed}"), inst)
        })
        .collect();
    for seed in 0..3 {
        let inst = try_random_multicommodity(3, 3, 3, 4.0, seed).unwrap();
        cases.push((format!("layered {seed}"), inst));
    }
    // One origin, two members whose sink distances differ a millionfold
    // (about 0.1 and 1e6), each behind a Pigou pair whose slower edge
    // carries optimal flow at a latency slack of about 0.1: inside the far
    // member's DAG tolerance (1e-6 · 1e6), outside the near one's (1e-6).
    // One tolerance for the whole origin would misjudge one of the two.
    let mut g = DiGraph::with_nodes(4);
    g.add_edge(NodeId(0), NodeId(1));
    g.add_edge(NodeId(0), NodeId(1));
    g.add_edge(NodeId(0), NodeId(2));
    g.add_edge(NodeId(2), NodeId(3));
    g.add_edge(NodeId(2), NodeId(3));
    let pigou = [LatencyFn::identity(), LatencyFn::constant(0.2)];
    let lats = [&pigou[..], &[LatencyFn::constant(1e6)], &pigou[..]].concat();
    let od = |sink| Commodity {
        source: NodeId(0),
        sink: NodeId(sink),
        rate: 1.0,
    };
    let two_tolerances = MultiCommodityInstance::new(g, lats, vec![od(1), od(3)]);
    cases.push(("two tolerances".to_string(), two_tolerances));
    let origins = |inst: &MultiCommodityInstance| {
        let mut o: Vec<_> = inst.commodities.iter().map(|c| c.source).collect();
        o.sort();
        o.dedup();
        o.len()
    };
    assert!(origins(&cases[3].1) < cases[3].1.commodities.len());
    assert!(origins(&cases[4].1) < cases[4].1.commodities.len());

    for (name, inst) in &cases {
        let opt = try_multicommodity_optimum(inst, &opts(), None).unwrap();
        let plan = try_mop_multi_with_optimum(inst, &opt).unwrap();
        assert!(plan.beta > 1e-3, "{name}: β = {}", plan.beta);
        if name == "two tolerances" {
            // The near member controls its slow edge; the far one none.
            let alphas: Vec<f64> = plan.commodities.iter().map(|c| c.alpha).collect();
            assert!(alphas[0] > 0.5 && alphas[1] == 0.0, "{alphas:?}");
        }

        let (n, m) = (inst.graph.num_nodes(), inst.graph.num_edges());
        let edges: Vec<(u32, u32)> = inst
            .graph
            .edges()
            .iter()
            .map(|e| (e.from.0, e.to.0))
            .collect();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        let mut leader_total = vec![0.0; m];
        let mut controlled = 0.0;
        for (ci, com) in inst.commodities.iter().enumerate() {
            let o_i = &opt.per_commodity[ci];
            let sp = dijkstra(&inst.graph, &plan.edge_costs, com.source);
            let dist = sp.dist[com.sink.idx()];
            let tol = 1e-6 * dist.abs().max(1.0);
            let mut caps = vec![0.0; m];
            for e in shortest_dag_edges(&inst.graph, &plan.edge_costs, &sp, tol) {
                caps[e.idx()] = o_i.get(e);
            }
            let (free_value, free_flow) =
                dense_dinic::dense_max_flow(n, &edges, &caps, com.source.0, com.sink.0);
            let leader: Vec<f64> = o_i
                .as_slice()
                .iter()
                .zip(&free_flow)
                .map(|(o, f)| (o - f).max(0.0))
                .collect();
            let leader_value = (com.rate - free_value).max(0.0);
            for (lt, l) in leader_total.iter_mut().zip(&leader) {
                *lt += l;
            }
            controlled += leader_value;

            let got = &plan.commodities[ci];
            let alpha = leader_value / com.rate;
            assert_eq!(got.alpha.to_bits(), alpha.to_bits(), "{name}: α_{ci}");
            assert_eq!(
                got.free_value.to_bits(),
                free_value.to_bits(),
                "{name}: r'_{ci}"
            );
            assert_eq!(
                bits(&got.free_flow.0),
                bits(&free_flow),
                "{name}: free flow {ci}"
            );
            assert_eq!(bits(&got.leader.0), bits(&leader), "{name}: leader {ci}");
        }
        let beta = controlled / inst.total_rate();
        assert_eq!(plan.beta.to_bits(), beta.to_bits(), "{name}: β");
        assert_eq!(
            bits(&plan.leader_total.0),
            bits(&leader_total),
            "{name}: leader total"
        );

        // The lean plan the β task runs gives the same answers.
        let lean = try_mop_multi_plan_with_optimum(inst, &opt).unwrap();
        assert_eq!(lean.beta.to_bits(), plan.beta.to_bits(), "{name}: lean β");
        assert_eq!(
            bits(&lean.leader_total.0),
            bits(&plan.leader_total.0),
            "{name}: lean total"
        );
        assert_eq!(lean.optimum_cost, plan.optimum_cost, "{name}: lean C(O)");
        assert_eq!(lean.edge_costs, plan.edge_costs, "{name}: lean costs");
        for (ci, c) in plan.commodities.iter().enumerate() {
            let lean_free = &lean.free[ci].flow.0;
            assert_eq!(
                bits(lean_free),
                bits(&c.free_flow.0),
                "{name}: lean free {ci}"
            );
            assert_eq!(lean.free[ci].value, c.free_value, "{name}: lean r'_{ci}");
            assert_eq!(lean.leader_values[ci], c.leader_value, "{name}: lean {ci}");
            assert_eq!(lean.alphas[ci], c.alpha, "{name}: lean α_{ci}");
        }
    }
}
