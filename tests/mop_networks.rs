//! Randomized end-to-end MOP validation on layered networks: the strategy
//! must induce the optimum and β must be minimal along the scaling ray.

#[path = "../crates/network/tests/support/dense_dinic.rs"]
mod dense_dinic;

use stackopt::core::mop::{mop_greedy, try_mop, MopResult};
use stackopt::equilibrium::certify::certify_network;
use stackopt::equilibrium::network;
use stackopt::instances::random::try_random_layered_network;
use stackopt::solver::frank_wolfe::FwOptions;
use stackopt::solver::objective::CostModel;

fn opts() -> FwOptions {
    FwOptions {
        rel_gap: 1e-10,
        ..FwOptions::default()
    }
}

fn mop(inst: &stackopt::network::NetworkInstance) -> MopResult {
    try_mop(inst, &opts()).unwrap()
}

#[test]
fn mop_induces_optimum_on_random_layered_nets() {
    for seed in 0..8u64 {
        let inst = try_random_layered_network(3, 3, 2.0, seed).expect("valid generator parameters");
        let r = mop(&inst);
        assert!(
            (0.0..=1.0 + 1e-6).contains(&r.beta),
            "seed {seed}: β = {}",
            r.beta
        );

        // The optimum itself is certified.
        let o = std::slice::from_ref(&r.optimum);
        certify_network(&inst, o, &r.optimum, CostModel::SystemOptimum, 1e-4)
            .unwrap_or_else(|e| panic!("seed {seed}: optimum not certified: {e}"));

        // Leader + induced followers = optimum cost.
        let follower =
            network::induced(&inst, r.leader.as_slice(), &[r.leader_value], &opts(), None).unwrap();
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
        let inst = try_random_layered_network(3, 3, 2.0, seed).expect("valid generator parameters");
        let exact = mop(&inst);
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
        let inst = try_random_layered_network(2, 4, 1.5, seed).expect("valid generator parameters");
        let r = mop(&inst);
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
        let inst = try_random_layered_network(3, 3, 2.0, seed).expect("valid generator parameters");
        let r = mop(&inst);
        if r.beta < 0.05 {
            continue;
        }
        let scaled: Vec<f64> = r.leader.as_slice().iter().map(|x| x * 0.8).collect();
        let follower =
            network::induced(&inst, &scaled, &[r.leader_value * 0.8], &opts(), None).unwrap();
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
/// The s–t nets check MOP, the plan's one-commodity case, the same way.
#[test]
fn per_origin_plan_matches_the_per_commodity_loop() {
    use stackopt::core::mop::try_mop_with_optimum;
    use stackopt::core::mop_multi::try_mop_multi_plan_with_optimum;
    use stackopt::instances::random::try_random_multicommodity;
    use stackopt::instances::{braess_classic, fig7_instance, try_grid_city, try_grid_city_multi};
    use stackopt::latency::LatencyFn;
    use stackopt::network::spath::on_shortest_dag;
    use stackopt::network::{Commodity, Csr, DiGraph, MultiCommodityInstance, NodeId, SpWorkspace};

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
    let st = [
        ("braess", braess_classic()),
        ("fig7", fig7_instance(0.05)),
        ("grid 4", try_grid_city(4, 1.0, 7).unwrap()),
    ];
    let views = cases
        .iter()
        .map(|(name, inst)| (name.as_str(), inst.routing()))
        .chain(st.iter().map(|(name, inst)| (*name, inst.routing())));

    for (name, inst) in views {
        let opt = network::optimum(inst, &opts(), None).unwrap();
        let plan = try_mop_multi_plan_with_optimum(inst, &opt).unwrap();
        assert!(plan.beta > 1e-3, "{name}: β = {}", plan.beta);
        if name == "two tolerances" {
            // The near member controls its slow edge; the far one none.
            let alphas = &plan.alphas;
            assert!(alphas[0] > 0.5 && alphas[1] == 0.0, "{alphas:?}");
        }

        let (n, m) = (inst.graph.num_nodes(), inst.num_edges());
        let edges: Vec<(u32, u32)> = inst
            .graph
            .edges()
            .iter()
            .map(|e| (e.from.0, e.to.0))
            .collect();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        let mut leader_total = vec![0.0; m];
        let mut controlled = 0.0;
        let csr = Csr::new(inst.graph);
        let mut sp = SpWorkspace::new();
        for (ci, com) in inst.commodities().iter().enumerate() {
            let o_i = &opt.per_commodity[ci];
            sp.dijkstra(&csr, &plan.edge_costs, com.source);
            let dist = sp.dist()[com.sink.idx()];
            let tol = 1e-6 * dist.abs().max(1.0);
            let mut caps = vec![0.0; m];
            for e in inst.graph.edge_ids() {
                if on_shortest_dag(inst.graph, &plan.edge_costs, sp.dist(), e, tol) {
                    caps[e.idx()] = o_i.get(e);
                }
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

            let alpha = leader_value / com.rate;
            let (got, got_alpha) = (&plan.free[ci], plan.alphas[ci]);
            assert_eq!(got_alpha.to_bits(), alpha.to_bits(), "{name}: α_{ci}");
            assert_eq!(
                plan.leader_values[ci].to_bits(),
                leader_value.to_bits(),
                "{name}: r_{ci} − r'_{ci}"
            );
            assert_eq!(got.value.to_bits(), free_value.to_bits(), "{name}: r'_{ci}");
            assert_eq!(
                bits(&got.flow.0),
                bits(&free_flow),
                "{name}: free flow {ci}"
            );
        }
        let beta = controlled / inst.total_rate();
        assert_eq!(plan.beta.to_bits(), beta.to_bits(), "{name}: β");
        assert_eq!(
            bits(&plan.leader_total.0),
            bits(&leader_total),
            "{name}: leader total"
        );
    }
    // MOP reads its answer off the one-commodity plan.
    for (name, inst) in &st {
        let opt = network::optimum(inst, &opts(), None).unwrap();
        let (mop, plan) = (
            try_mop_with_optimum(inst, &opt).unwrap(),
            try_mop_multi_plan_with_optimum(inst, &opt).unwrap(),
        );
        assert_eq!(mop.beta.to_bits(), plan.beta.to_bits(), "{name}: β");
        assert_eq!(mop.free_value, plan.free[0].value, "{name}: r'");
        assert_eq!(mop.free_flow.0, plan.free[0].flow.0, "{name}: free flow");
        assert_eq!(mop.leader.0, plan.leader_total.0, "{name}: leader");
    }
}
