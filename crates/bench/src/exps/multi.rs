//! E11 — Theorem 2.1: the price of optimum on k-commodity networks.

use sopt_core::mop_multi::try_mop_multi;
use sopt_equilibrium::network;
use sopt_latency::LatencyFn;
use sopt_network::graph::{DiGraph, NodeId};
use sopt_network::instance::{Commodity, MultiCommodityInstance};
use sopt_solver::frank_wolfe::FwOptions;

use crate::table::{f, Table};

fn disjoint_pigous() -> MultiCommodityInstance {
    let mut g = DiGraph::with_nodes(4);
    g.add_edge(NodeId(0), NodeId(1));
    g.add_edge(NodeId(0), NodeId(1));
    g.add_edge(NodeId(2), NodeId(3));
    g.add_edge(NodeId(2), NodeId(3));
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

fn shared_bottleneck() -> MultiCommodityInstance {
    let mut g = DiGraph::with_nodes(4);
    g.add_edge(NodeId(0), NodeId(2)); // x
    g.add_edge(NodeId(1), NodeId(2)); // x
    g.add_edge(NodeId(2), NodeId(3)); // x (shared)
    g.add_edge(NodeId(0), NodeId(3)); // const 2
    g.add_edge(NodeId(1), NodeId(3)); // const 2
    MultiCommodityInstance::new(
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
    )
}

fn three_commodity_grid() -> MultiCommodityInstance {
    // A 6-node layered net shared by three commodities with different
    // sources, same sink.
    let mut g = DiGraph::with_nodes(6);
    let mut lats = Vec::new();
    let add = |g: &mut DiGraph, a: u32, b: u32, l: LatencyFn, lats: &mut Vec<LatencyFn>| {
        g.add_edge(NodeId(a), NodeId(b));
        lats.push(l);
    };
    add(&mut g, 0, 3, LatencyFn::affine(1.0, 0.0), &mut lats);
    add(&mut g, 0, 4, LatencyFn::affine(0.5, 0.5), &mut lats);
    add(&mut g, 1, 3, LatencyFn::affine(2.0, 0.0), &mut lats);
    add(&mut g, 1, 4, LatencyFn::affine(1.0, 0.1), &mut lats);
    add(&mut g, 2, 4, LatencyFn::affine(1.0, 0.0), &mut lats);
    add(&mut g, 3, 5, LatencyFn::affine(1.0, 0.2), &mut lats);
    add(&mut g, 4, 5, LatencyFn::affine(0.7, 0.4), &mut lats);
    add(&mut g, 2, 5, LatencyFn::constant(1.8), &mut lats);
    MultiCommodityInstance::new(
        g,
        lats,
        vec![
            Commodity {
                source: NodeId(0),
                sink: NodeId(5),
                rate: 0.8,
            },
            Commodity {
                source: NodeId(1),
                sink: NodeId(5),
                rate: 0.6,
            },
            Commodity {
                source: NodeId(2),
                sink: NodeId(5),
                rate: 1.0,
            },
        ],
    )
}

/// E11: k-commodity MOP induces the optimum; per-commodity portions shown.
pub fn e11_multicommodity() {
    println!("\n=== E11: k-commodity price of optimum (Theorem 2.1) ===");
    let opts = FwOptions::default();
    let instances: Vec<(String, MultiCommodityInstance)> = vec![
        ("2× disjoint Pigou".into(), disjoint_pigous()),
        ("shared bottleneck, k=2".into(), shared_bottleneck()),
        ("layered grid, k=3".into(), three_commodity_grid()),
    ];
    let mut t = Table::new([
        "instance",
        "k",
        "β (strong)",
        "β (weak)",
        "α_i per commodity",
        "C(N)",
        "C(O)",
        "C(S+T)",
    ]);
    for (name, inst) in &instances {
        let r = try_mop_multi(inst, &opts).expect("a reachable sink");
        let nash = network::nash(inst, &opts, None).expect("a reachable sink");
        let follower = network::induced(
            inst,
            r.leader_total.as_slice(),
            &r.leader_values,
            &opts,
            None,
        )
        .expect("a reachable sink");
        let total: Vec<f64> = r
            .leader_total
            .as_slice()
            .iter()
            .zip(follower.flow.as_slice())
            .map(|(a, b)| a + b)
            .collect();
        let c_induced = inst.cost(&total);
        let alphas = r
            .alphas
            .iter()
            .map(|alpha| format!("{alpha:.3}"))
            .collect::<Vec<_>>()
            .join(", ");
        t.row([
            name.clone(),
            inst.commodities.len().to_string(),
            f(r.beta),
            f(r.weak_beta()),
            alphas,
            f(inst.cost(nash.flow.as_slice())),
            f(r.optimum_cost),
            f(c_induced),
        ]);
        assert!(
            r.weak_beta() >= r.beta - 1e-9,
            "{name}: weak β must dominate strong β"
        );
        assert!(
            (c_induced - r.optimum_cost).abs() < 2e-4 * r.optimum_cost.max(1.0),
            "{name}: induced {c_induced} vs C(O) {}",
            r.optimum_cost
        );
    }
    t.print();
    println!("(the strong strategy of §5.1: per-commodity portions α_i, overall β;");
    println!(" induced play reproduces the multicommodity optimum exactly)");
}
