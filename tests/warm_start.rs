//! Warm-start equivalence: a solve seeded from a nearby solution must
//! converge to the same flow (within tolerance) in strictly fewer
//! iterations on perturbed instances — the contract `anarchy_curve`
//! sweeps and the engine's Beta/Tolls seeding rely on. Also guards the
//! cold path's Frank–Wolfe → polish handover on city grids.

use stackopt::equilibrium::network::{
    try_induced_network, try_multicommodity_optimum, try_network_nash, try_network_optimum,
    warm_seed_from,
};
use stackopt::instances::random::{random_layered_network, random_multicommodity};
use stackopt::network::instance::{MultiCommodityInstance, NetworkInstance};
use stackopt::network::EdgeFlow;
use stackopt::solver::frank_wolfe::{try_solve_assignment, FwOptions};
use stackopt::solver::CostModel;

fn with_rate(inst: &NetworkInstance, rate: f64) -> NetworkInstance {
    NetworkInstance::new(
        inst.graph.clone(),
        inst.latencies.clone(),
        inst.source,
        inst.sink,
        rate,
    )
}

#[test]
fn perturbed_rate_warm_start_is_equivalent_and_strictly_cheaper() {
    let base = random_layered_network(4, 4, 8.0, 7);
    let opts = FwOptions::default();
    let cold_base = try_network_optimum(&base, &opts, None).unwrap();
    assert!(cold_base.converged);

    for bump in [1.02, 1.1, 0.95] {
        let perturbed = with_rate(&base, 8.0 * bump);
        let fresh = try_network_optimum(&perturbed, &opts, None).unwrap();
        let warm = try_network_optimum(&perturbed, &opts, Some(&cold_base)).unwrap();
        assert!(fresh.converged && warm.converged, "bump {bump}");
        assert!(
            warm.iterations < fresh.iterations,
            "bump {bump}: warm {} !< cold {}",
            warm.iterations,
            fresh.iterations
        );
        for (a, b) in warm.flow.0.iter().zip(&fresh.flow.0) {
            assert!((a - b).abs() < 1e-5, "bump {bump}: {a} vs {b}");
        }
    }
}

#[test]
fn perturbed_leader_warm_start_chains_like_a_curve_sweep() {
    let inst = random_layered_network(4, 4, 8.0, 7);
    let opts = FwOptions::default();
    let optimum = try_network_optimum(&inst, &opts, None).unwrap();

    // Two adjacent SCALE strategies, as in an α-sweep.
    let leader_at = |alpha: f64| {
        EdgeFlow(
            optimum
                .flow
                .0
                .iter()
                .map(|o| alpha * o)
                .collect::<Vec<f64>>(),
        )
    };
    let l30 = leader_at(0.30);
    let l35 = leader_at(0.35);
    let f30 = try_induced_network(&inst, &l30, 0.30 * inst.rate, &opts, None).unwrap();
    let cold = try_induced_network(&inst, &l35, 0.35 * inst.rate, &opts, None).unwrap();
    let warm = try_induced_network(&inst, &l35, 0.35 * inst.rate, &opts, Some(&f30)).unwrap();
    assert!(f30.converged && cold.converged && warm.converged);
    assert!(
        warm.iterations < cold.iterations,
        "warm {} !< cold {}",
        warm.iterations,
        cold.iterations
    );
    for (a, b) in warm.flow.0.iter().zip(&cold.flow.0) {
        assert!((a - b).abs() < 1e-5);
    }
}

#[test]
fn perturbed_multicommodity_warm_start_is_equivalent_and_cheaper() {
    // A rate-perturbed k-commodity instance: the seed rescales per
    // commodity and must land on the same equilibrium within 1e-5.
    let base = random_multicommodity(3, 3, 2, 6.0, 11);
    let opts = FwOptions::default();
    let cold_base = try_multicommodity_optimum(&base, &opts, None).unwrap();
    assert!(cold_base.converged);

    for bump in [1.05, 0.93] {
        let perturbed = MultiCommodityInstance::new(
            base.graph.clone(),
            base.latencies.clone(),
            base.commodities
                .iter()
                .map(|c| {
                    let mut c = *c;
                    c.rate *= bump;
                    c
                })
                .collect(),
        );
        let fresh = try_multicommodity_optimum(&perturbed, &opts, None).unwrap();
        let warm = try_multicommodity_optimum(&perturbed, &opts, Some(&cold_base)).unwrap();
        assert!(fresh.converged && warm.converged, "bump {bump}");
        assert!(
            warm.iterations < fresh.iterations,
            "bump {bump}: warm {} !< cold {}",
            warm.iterations,
            fresh.iterations
        );
        for (e, (a, b)) in warm.flow.0.iter().zip(&fresh.flow.0).enumerate() {
            assert!((a - b).abs() < 1e-5, "bump {bump} edge {e}: {a} vs {b}");
        }
    }
}

#[test]
fn batched_evaluation_preserves_warm_and_cold_flows() {
    // The solver runs its O(m) latency sweeps only through the
    // struct-of-arrays lanes and its shortest paths only as targeted
    // queries. Check its cold, warm and Nash answers against independent
    // oracles: the equilibrium certificate (scalar `LatencyFn` gradients,
    // full Dijkstra) and the scalar objective sum.
    use stackopt::equilibrium::certify::certify_network;
    let inst = stackopt::instances::try_grid_city(6, 1.0, 42).unwrap();
    let perturbed = with_rate(&inst, 1.1);
    let opts = FwOptions::default();
    let cold = try_network_optimum(&inst, &opts, None).unwrap();
    let warm = try_network_optimum(&perturbed, &opts, Some(&cold)).unwrap();
    let nash = try_network_nash(&inst, &opts, None).unwrap();
    for (name, at, model, r) in [
        ("cold optimum", &inst, CostModel::SystemOptimum, &cold),
        ("warm optimum", &perturbed, CostModel::SystemOptimum, &warm),
        ("cold nash", &inst, CostModel::Wardrop, &nash),
    ] {
        assert!(r.converged, "{name}: gap {}", r.rel_gap);
        if let Err(e) = certify_network(at, &r.flow, model, 1e-8) {
            panic!("{name}: {e}");
        }
        let scalar: f64 = at
            .latencies
            .iter()
            .zip(&r.flow.0)
            .map(|(l, &x)| model.edge_objective(l, x))
            .sum();
        let rel = (r.objective - scalar).abs() / scalar.abs();
        assert!(
            rel <= 1e-12,
            "{name}: objective off the scalar sum by {rel:e}"
        );
    }
}

#[test]
fn cold_grid_solves_hand_over_at_the_plateau() {
    // The default stall window must fire on a city grid: Frank–Wolfe stops
    // at its plateau inside the iteration budget, and the polish lands on
    // the objective of a solve that spends the whole budget in FW. Both
    // seeds' profiles run FW to the cap under a window of max(64, 4·m).
    let default = FwOptions::default();
    let pinned = FwOptions {
        stall_window: Some(0),
        ..FwOptions::default()
    };
    for seed in [3, 7] {
        let inst = stackopt::instances::try_grid_city(16, 1.0, seed).unwrap();
        for model in [CostModel::Wardrop, CostModel::SystemOptimum] {
            let handed = try_solve_assignment(&inst, model, &default).unwrap();
            let full = try_solve_assignment(&inst, model, &pinned).unwrap();
            assert!(handed.converged && full.converged, "seed {seed} {model:?}");
            assert!(
                handed.fw_iterations < default.max_iters,
                "seed {seed} {model:?}: FW ran all {} iterations",
                handed.fw_iterations
            );
            let rel = (handed.objective - full.objective).abs() / full.objective.abs();
            assert!(
                rel <= 1e-9,
                "seed {seed} {model:?}: objective off by {rel:e}"
            );
        }
    }
}

#[test]
fn grouped_aon_preserves_warm_and_cold_multicommodity_flows() {
    // Regression guard for the origin-grouped AON path: the default
    // options (AonMode::Auto, which groups demands by origin and may
    // thread the fan-out) and the historical per-commodity sequential
    // loop must agree on every edge flow, cold- and warm-started alike.
    use stackopt::solver::AonMode;
    let base = random_multicommodity(3, 3, 2, 6.0, 11);
    let auto = FwOptions::default();
    let sequential = FwOptions {
        aon: AonMode::Sequential,
        ..FwOptions::default()
    };
    let cold_a = try_multicommodity_optimum(&base, &auto, None).unwrap();
    let cold_s = try_multicommodity_optimum(&base, &sequential, None).unwrap();
    assert!(cold_a.converged && cold_s.converged);
    for (e, (a, b)) in cold_a.flow.0.iter().zip(&cold_s.flow.0).enumerate() {
        assert!((a - b).abs() < 1e-5, "cold edge {e}: {a} vs {b}");
    }

    let perturbed = MultiCommodityInstance::new(
        base.graph.clone(),
        base.latencies.clone(),
        base.commodities
            .iter()
            .map(|c| {
                let mut c = *c;
                c.rate *= 1.07;
                c
            })
            .collect(),
    );
    let warm_a = try_multicommodity_optimum(&perturbed, &auto, Some(&cold_a)).unwrap();
    let warm_s = try_multicommodity_optimum(&perturbed, &sequential, Some(&cold_s)).unwrap();
    assert!(warm_a.converged && warm_s.converged);
    for (e, (a, b)) in warm_a.flow.0.iter().zip(&warm_s.flow.0).enumerate() {
        assert!((a - b).abs() < 1e-5, "warm edge {e}: {a} vs {b}");
    }
}

#[test]
fn unusable_seed_falls_back_to_cold_and_still_solves() {
    let inst = random_layered_network(3, 3, 4.0, 3);
    let opts = FwOptions::default();
    // A zero flow has no s→t value: silently ignored.
    let zero = warm_seed_from(&EdgeFlow::zeros(inst.num_edges()));
    let warm = try_network_nash(&inst, &opts, Some(&zero)).unwrap();
    let cold = try_network_nash(&inst, &opts, None).unwrap();
    assert!(warm.converged && cold.converged);
    assert_eq!(warm.iterations, cold.iterations);
    for (a, b) in warm.flow.0.iter().zip(&cold.flow.0) {
        assert_eq!(a, b, "fallback must reproduce the cold solve bit-exactly");
    }
}
