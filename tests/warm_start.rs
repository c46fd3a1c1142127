//! Warm-start equivalence: a solve seeded from a nearby solution must
//! converge to the same flow (within tolerance) in strictly fewer
//! iterations on perturbed instances — the contract `anarchy_curve`
//! sweeps and the engine's Beta/Tolls seeding rely on. Also guards the
//! cold path's Frank–Wolfe → polish handover on city grids, and the seed
//! check that returns a seed already at the gap target unpolished.
//!
//! The obs counters are process-global, so every test here holds
//! [`serial`] while it solves: the seed-check tests read exact counter
//! deltas.

use std::sync::{Mutex, MutexGuard};

use stackopt::equilibrium::network;
use stackopt::instances::random::{try_random_layered_network, try_random_multicommodity};
use stackopt::instances::{braess_classic, try_grid_city_multi};
use stackopt::latency::LatencyFn;
use stackopt::network::instance::{MultiCommodityInstance, NetworkInstance, Routing};
use stackopt::network::{DiGraph, EdgeFlow, NodeId};
use stackopt::solver::frank_wolfe::{try_solve_parts, FwOptions, FwResult};
use stackopt::solver::CostModel;

/// Holds off the other tests of this file, whose warm solves would move
/// the global counters under a test that reads them.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A global obs counter by name (the recorder is enabled on first use).
fn counter(name: &str) -> u64 {
    stackopt::obs::enable().snapshot().counter(name).unwrap()
}

/// A cold solve under either cost model.
fn solve<'a>(net: impl Into<Routing<'a>>, model: CostModel, opts: &FwOptions) -> FwResult {
    let net = net.into();
    try_solve_parts(net.graph, net.latencies, &net.demands(), model, opts, None).unwrap()
}

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
    let _serial = serial();
    let base = try_random_layered_network(4, 4, 8.0, 7).expect("valid generator parameters");
    let opts = FwOptions::default();
    let cold_base = network::optimum(&base, &opts, None).unwrap();
    assert!(cold_base.converged);

    for bump in [1.02, 1.1, 0.95] {
        let perturbed = with_rate(&base, 8.0 * bump);
        let fresh = network::optimum(&perturbed, &opts, None).unwrap();
        let warm = network::optimum(&perturbed, &opts, Some(&cold_base)).unwrap();
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
    let _serial = serial();
    let inst = try_random_layered_network(4, 4, 8.0, 7).expect("valid generator parameters");
    let opts = FwOptions::default();
    let optimum = network::optimum(&inst, &opts, None).unwrap();

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
    let f30 = network::induced(&inst, l30.as_slice(), &[0.30 * inst.rate], &opts, None).unwrap();
    let cold = network::induced(&inst, l35.as_slice(), &[0.35 * inst.rate], &opts, None).unwrap();
    let warm = network::induced(
        &inst,
        l35.as_slice(),
        &[0.35 * inst.rate],
        &opts,
        Some(&f30),
    )
    .unwrap();
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
    let _serial = serial();
    // A rate-perturbed k-commodity instance: the seed rescales per
    // commodity and must land on the same equilibrium within 1e-5.
    let base = try_random_multicommodity(3, 3, 2, 6.0, 11).expect("valid generator parameters");
    let opts = FwOptions::default();
    let cold_base = network::optimum(&base, &opts, None).unwrap();
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
        let fresh = network::optimum(&perturbed, &opts, None).unwrap();
        let warm = network::optimum(&perturbed, &opts, Some(&cold_base)).unwrap();
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
    let _serial = serial();
    // The solver runs its O(m) latency sweeps only through the
    // struct-of-arrays lanes and its shortest paths only as targeted
    // queries. Check its cold, warm and Nash answers against independent
    // oracles: the equilibrium certificate (scalar `LatencyFn` gradients,
    // full Dijkstra) and the scalar objective sum.
    use stackopt::equilibrium::certify::certify_network;
    let inst = stackopt::instances::try_grid_city(6, 1.0, 42).unwrap();
    let perturbed = with_rate(&inst, 1.1);
    let opts = FwOptions::default();
    let cold = network::optimum(&inst, &opts, None).unwrap();
    let warm = network::optimum(&perturbed, &opts, Some(&cold)).unwrap();
    let nash = network::nash(&inst, &opts, None).unwrap();
    for (name, at, model, r) in [
        ("cold optimum", &inst, CostModel::SystemOptimum, &cold),
        ("warm optimum", &perturbed, CostModel::SystemOptimum, &warm),
        ("cold nash", &inst, CostModel::Wardrop, &nash),
    ] {
        assert!(r.converged, "{name}: gap {}", r.rel_gap);
        if let Err(e) = certify_network(at, &r.per_commodity, &r.flow, model, 1e-8) {
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
    let _serial = serial();
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
            let before = counter("stall_handovers");
            let handed = solve(&inst, model, &default);
            let after_handed = counter("stall_handovers");
            let full = solve(&inst, model, &pinned);
            // One handover under the default window, none with it off.
            assert_eq!(
                (after_handed, counter("stall_handovers")),
                (before + 1, before + 1),
                "seed {seed} {model:?}"
            );
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
    // Network Pigou's optimum meets the target inside the Frank–Wolfe loop
    // within two iterations: no handover, no polish.
    let before = counter("stall_handovers");
    let pigou = network::optimum(&network_pigou(), &default, None).unwrap();
    assert!(pigou.converged && pigou.fw_iterations <= 2 && pigou.polish_rounds == 0);
    assert_eq!(counter("stall_handovers"), before);
}

/// A solve that runs out of iterations before its gap target counts once
/// in `unconverged_solves`; one that converges leaves it alone.
#[test]
fn unconverged_solves_are_counted_once() {
    let _serial = serial();
    let inst = stackopt::instances::try_grid_city(16, 1.0, 3).unwrap();
    let capped = FwOptions {
        max_iters: 2,
        ..FwOptions::default()
    };
    let before = counter("unconverged_solves");
    let r = solve(&inst, CostModel::Wardrop, &capped);
    assert!(!r.converged, "rel_gap {}", r.rel_gap);
    assert_eq!(counter("unconverged_solves"), before + 1);
    let r = solve(&inst, CostModel::Wardrop, &FwOptions::default());
    assert!(r.converged);
    assert_eq!(counter("unconverged_solves"), before + 1);
}

/// A cold solve whose only searches are the cold start's (no Frank–Wolfe
/// iteration, no polish round) on a grid whose 16 origins serve two
/// commodities each: each origin keeps its one-to-many tree from slice to
/// slice while the tree's certificate holds, so it grows fewer than its
/// eight slices' worth.
#[test]
fn shared_origin_cold_start_keeps_its_trees() {
    let _serial = serial();
    let inst = try_grid_city_multi(12, 4.0, 32, 1).unwrap();
    let mut origins: Vec<u32> = inst.commodities.iter().map(|c| c.source.0).collect();
    origins.sort_unstable();
    origins.dedup();
    assert_eq!(origins.len(), 16);
    let trees = || {
        let snap = stackopt::obs::enable().snapshot();
        snap.phase("sp_query").map_or(0, |h| h.count)
    };
    let opts = FwOptions {
        max_iters: 0,
        ..FwOptions::default()
    };
    for model in [CostModel::Wardrop, CostModel::SystemOptimum] {
        let before = trees();
        solve(&inst, model, &opts);
        let grown = trees() - before;
        assert!(
            (16..8 * 16).contains(&grown),
            "{model:?}: {grown} trees for 16 origins"
        );
    }
}

#[test]
fn grouped_aon_preserves_warm_and_cold_multicommodity_flows() {
    let _serial = serial();
    // Regression guard for the origin-grouped AON path: the default
    // options (AonMode::Auto, which groups demands by origin and may
    // thread the fan-out) and the per-commodity sequential loop must
    // agree on every edge flow, cold- and warm-started alike.
    use stackopt::solver::AonMode;
    let base = try_random_multicommodity(3, 3, 2, 6.0, 11).expect("valid generator parameters");
    let auto = FwOptions::default();
    let sequential = FwOptions {
        aon: AonMode::Sequential,
        ..FwOptions::default()
    };
    let cold_a = network::optimum(&base, &auto, None).unwrap();
    let cold_s = network::optimum(&base, &sequential, None).unwrap();
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
    let warm_a = network::optimum(&perturbed, &auto, Some(&cold_a)).unwrap();
    let warm_s = network::optimum(&perturbed, &sequential, Some(&cold_s)).unwrap();
    assert!(warm_a.converged && warm_s.converged);
    for (e, (a, b)) in warm_a.flow.0.iter().zip(&warm_s.flow.0).enumerate() {
        assert!((a - b).abs() < 1e-5, "warm edge {e}: {a} vs {b}");
    }
}

#[test]
fn unusable_seed_falls_back_to_cold_and_still_solves() {
    let _serial = serial();
    let inst = try_random_layered_network(3, 3, 4.0, 3).expect("valid generator parameters");
    let opts = FwOptions::default();
    // A zero flow has no s→t value: rejected, and the rejection counted.
    let rejected = || {
        stackopt::obs::enable()
            .snapshot()
            .counter("seeds_rejected")
            .unwrap()
    };
    let before = rejected();
    let zero = network::warm_seed(vec![EdgeFlow::zeros(inst.num_edges())]);
    let warm = network::nash(&inst, &opts, Some(&zero)).unwrap();
    assert!(rejected() > before, "the rejected seed was not counted");
    let cold = network::nash(&inst, &opts, None).unwrap();
    assert!(warm.converged && cold.converged);
    assert_eq!(warm.iterations, cold.iterations);
    for (a, b) in warm.flow.0.iter().zip(&cold.flow.0) {
        assert_eq!(a, b, "fallback must reproduce the cold solve bit-exactly");
    }
}

#[test]
fn nash_profile_is_polished_from_the_cold_optimum() {
    let _serial = serial();
    // Every task reads the Nash profile that the Wardrop solve polishes
    // from the cold optimum. It must skip Frank–Wolfe, land on the cold
    // Nash cost, leave β and the plan exactly where a cold optimum puts
    // them, and reach the reports bit for bit with or without a memo.
    use stackopt::api::{Engine, EqKind, ModelProfile, Report, Scenario, SolveCache, Task};
    use stackopt::instances::braess::braess_topology;
    use stackopt::instances::random::try_random_multicommodity;
    use stackopt::instances::{braess_classic, roughgarden_651, try_grid_city_multi};
    use stackopt::latency::LatencyFn;
    use std::sync::Arc;

    // Braess with M/M/1 rims: the cut {s→v, w→t} holds 2.0, so rate 1.9
    // loads it to 95%.
    let mm1_braess = braess_topology(
        [
            LatencyFn::mm1(1.0),
            LatencyFn::mm1(1.5),
            LatencyFn::constant(0.0),
            LatencyFn::mm1(1.5),
            LatencyFn::mm1(1.0),
        ],
        1.9,
    );
    // Braess and Roughgarden's Example 6.5.1 have degenerate Nash vertices,
    // where a polish that stops at the gap target can leave C(N) off by
    // about the square root of the gap.
    let mut cases = vec![
        ("braess".to_string(), Scenario::Network(braess_classic())),
        (
            "roughgarden 6.5.1".to_string(),
            Scenario::Network(roughgarden_651(3)),
        ),
        (
            "pigou".to_string(),
            Scenario::parse("nodes=2; 0->1: x; 0->1: 1.0; demand 0->1: 1.0").unwrap(),
        ),
        ("mm1 braess".to_string(), Scenario::Network(mm1_braess)),
    ];
    for seed in 0..3 {
        let inst = try_random_multicommodity(3, 3, 3, 1.0, seed).unwrap();
        cases.push((format!("layered {seed}"), Scenario::Multi(inst)));
    }
    // 24 commodities on 16 origins, congested enough for β > 0.
    let grid = try_grid_city_multi(5, 60.0, 24, 1).unwrap();
    cases.push(("grid".to_string(), Scenario::Multi(grid)));

    // The knobs `Solve` runs with by default.
    let fw = FwOptions::default();
    for (name, sc) in &cases {
        let model = sc.model();
        let net = match sc {
            Scenario::Network(i) => i.routing(),
            Scenario::Multi(i) => i.routing(),
            Scenario::Parallel(_) => unreachable!("{name}"),
        };
        let cold_nash = network::nash(net, &fw, None).unwrap();
        let cold_opt = network::optimum(net, &fw, None).unwrap();

        // (a) The profile skips Frank–Wolfe and matches the cold Nash.
        let nash = model.solve_profile(EqKind::Nash, &fw).unwrap();
        let r = nash.flow_result().unwrap();
        assert_eq!(r.fw_iterations, 0, "{name}: the optimum seed was rejected");
        let cost = model.cost(nash.flows());
        let cold_cost = model.cost(cold_nash.flow.as_slice());
        let rel = (cost - cold_cost).abs() / cold_cost.abs();
        assert!(rel <= 1e-9, "{name}: C(N) off the cold Nash by {rel:e}");

        // (b) β and the plan are those of a cold optimum.
        let plan = model
            .beta_plan(Some(&ModelProfile::Flow(cold_opt)))
            .unwrap();
        let induced = model
            .induced(
                &plan.leader,
                &plan.leader_values,
                &fw,
                plan.induced_seed.as_ref(),
            )
            .unwrap();
        let total: Vec<f64> = plan
            .leader
            .iter()
            .zip(&induced.follower)
            .map(|(a, b)| a + b)
            .collect();
        let report = sc.clone().solve().task(Task::Beta).run().unwrap();
        let b = report.data.as_beta().unwrap();
        assert_eq!(b.beta, plan.beta, "{name}: β");
        assert_eq!(b.optimum_cost, plan.optimum_cost, "{name}: C(O)");
        assert_eq!(b.induced_cost, model.cost(&total), "{name}: induced cost");
        assert_eq!(b.strategy, plan.leader, "{name}: strategy");
        assert_eq!(b.commodity_alphas, plan.commodity_alphas, "{name}: α_i");
        assert_eq!(b.nash_cost.to_bits(), cost.to_bits(), "{name}: Solve C(N)");

        // (c) Every route to a report carries the profile's C(N) exactly:
        // no memo, and a shared memo populated by either task first.
        let nash_cost = |rep: Report| match rep.data.as_beta() {
            Some(b) => b.nash_cost,
            None => rep.data.as_equilib().unwrap().nash_cost,
        };
        for order in [[Task::Beta, Task::Equilib], [Task::Equilib, Task::Beta]] {
            let cache = Arc::new(SolveCache::new());
            for task in order {
                for memo in [false, true] {
                    let engine = Engine::new(vec![sc.clone()]).task(task);
                    let engine = if memo {
                        engine.cache(Arc::clone(&cache))
                    } else {
                        engine.no_cache()
                    };
                    let rep = engine.run().remove(0).unwrap();
                    assert_eq!(
                        nash_cost(rep).to_bits(),
                        cost.to_bits(),
                        "{name}: {task} C(N), memo {memo}"
                    );
                }
            }
        }
    }
}

/// The network Pigou example: `x` beside a constant 1, rate 1.
fn network_pigou() -> NetworkInstance {
    let mut g = DiGraph::with_nodes(2);
    g.add_edge(NodeId(0), NodeId(1));
    g.add_edge(NodeId(0), NodeId(1));
    let lats = vec![LatencyFn::identity(), LatencyFn::constant(1.0)];
    NetworkInstance::new(g, lats, NodeId(0), NodeId(1), 1.0)
}

/// The seed the solver validates: each commodity's flow rescaled to its
/// rate by its value at the sink, clamped at zero.
fn validated(seed: &FwResult, graph: &DiGraph, demands: &[(NodeId, NodeId, f64)]) -> Vec<Vec<f64>> {
    seed.per_commodity
        .iter()
        .zip(demands)
        .map(|(flow, &(_, t, r))| {
            let scale = r / flow.excess(graph, t);
            flow.0.iter().map(|x| (x * scale).max(0.0)).collect()
        })
        .collect()
}

#[test]
fn seed_at_the_target_returns_unpolished() {
    let _serial = serial();
    // A converged Nash seeds its own instance: the check passes, so the
    // validated seed comes back as the answer with no polish round.
    let fw = FwOptions::default();
    let braess = braess_classic();
    let nash = network::nash(&braess, &fw, None).unwrap();
    let before = counter("seed_checks_failed");
    let warm = network::nash(&braess, &fw, Some(&nash)).unwrap();
    assert!(
        warm.converged && warm.rel_gap <= fw.rel_gap,
        "gap {}",
        warm.rel_gap
    );
    assert_eq!((warm.iterations, warm.polish_rounds), (0, 0));
    let demands = [(braess.source, braess.sink, braess.rate)];
    assert_eq!(
        vec![warm.per_commodity[0].0.clone()],
        validated(&nash, &braess.graph, &demands)
    );
    assert_eq!(
        counter("seed_checks_failed"),
        before,
        "a passing check was counted"
    );

    for (name, inst) in [
        (
            "layered",
            try_random_multicommodity(3, 3, 3, 1.0, 0).unwrap(),
        ),
        ("grid", try_grid_city_multi(5, 60.0, 24, 1).unwrap()),
    ] {
        let nash = network::nash(&inst, &fw, None).unwrap();
        let before = counter("seed_checks_failed");
        let warm = network::nash(&inst, &fw, Some(&nash)).unwrap();
        assert!(warm.converged, "{name}: gap {}", warm.rel_gap);
        assert_eq!((warm.iterations, warm.polish_rounds), (0, 0), "{name}");
        let demands: Vec<_> = inst
            .commodities
            .iter()
            .map(|c| (c.source, c.sink, c.rate))
            .collect();
        let got: Vec<Vec<f64>> = warm.per_commodity.iter().map(|f| f.0.clone()).collect();
        assert_eq!(got, validated(&nash, &inst.graph, &demands), "{name}");
        assert_eq!(
            counter("seed_checks_failed"),
            before,
            "{name}: a passing check was counted"
        );
    }
}

#[test]
fn seed_off_the_target_is_polished_and_counted() {
    let _serial = serial();
    // Optima seeding the Nash solve: each check fails once, and the polish
    // lands on the cold Nash cost.
    let fw = FwOptions::default();
    for (name, inst) in [("braess", braess_classic()), ("pigou", network_pigou())] {
        let optimum = network::optimum(&inst, &fw, None).unwrap();
        let cold = network::nash(&inst, &fw, None).unwrap();
        let before = counter("seed_checks_failed");
        let warm = network::nash(&inst, &fw, Some(&optimum)).unwrap();
        assert_eq!(counter("seed_checks_failed"), before + 1, "{name}");
        assert!(warm.converged && warm.polish_rounds >= 1, "{name}");
        let (c, want) = (
            inst.cost(warm.flow.as_slice()),
            inst.cost(cold.flow.as_slice()),
        );
        assert!(
            (c - want).abs() <= 1e-9 * want,
            "{name}: C(N) {c} vs cold {want}"
        );
    }
    for seed in 0..3 {
        let inst = try_random_multicommodity(3, 3, 3, 1.0, seed).unwrap();
        let optimum = network::optimum(&inst, &fw, None).unwrap();
        let cold = network::nash(&inst, &fw, None).unwrap();
        let before = counter("seed_checks_failed");
        let warm = network::nash(&inst, &fw, Some(&optimum)).unwrap();
        assert_eq!(counter("seed_checks_failed"), before + 1, "layered {seed}");
        assert!(warm.converged && warm.polish_rounds >= 1, "layered {seed}");
        let (c, want) = (
            inst.cost(warm.flow.as_slice()),
            inst.cost(cold.flow.as_slice()),
        );
        assert!(
            (c - want).abs() <= 1e-9 * want,
            "layered {seed}: C(N) {c} vs {want}"
        );
    }
}

#[test]
fn seed_check_gap_is_the_polish_round_zero_gap() {
    let _serial = serial();
    // A target of 1 passes every seed, so the solve reports the check's
    // gap; a target of −1 fails every seed, and a one-round budget leaves
    // the polish's round-0 gap as the answer.
    let check = FwOptions {
        rel_gap: 1.0,
        ..FwOptions::default()
    };
    let round0 = FwOptions {
        rel_gap: -1.0,
        max_iters: 1,
        ..FwOptions::default()
    };
    // Both gaps are `(Σc·f − Σc·y) / Σc·f`, the check's on the seed's edge
    // flow and the polish's on its path decomposition, so they agree to
    // 1e-12 of Σc·f.
    let agree = |name: &str, a: &FwResult, b: &FwResult| {
        assert_eq!((a.polish_rounds, b.polish_rounds), (0, 1), "{name}");
        assert!(a.rel_gap > 1e-9, "{name}: seed gap {}", a.rel_gap);
        let diff = (a.rel_gap - b.rel_gap).abs();
        assert!(
            diff <= 1e-12,
            "{name}: check {} vs polish {}",
            a.rel_gap,
            b.rel_gap
        );
    };
    for (name, inst) in [
        ("grid", try_grid_city_multi(5, 60.0, 24, 1).unwrap()),
        (
            "layered",
            try_random_multicommodity(3, 3, 3, 1.0, 1).unwrap(),
        ),
    ] {
        let optimum = network::optimum(&inst, &FwOptions::default(), None).unwrap();
        let a = network::nash(&inst, &check, Some(&optimum)).unwrap();
        let b = network::nash(&inst, &round0, Some(&optimum)).unwrap();
        agree(name, &a, &b);
    }
    let single = try_random_layered_network(4, 4, 8.0, 7).expect("valid generator parameters");
    let optimum = network::optimum(&single, &FwOptions::default(), None).unwrap();
    let a = network::nash(&single, &check, Some(&optimum)).unwrap();
    let b = network::nash(&single, &round0, Some(&optimum)).unwrap();
    agree("single commodity", &a, &b);
}
