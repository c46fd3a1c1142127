//! End-to-end tests for the extension surface: piecewise-linear latencies in
//! the equalizer, marginal-cost tolls on paper instances, the anarchy-value
//! curve, and the CLI spec parser feeding real computations.

use stackopt::core::curve::anarchy_curve;
use stackopt::core::optop::optop;
use stackopt::core::tolls::{marginal_cost_tolls, network_tolls};
use stackopt::equilibrium::certify::certify_parallel;
use stackopt::equilibrium::network;
use stackopt::instances::braess::fig7_instance;
use stackopt::instances::fig4::fig4_links;
use stackopt::prelude::*;
use stackopt::solver::frank_wolfe::FwOptions;
use stackopt::solver::objective::CostModel;
use stackopt::spec::parse_links;

#[test]
fn piecewise_links_equalize_and_certify() {
    // Two piecewise-linear links with distinct kink structure.
    let links = ParallelLinks::new(
        vec![
            LatencyFn::piecewise(0.2, &[(0.0, 1.0), (0.5, 4.0)]),
            LatencyFn::piecewise(0.0, &[(0.0, 2.0), (1.0, 2.5)]),
        ],
        1.5,
    );
    let n = links.nash();
    let o = links.optimum();
    certify_parallel(links.latencies(), n.flows(), 1.5, CostModel::Wardrop, 1e-6)
        .expect("piecewise Nash certified");
    certify_parallel(
        links.latencies(),
        o.flows(),
        1.5,
        CostModel::SystemOptimum,
        1e-6,
    )
    .expect("piecewise optimum certified");
    assert!(links.cost(o.flows()) <= links.cost(n.flows()) + 1e-9);

    // OpTop runs unchanged on the piecewise class.
    let r = optop(&links);
    assert!((links.induced_cost(&r.strategy) - r.optimum_cost).abs() < 1e-6);
}

#[test]
fn tolls_and_stackelberg_agree_on_fig4() {
    let links = fig4_links();
    let ot = optop(&links);
    let tl = marginal_cost_tolls(&links);
    // Both restore the optimum cost (tolls are transfers: evaluate the
    // original latencies at the tolled equilibrium).
    let tolled_nash = tl.tolled.nash();
    assert!((links.cost(tolled_nash.flows()) - ot.optimum_cost).abs() < 1e-6);
    assert!((links.induced_cost(&ot.strategy) - ot.optimum_cost).abs() < 1e-8);
    // The flows agree with the optimum on every link.
    for (i, (got, want)) in tolled_nash.flows().iter().zip(&tl.optimum).enumerate() {
        assert!((got - want).abs() < 1e-6, "link {i}");
    }
}

#[test]
fn network_tolls_on_fig7() {
    let inst = fig7_instance(0.05);
    let opts = FwOptions::default();
    let optimum = network::optimum(&inst, &opts, None).unwrap();
    let t = network_tolls(&inst, &optimum).unwrap();
    let nash = network::nash(inst.routing().with_latencies(&t.tolled), &opts, None).unwrap();
    // Latency cost of the tolled equilibrium = C(O) of the original.
    let c = inst.cost(nash.flow.as_slice());
    let copt = inst.cost(&t.optimum);
    assert!((c - copt).abs() < 1e-4, "tolled Nash {c} vs C(O) {copt}");
}

#[test]
fn curve_crossover_matches_beta_on_fig4() {
    let links = fig4_links();
    let alphas: Vec<f64> = (0..=24).map(|k| k as f64 / 24.0).collect();
    let curve = anarchy_curve(&links, &alphas);
    for p in &curve.points {
        if p.alpha >= curve.beta {
            assert!(
                (p.ratio - 1.0).abs() < 1e-5,
                "α={} ratio={}",
                p.alpha,
                p.ratio
            );
        }
        assert!(p.ratio >= 1.0 - 1e-9);
        assert!(p.cost <= curve.nash_cost + 1e-7);
    }
    // The curve is monotone nonincreasing in α.
    for w in curve.points.windows(2) {
        assert!(w[1].cost <= w[0].cost + 1e-6);
    }
}

#[test]
fn spec_parser_drives_real_computation() {
    // The session API end to end: parse → solve → typed report.
    let report = Scenario::parse("x, 1.0")
        .and_then(|s| s.solve().task(Task::Beta).run())
        .expect("pigou spec solves");
    assert!((report.data.as_beta().unwrap().beta - 0.5).abs() < 1e-9);

    // The low-level parser remains available for custom pipelines.
    let lats = parse_links("mm1:2.0, mm1:4.0, 0.9").expect("mixed spec");
    let links = ParallelLinks::new(lats, 2.0);
    let n = links.nash();
    certify_parallel(links.latencies(), n.flows(), 2.0, CostModel::Wardrop, 1e-6)
        .expect("spec-built Nash certified");
}

#[test]
fn session_api_matches_algorithm_surface_on_fig4() {
    // The api dispatches to the same algorithms: identical numbers.
    let report = Scenario::from(fig4_links())
        .solve()
        .task(Task::Beta)
        .run()
        .expect("fig4 solves");
    let b = report.data.as_beta().unwrap();
    let ot = optop(&fig4_links());
    assert!((b.beta - ot.beta).abs() < 1e-12);
    assert!((b.nash_cost - ot.nash_cost).abs() < 1e-12);
    assert!((b.optimum_cost - ot.optimum_cost).abs() < 1e-12);
    for (a, e) in b.strategy.iter().zip(&ot.strategy) {
        assert!((a - e).abs() < 1e-12);
    }
}
