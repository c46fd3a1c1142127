//! Cross-solver validation: independent algorithms must agree wherever
//! their domains overlap. A bug in any single solver cannot pass these.

use stackopt::core::brute::{brute_force_optimal, BruteOptions};
use stackopt::core::linear_optimal::linear_optimal_strategy;
use stackopt::core::mop::try_mop;
use stackopt::core::optop::optop;
use stackopt::instances::random::{
    try_random_common_slope, try_random_layered_network, try_random_mixed, try_random_mixed_smooth,
};
use stackopt::latency::LatencyFn;
use stackopt::network::graph::{DiGraph, NodeId};
use stackopt::network::instance::NetworkInstance;
use stackopt::prelude::*;
use stackopt::solver::frank_wolfe::{try_solve_parts, FwOptions, FwResult};
use stackopt::solver::objective::CostModel;
use stackopt::solver::pgd::path_equilibrium;

/// Build the 2-node multigraph equivalent of a parallel-links system.
fn as_network(links: &ParallelLinks) -> NetworkInstance {
    let mut g = DiGraph::with_nodes(2);
    for _ in 0..links.m() {
        g.add_edge(NodeId(0), NodeId(1));
    }
    NetworkInstance::new(
        g,
        links.latencies().to_vec(),
        NodeId(0),
        NodeId(1),
        links.rate(),
    )
}

/// A cold Frank–Wolfe solve under either cost model.
fn frank_wolfe(inst: &NetworkInstance, model: CostModel, opts: &FwOptions) -> FwResult {
    let net = inst.routing();
    try_solve_parts(net.graph, net.latencies, &net.demands(), model, opts, None).unwrap()
}

/// The equalizer (closed-form inverses + bisection) and Frank–Wolfe
/// (first-order method) agree on parallel links for both equilibria.
/// (Smooth-marginal families: the FW SystemOptimum gap certificate is
/// undefined at piecewise-linear kinks — see `try_random_mixed` docs.)
#[test]
fn equalizer_vs_frank_wolfe() {
    for seed in 0..8u64 {
        let links = try_random_mixed_smooth(5, 1.5, seed).expect("valid generator parameters");
        let inst = as_network(&links);
        let opts = FwOptions::default();
        for model in [CostModel::Wardrop, CostModel::SystemOptimum] {
            let fw = frank_wolfe(&inst, model, &opts);
            assert!(fw.converged, "seed {seed} {model:?}");
            let eq = match model {
                CostModel::Wardrop => links.nash(),
                CostModel::SystemOptimum => links.optimum(),
            };
            // Compare total costs (flows may permute among identical links).
            let c_fw = links.cost(fw.flow.as_slice());
            let c_eq = links.cost(eq.flows());
            assert!(
                (c_fw - c_eq).abs() < 1e-5 * c_eq.max(1.0),
                "seed {seed} {model:?}: FW {c_fw} vs equalizer {c_eq}"
            );
        }
    }
}

/// Frank–Wolfe and the path-based projected-gradient solver agree on small
/// networks.
#[test]
fn frank_wolfe_vs_pgd() {
    for seed in [3u64, 9, 21] {
        let inst = try_random_layered_network(2, 2, 1.0, seed).expect("valid generator parameters");
        let opts = FwOptions::default();
        for model in [CostModel::Wardrop, CostModel::SystemOptimum] {
            let fw = frank_wolfe(&inst, model, &opts);
            let pg = path_equilibrium(&inst, model, 100, 30_000);
            let c_fw = inst.cost(fw.flow.as_slice());
            let c_pg = inst.cost(pg.flow.as_slice());
            // PGD is the lower-precision oracle; costs agree to ~1e-4.
            assert!(
                (c_fw - c_pg).abs() < 1e-3 * c_fw.max(1.0),
                "seed {seed} {model:?}: FW {c_fw} vs PGD {c_pg}"
            );
        }
    }
}

/// OpTop (parallel-link specialisation) and MOP (general nets) compute the
/// same β on parallel links.
#[test]
fn optop_vs_mop_on_parallel_links() {
    for seed in 0..6u64 {
        let links = try_random_common_slope(4, 1.0, seed).expect("valid generator parameters");
        let ot = optop(&links);
        let mp = try_mop(&as_network(&links), &FwOptions::default()).unwrap();
        assert!(
            (ot.beta - mp.beta).abs() < 1e-4,
            "seed {seed}: OpTop β {} vs MOP β {}",
            ot.beta,
            mp.beta
        );
    }
}

/// Theorem 2.4's polynomial algorithm never loses to exhaustive search
/// (and never claims better than the search can verify by evaluation).
#[test]
fn theorem_24_vs_brute_force() {
    let mut hard_side_seen = 0;
    for seed in 0..10u64 {
        let links = try_random_common_slope(3, 1.0, seed).expect("valid generator parameters");
        let beta = optop(&links).beta;
        for &alpha in &[0.15, 0.35, 0.6] {
            let exact = linear_optimal_strategy(&links, alpha);
            let (_, brute) = brute_force_optimal(&links, alpha, &BruteOptions::default());
            assert!(
                exact.cost <= brute + 1e-5,
                "seed {seed} α={alpha}: exact {} > brute {brute}",
                exact.cost
            );
            // The claimed cost must be realisable.
            let realised = links.induced_cost(&exact.strategy);
            assert!(
                (realised - exact.cost).abs() < 1e-5 * exact.cost.max(1.0),
                "seed {seed} α={alpha}: claimed {} realised {realised}",
                exact.cost
            );
            if alpha < beta {
                hard_side_seen += 1;
            }
        }
    }
    assert!(
        hard_side_seen > 0,
        "the sweep must hit the hard side at least once"
    );
}

/// LLF's 1/α guarantee and the induced-cost sandwich C(O) ≤ C(S+T) ≤ C(N)…
/// note the upper end: LLF can exceed C(N) for *no* strategy class here, it
/// is bounded by 1/α·C(O) instead.
#[test]
fn llf_guarantee_on_random_instances() {
    for seed in 0..10u64 {
        let links = try_random_mixed(5, 2.0, seed).expect("valid generator parameters");
        let copt = links.cost(links.optimum().flows());
        for &alpha in &[0.2, 0.5, 0.8] {
            let (_, cost) = stackopt::core::llf::llf(&links, alpha);
            assert!(cost >= copt - 1e-7, "cannot beat the optimum");
            assert!(
                cost <= copt / alpha + 1e-6,
                "seed {seed} α={alpha}: LLF {cost} breaks 1/α bound {}",
                copt / alpha
            );
        }
    }
}

/// The certified sandwich on strategies: OpTop at β enforces C(O); every
/// scaled-down version stays strictly above; LLF/SCALE interpolate.
#[test]
fn strategy_cost_sandwich() {
    let links = ParallelLinks::new(
        vec![
            LatencyFn::affine(1.0, 0.0),
            LatencyFn::affine(1.5, 0.2),
            LatencyFn::constant(1.1),
        ],
        1.0,
    );
    let ot = optop(&links);
    let c_opt = ot.optimum_cost;
    let c_nash = ot.nash_cost;
    assert!(c_opt < c_nash, "instance must be nontrivial");
    for &frac in &[0.0, 0.25, 0.5, 0.75, 1.0] {
        let s: Vec<f64> = ot.strategy.iter().map(|x| x * frac).collect();
        let c = links.induced_cost(&s);
        assert!(c >= c_opt - 1e-9 && c <= c_nash + 1e-7, "frac {frac}: {c}");
    }
}
