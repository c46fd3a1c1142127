//! **SCALE** — the Leader plays a scaled optimum `S = α·O`
//! (Karakostas–Kolliopoulos \[18\]; also studied by Correa–Stier-Moses \[5\]).
//! Simple, topology-agnostic, and the natural baseline for MOP on networks.

use sopt_equilibrium::network;
use sopt_equilibrium::parallel::ParallelLinks;
use sopt_network::flow::EdgeFlow;
use sopt_network::instance::NetworkInstance;
use sopt_solver::frank_wolfe::FwOptions;

/// SCALE on parallel links: `s_i = α·o_i`.
pub fn scale_strategy(links: &ParallelLinks, alpha: f64) -> Vec<f64> {
    assert!((0.0..=1.0).contains(&alpha), "α must lie in [0, 1]");
    links.optimum().flows().iter().map(|o| alpha * o).collect()
}

/// Evaluate SCALE on parallel links: `(strategy, induced cost)`.
pub fn scale(links: &ParallelLinks, alpha: f64) -> (Vec<f64>, f64) {
    let s = scale_strategy(links, alpha);
    let c = links.induced_cost(&s);
    (s, c)
}

/// SCALE on an s–t network: the Leader ships `α·O` (edge-wise), the
/// followers route `(1−α)r` against the a-posteriori latencies. Returns
/// `(leader flow, induced total cost)`. Panics where the solves error.
pub fn scale_network(inst: &NetworkInstance, alpha: f64, opts: &FwOptions) -> (EdgeFlow, f64) {
    assert!((0.0..=1.0).contains(&alpha), "α must lie in [0, 1]");
    let opt = network::optimum(inst, opts, None).expect("a reachable sink");
    let leader = EdgeFlow(opt.flow.as_slice().iter().map(|o| alpha * o).collect());
    let follower = network::induced(inst, leader.as_slice(), &[alpha * inst.rate], opts, None)
        .expect("a reachable sink and a feasible leader");
    let total: Vec<f64> = leader
        .as_slice()
        .iter()
        .zip(follower.flow.as_slice())
        .map(|(a, b)| a + b)
        .collect();
    let cost = inst.cost(&total);
    (leader, cost)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sopt_latency::LatencyFn;

    #[test]
    fn scale_strategy_is_alpha_times_optimum() {
        let links = ParallelLinks::new(vec![LatencyFn::identity(), LatencyFn::constant(1.0)], 1.0);
        let s = scale_strategy(&links, 0.4);
        assert!((s[0] - 0.2).abs() < 1e-9);
        assert!((s[1] - 0.2).abs() < 1e-9);
    }

    #[test]
    fn scale_interpolates_nash_to_optimum() {
        let links = ParallelLinks::new(
            vec![LatencyFn::affine(1.0, 0.0), LatencyFn::affine(0.5, 0.5)],
            1.0,
        );
        let (_, c0) = scale(&links, 0.0);
        let (_, c1) = scale(&links, 1.0);
        let cn = links.cost(links.nash().flows());
        let co = links.cost(links.optimum().flows());
        assert!((c0 - cn).abs() < 1e-7);
        assert!((c1 - co).abs() < 1e-9);
        // Monotone improvement in between (sampled).
        let mut prev = c0 + 1e-12;
        for &a in &[0.25, 0.5, 0.75] {
            let (_, c) = scale(&links, a);
            assert!(c <= prev + 1e-9, "α={a}: {c} > {prev}");
            prev = c;
        }
    }

    #[test]
    fn scale_on_pigou_wastes_control() {
        // SCALE puts α/2 on the fast link where it is useless: with α = 1/2
        // the induced cost stays above the optimum that OpTop achieves.
        let links = ParallelLinks::new(vec![LatencyFn::identity(), LatencyFn::constant(1.0)], 1.0);
        let (_, c) = scale(&links, 0.5);
        assert!(c > 0.75 + 1e-6, "SCALE should be suboptimal at α = β: {c}");
    }
}
