//! Marginal-cost pricing — the classical alternative to Stackelberg control
//! (the paper's introduction lists pricing policies \[4\] among the
//! methodologies that "bring the system to fixed points closer to its
//! optimum").
//!
//! Charging every link/edge the toll `τ = o·ℓ'(o)` (the congestion
//! externality at the optimum) makes selfish users internalise the social
//! cost: the tolled latencies `ℓ(x) + τ` have a Nash equilibrium whose flows
//! are exactly the untolled optimum `O`. Where the Stackelberg Leader pays
//! with *control over β_M·r flow*, the toll designer pays with *money
//! collected from everyone* — `tolls` quantifies that trade on any instance.

use crate::error::CoreError;
use sopt_equilibrium::parallel::ParallelLinks;
use sopt_latency::{Latency, LatencyFn};
use sopt_network::instance::Routing;
use sopt_solver::frank_wolfe::FwResult;

/// Per-link/edge marginal-cost tolls `τ = o·ℓ'(o)` at an optimum `o`.
fn tolls_at(latencies: &[LatencyFn], optimum: &[f64]) -> Vec<f64> {
    latencies
        .iter()
        .zip(optimum)
        .map(|(l, &o)| o * l.derivative(o))
        .collect()
}

/// The tolled latencies `ℓ + τ` and the revenue `Σ o·τ`.
fn tolled_latencies(latencies: &[LatencyFn], tolls: &[f64]) -> Vec<LatencyFn> {
    latencies
        .iter()
        .zip(tolls)
        .map(|(l, &t)| l.tolled(t))
        .collect()
}

/// Marginal-cost tolls on parallel links.
#[derive(Clone, Debug)]
pub struct ParallelTolls {
    /// Per-link tolls `τ_i = o_i·ℓ'_i(o_i)`.
    pub tolls: Vec<f64>,
    /// The tolled system (latencies `ℓ_i + τ_i`).
    pub tolled: ParallelLinks,
    /// The optimum `O` of the *untolled* system (= tolled Nash flows).
    pub optimum: Vec<f64>,
    /// Total toll revenue `Σ o_i·τ_i` at the induced equilibrium.
    pub revenue: f64,
}

/// Compute marginal-cost tolls for `(M, r)`: the tolled Nash equals the
/// untolled optimum. Panics where [`try_marginal_cost_tolls`] errors.
pub fn marginal_cost_tolls(links: &ParallelLinks) -> ParallelTolls {
    try_marginal_cost_tolls(links).expect("tolls need a feasible optimum")
}

/// Compute marginal-cost tolls for `(M, r)`, reporting infeasibility as a
/// typed error instead of panicking.
pub fn try_marginal_cost_tolls(links: &ParallelLinks) -> Result<ParallelTolls, CoreError> {
    let optimum = links.try_optimum()?.flows().to_vec();
    Ok(try_marginal_cost_tolls_with_optimum(links, optimum))
}

/// [`try_marginal_cost_tolls`] with the optimum assignment supplied by the
/// caller (the session layer threads a memoized equalizer optimum through
/// here, so a fleet re-touching one scenario solves the optimum once).
pub fn try_marginal_cost_tolls_with_optimum(
    links: &ParallelLinks,
    optimum: Vec<f64>,
) -> ParallelTolls {
    let tolls = tolls_at(links.latencies(), &optimum);
    let tolled = ParallelLinks::new(tolled_latencies(links.latencies(), &tolls), links.rate());
    let revenue = optimum.iter().zip(&tolls).map(|(o, t)| o * t).sum();
    ParallelTolls {
        tolls,
        tolled,
        optimum,
        revenue,
    }
}

/// Marginal-cost tolls on a network of either class. The fixed-point
/// argument is commodity-agnostic: tolling every edge its externality
/// `o·ℓ'(o)` at the *combined* optimum makes the (multicommodity) Wardrop
/// equilibrium of the tolled latencies coincide with the untolled optimum.
#[derive(Clone, Debug)]
pub struct EdgeTolls {
    /// Per-edge tolls `τ_e = o_e·ℓ'_e(o_e)`.
    pub tolls: Vec<f64>,
    /// The tolled latencies `ℓ_e + τ_e`, one per edge; route them over the
    /// untolled graph with [`Routing::with_latencies`].
    pub tolled: Vec<LatencyFn>,
    /// The combined optimum of the untolled instance.
    pub optimum: Vec<f64>,
    /// Total revenue `Σ o_e·τ_e`.
    pub revenue: f64,
}

/// Marginal-cost edge tolls at the optimum `opt` of `net` (solved by the
/// caller, possibly served from a memo), reporting a non-converged
/// optimum as a typed error.
pub fn network_tolls<'a>(
    net: impl Into<Routing<'a>>,
    opt: &FwResult,
) -> Result<EdgeTolls, CoreError> {
    if !opt.converged {
        return Err(CoreError::NotConverged {
            what: "optimum",
            rel_gap: opt.rel_gap,
        });
    }
    let latencies = net.into().latencies;
    let optimum = opt.flow.as_slice().to_vec();
    let tolls = tolls_at(latencies, &optimum);
    let tolled = tolled_latencies(latencies, &tolls);
    let revenue = optimum.iter().zip(&tolls).map(|(o, t)| o * t).sum();
    Ok(EdgeTolls {
        tolls,
        tolled,
        optimum,
        revenue,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sopt_equilibrium::network;
    use sopt_network::graph::NodeId;
    use sopt_network::instance::{MultiCommodityInstance, NetworkInstance};
    use sopt_network::DiGraph;
    use sopt_solver::frank_wolfe::FwOptions;

    #[test]
    fn pigou_toll_restores_optimum() {
        // Toll on the fast link: τ₁ = o₁·1 = 1/2; the constant link gets 0.
        let links = ParallelLinks::new(vec![LatencyFn::identity(), LatencyFn::constant(1.0)], 1.0);
        let t = marginal_cost_tolls(&links);
        assert!((t.tolls[0] - 0.5).abs() < 1e-9);
        assert!(t.tolls[1].abs() < 1e-12);
        let tolled_nash = t.tolled.nash();
        for (got, want) in tolled_nash.flows().iter().zip(&t.optimum) {
            assert!(
                (got - want).abs() < 1e-7,
                "tolled Nash {got} vs optimum {want}"
            );
        }
        // The *latency* cost at the tolled equilibrium equals C(O).
        assert!((links.cost(tolled_nash.flows()) - 0.75).abs() < 1e-7);
        assert!((t.revenue - 0.25).abs() < 1e-7); // 1/2 flow × 1/2 toll
    }

    #[test]
    fn random_instances_tolled_nash_is_optimum() {
        for seed in 0..10u64 {
            let links = sopt_instances_free::random_mixed_links(5, 1.5, seed);
            let t = marginal_cost_tolls(&links);
            let tolled_nash = t.tolled.nash();
            for (i, (got, want)) in tolled_nash.flows().iter().zip(&t.optimum).enumerate() {
                assert!(
                    (got - want).abs() < 1e-5,
                    "seed {seed} link {i}: tolled Nash {got} vs optimum {want}"
                );
            }
        }
    }

    /// Minimal local generator (sopt-instances depends on this crate's
    /// siblings, not vice versa — avoid the cycle).
    mod sopt_instances_free {
        use super::*;

        pub fn random_mixed_links(m: usize, rate: f64, seed: u64) -> ParallelLinks {
            let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 11) as f64 / (1u64 << 53) as f64
            };
            let lats: Vec<LatencyFn> = (0..m)
                .map(|i| match i % 3 {
                    0 => LatencyFn::affine(0.2 + 2.0 * next(), next()),
                    1 => LatencyFn::monomial(0.3 + next(), 2),
                    _ => LatencyFn::mm1(rate * (1.5 + 2.0 * next())),
                })
                .collect();
            ParallelLinks::new(lats, rate)
        }
    }

    #[test]
    fn braess_tolls_dissolve_the_paradox() {
        let mut g = DiGraph::with_nodes(4);
        g.add_edge(NodeId(0), NodeId(1));
        g.add_edge(NodeId(0), NodeId(2));
        g.add_edge(NodeId(1), NodeId(2));
        g.add_edge(NodeId(1), NodeId(3));
        g.add_edge(NodeId(2), NodeId(3));
        let inst = NetworkInstance::new(
            g,
            vec![
                LatencyFn::identity(),
                LatencyFn::constant(1.0),
                LatencyFn::constant(0.0),
                LatencyFn::constant(1.0),
                LatencyFn::identity(),
            ],
            NodeId(0),
            NodeId(3),
            1.0,
        );
        let opts = FwOptions::default();
        let opt = network::optimum(&inst, &opts, None).unwrap();
        let t = network_tolls(&inst, &opt).unwrap();
        // Tolls τ = o·ℓ': 1/2 on each x-edge, 0 on constants.
        assert!((t.tolls[0] - 0.5).abs() < 1e-5);
        assert!((t.tolls[4] - 0.5).abs() < 1e-5);
        assert!(t.tolls[1].abs() < 1e-9 && t.tolls[2].abs() < 1e-9);
        // The tolled Nash avoids the middle edge, restoring C(O) = 3/2.
        let tolled = inst.routing().with_latencies(&t.tolled);
        let nash = network::nash(tolled, &opts, None).unwrap();
        assert!(nash.flow.0[2].abs() < 1e-5, "{:?}", nash.flow);
        assert!((inst.cost(nash.flow.as_slice()) - 1.5).abs() < 1e-5);
    }

    #[test]
    fn multicommodity_tolled_nash_is_the_optimum() {
        use sopt_network::instance::Commodity;
        // Two commodities sharing a congested middle edge, each with a
        // constant bypass — the untolled Nash overloads the shared edge.
        let mut g = DiGraph::with_nodes(4);
        g.add_edge(NodeId(0), NodeId(2)); // x
        g.add_edge(NodeId(1), NodeId(2)); // x
        g.add_edge(NodeId(2), NodeId(3)); // x (shared)
        g.add_edge(NodeId(0), NodeId(3)); // const 2
        g.add_edge(NodeId(1), NodeId(3)); // const 2
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
        let opts = FwOptions::default();
        let untolled_opt = network::optimum(&inst, &opts, None).unwrap();
        let t = network_tolls(&inst, &untolled_opt).unwrap();
        let tolled = inst.routing().with_latencies(&t.tolled);
        let tolled_nash = network::nash(tolled, &opts, None).unwrap();
        assert!(tolled_nash.converged);
        for (e, (got, want)) in tolled_nash
            .flow
            .as_slice()
            .iter()
            .zip(untolled_opt.flow.as_slice())
            .enumerate()
        {
            assert!(
                (got - want).abs() < 1e-4,
                "edge {e}: tolled Nash {got} vs optimum {want}"
            );
        }
        // The latency cost at the tolled equilibrium equals C(O).
        assert!(
            (inst.cost(tolled_nash.flow.as_slice()) - inst.cost(untolled_opt.flow.as_slice()))
                .abs()
                < 1e-4
        );
        assert!(t.revenue > 0.0);
    }

    #[test]
    fn zero_tolls_when_nash_is_optimal() {
        // Identical links: optimum = Nash; tolls exist but leave flows put.
        let links = ParallelLinks::new(vec![LatencyFn::identity(); 3], 1.5);
        let t = marginal_cost_tolls(&links);
        let tolled_nash = t.tolled.nash();
        for (got, want) in tolled_nash.flows().iter().zip(&t.optimum) {
            assert!((got - want).abs() < 1e-9);
        }
    }
}
