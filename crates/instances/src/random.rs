//! Random instance generators (deterministic via seeds) for property tests
//! and experiment sweeps.
//!
//! Every family comes in two forms: a `try_*` constructor that validates its
//! shape and rate parameters into a typed [`InstanceError`], and the classic
//! panicking name kept as a thin shim for algorithm-level code built from
//! trusted constants (the same shim pattern as `optop`/`try_optop`).

use crate::error::{check_rate, check_shape, InstanceError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sopt_equilibrium::parallel::ParallelLinks;
use sopt_latency::LatencyFn;
use sopt_network::graph::{DiGraph, NodeId};
use sopt_network::instance::{Commodity, MultiCommodityInstance, NetworkInstance};

/// Random common-slope affine system `ℓ_i = a·x + b_i` (the Theorem 2.4
/// class) with `m` links, slope in `[0.5, 3]`, intercepts in `[0, 2]`.
pub fn try_random_common_slope(
    m: usize,
    rate: f64,
    seed: u64,
) -> Result<ParallelLinks, InstanceError> {
    check_shape("m", m, 1)?;
    check_rate(rate)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let a = rng.random_range(0.5..3.0);
    let mut lats = Vec::with_capacity(m);
    for _ in 0..m {
        let b = rng.random_range(0.0..2.0);
        lats.push(LatencyFn::affine(a, b));
    }
    Ok(ParallelLinks::new(lats, rate))
}

/// Random general affine system (independent slopes and intercepts) — the
/// Roughgarden–Tardos `4/3` class.
pub fn try_random_affine(m: usize, rate: f64, seed: u64) -> Result<ParallelLinks, InstanceError> {
    check_shape("m", m, 1)?;
    check_rate(rate)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut lats = Vec::with_capacity(m);
    for _ in 0..m {
        let a = rng.random_range(0.1..3.0);
        let b = rng.random_range(0.0..2.0);
        lats.push(LatencyFn::affine(a, b));
    }
    Ok(ParallelLinks::new(lats, rate))
}

/// Random M/M/1 system with per-link capacities in `[1.2·r, 3·r]`, so any
/// subset of links keeps the rate feasible. The engine's fleet source for
/// the `mm1` family (every link formats to `mm1:c` in the spec language).
pub fn try_random_mm1(m: usize, rate: f64, seed: u64) -> Result<ParallelLinks, InstanceError> {
    check_shape("m", m, 1)?;
    check_rate(rate)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let lats: Vec<LatencyFn> = (0..m)
        .map(|_| LatencyFn::mm1(rate * rng.random_range(1.2..3.0)))
        .collect();
    Ok(ParallelLinks::new(lats, rate))
}

/// Random mixed standard system with *smooth marginals*: affine, monomial,
/// polynomial, M/M/1 and constant links. Safe for every solver, including
/// network Frank–Wolfe under the SystemOptimum objective (whose duality-gap
/// certificate needs a continuous marginal — see [`try_random_mixed`]).
pub fn try_random_mixed_smooth(
    m: usize,
    rate: f64,
    seed: u64,
) -> Result<ParallelLinks, InstanceError> {
    check_shape("m", m, 1)?;
    check_rate(rate)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut lats: Vec<LatencyFn> = Vec::with_capacity(m);
    for _ in 0..m {
        let kind = rng.random_range(0..5);
        lats.push(match kind {
            0 => LatencyFn::affine(rng.random_range(0.1..3.0), rng.random_range(0.0..1.5)),
            1 => LatencyFn::monomial(rng.random_range(0.2..2.0), rng.random_range(1..4)),
            2 => LatencyFn::polynomial(vec![
                rng.random_range(0.0..1.0),
                rng.random_range(0.1..2.0),
                rng.random_range(0.0..1.0),
            ]),
            3 => LatencyFn::mm1(rate * rng.random_range(1.5..4.0)),
            _ => LatencyFn::constant(rng.random_range(0.2..2.0)),
        });
    }
    if lats.iter().all(|l| matches!(l, LatencyFn::MM1(_))) {
        lats[0] = LatencyFn::affine(1.0, 0.0);
    }
    Ok(ParallelLinks::new(lats, rate))
}

/// Random mixed system restricted to latency families the spec language can
/// format back ([`sopt`-spec representable]: affine, monomial, M/M/1, BPR and
/// constant links — no piecewise kinks, no dense polynomials). This is the
/// `mixed` fleet family of `sopt gen`: every generated instance survives the
/// `to_spec` → `parse` round trip, so batch files and engine cache
/// fingerprints cover it.
pub fn try_random_spec_mixed(
    m: usize,
    rate: f64,
    seed: u64,
) -> Result<ParallelLinks, InstanceError> {
    check_shape("m", m, 1)?;
    check_rate(rate)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut lats: Vec<LatencyFn> = Vec::with_capacity(m);
    for _ in 0..m {
        let kind = rng.random_range(0..5);
        lats.push(match kind {
            0 => LatencyFn::affine(rng.random_range(0.1..3.0), rng.random_range(0.0..1.5)),
            1 => LatencyFn::monomial(rng.random_range(0.2..2.0), rng.random_range(2..4)),
            2 => LatencyFn::mm1(rate * rng.random_range(1.5..4.0)),
            3 => LatencyFn::bpr(
                rng.random_range(0.2..1.5),
                rng.random_range(0.1..0.5),
                rate * rng.random_range(0.8..2.0),
                rng.random_range(2..5),
            ),
            _ => LatencyFn::constant(rng.random_range(0.2..2.0)),
        });
    }
    if lats.iter().all(|l| matches!(l, LatencyFn::MM1(_))) {
        lats[0] = LatencyFn::affine(1.0, 0.0);
    }
    Ok(ParallelLinks::new(lats, rate))
}

/// Random mixed standard system: affine, monomial, polynomial, M/M/1,
/// piecewise-linear and constant links, capacity-checked to keep the rate
/// feasible.
///
/// Piecewise-linear latencies have *kinked marginal costs*: the parallel-link
/// equalizer handles them exactly, but the network Frank–Wolfe
/// `SystemOptimum` gap certificate cannot reach tight tolerances when the
/// optimum sits on a kink (the subgradient is set-valued there) — use
/// [`try_random_mixed_smooth`] for network-optimum workloads.
pub fn try_random_mixed(m: usize, rate: f64, seed: u64) -> Result<ParallelLinks, InstanceError> {
    check_shape("m", m, 1)?;
    check_rate(rate)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut lats: Vec<LatencyFn> = Vec::with_capacity(m);
    for _ in 0..m {
        let kind = rng.random_range(0..6);
        lats.push(match kind {
            0 => LatencyFn::affine(rng.random_range(0.1..3.0), rng.random_range(0.0..1.5)),
            1 => LatencyFn::monomial(rng.random_range(0.2..2.0), rng.random_range(1..4)),
            2 => LatencyFn::polynomial(vec![
                rng.random_range(0.0..1.0),
                rng.random_range(0.1..2.0),
                rng.random_range(0.0..1.0),
            ]),
            // Oversized capacity keeps mixtures feasible for the given rate.
            3 => LatencyFn::mm1(rate * rng.random_range(1.5..4.0)),
            4 => {
                // Convex piecewise-linear with two kinks.
                let b = rng.random_range(0.0..1.0);
                let a0 = rng.random_range(0.1..1.0);
                let a1 = a0 + rng.random_range(0.0..2.0);
                let a2 = a1 + rng.random_range(0.0..3.0);
                let x1 = rng.random_range(0.1..0.6) * rate;
                let x2 = x1 + rng.random_range(0.1..0.6) * rate;
                LatencyFn::piecewise(b, &[(0.0, a0), (x1, a1), (x2, a2)])
            }
            _ => LatencyFn::constant(rng.random_range(0.2..2.0)),
        });
    }
    // Ensure at least one unbounded-capacity link so any rate is feasible.
    if lats.iter().all(|l| matches!(l, LatencyFn::MM1(_))) {
        lats[0] = LatencyFn::affine(1.0, 0.0);
    }
    Ok(ParallelLinks::new(lats, rate))
}

/// A random layered DAG `s → layer₁ → … → layer_L → t` with affine
/// latencies and a few skip edges: the MOP workload.
pub fn try_random_layered_network(
    layers: usize,
    width: usize,
    rate: f64,
    seed: u64,
) -> Result<NetworkInstance, InstanceError> {
    check_shape("layers", layers, 1)?;
    check_shape("width", width, 1)?;
    check_rate(rate)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let n = 2 + layers * width;
    let mut g = DiGraph::with_nodes(n);
    let mut lats = Vec::new();
    let node = |layer: usize, i: usize| NodeId((2 + (layer - 1) * width + i) as u32);
    let s = NodeId(0);
    let t = NodeId(1);
    let rand_affine = |rng: &mut StdRng| {
        LatencyFn::affine(rng.random_range(0.2..2.0), rng.random_range(0.0..1.0))
    };
    // s → first layer.
    for i in 0..width {
        g.add_edge(s, node(1, i));
        lats.push(rand_affine(&mut rng));
    }
    // layer k → layer k+1 (dense-ish random bipartite, plus a guaranteed
    // perfect matching for connectivity).
    for l in 1..layers {
        for i in 0..width {
            g.add_edge(node(l, i), node(l + 1, i));
            lats.push(rand_affine(&mut rng));
            for j in 0..width {
                if j != i && rng.random_bool(0.3) {
                    g.add_edge(node(l, i), node(l + 1, j));
                    lats.push(rand_affine(&mut rng));
                }
            }
        }
    }
    // last layer → t.
    for i in 0..width {
        g.add_edge(node(layers, i), t);
        lats.push(rand_affine(&mut rng));
    }
    Ok(NetworkInstance::new(g, lats, s, t, rate))
}

/// Random k-commodity instance over a shared layered core: `layers × width`
/// interior nodes with random affine latencies (a guaranteed per-column
/// matching plus random shortcuts), one private source and sink per
/// commodity, each wired to *every* first/last-layer node — so all demands
/// are reachable and all commodities contend for the same middle edges.
/// Total demand `rate` splits unevenly (deterministically per seed) across
/// the `k` commodities.
pub fn try_random_multicommodity(
    layers: usize,
    width: usize,
    k: usize,
    rate: f64,
    seed: u64,
) -> Result<MultiCommodityInstance, InstanceError> {
    check_shape("layers", layers, 1)?;
    check_shape("width", width, 1)?;
    check_shape("commodities", k, 1)?;
    check_rate(rate)?;
    let mut rng = StdRng::seed_from_u64(seed);
    // Node layout: k sources, k sinks, then the layered core.
    let n = 2 * k + layers * width;
    let mut g = DiGraph::with_nodes(n);
    let mut lats = Vec::new();
    let source = |i: usize| NodeId(i as u32);
    let sink = |i: usize| NodeId((k + i) as u32);
    let node = |layer: usize, j: usize| NodeId((2 * k + (layer - 1) * width + j) as u32);
    let rand_affine = |rng: &mut StdRng| {
        LatencyFn::affine(rng.random_range(0.2..2.0), rng.random_range(0.0..1.0))
    };
    // Every source reaches every first-layer node.
    for i in 0..k {
        for j in 0..width {
            g.add_edge(source(i), node(1, j));
            lats.push(rand_affine(&mut rng));
        }
    }
    // The shared layered core.
    for l in 1..layers {
        for a in 0..width {
            g.add_edge(node(l, a), node(l + 1, a));
            lats.push(rand_affine(&mut rng));
            for b in 0..width {
                if b != a && rng.random_bool(0.3) {
                    g.add_edge(node(l, a), node(l + 1, b));
                    lats.push(rand_affine(&mut rng));
                }
            }
        }
    }
    // Every last-layer node reaches every sink.
    for j in 0..width {
        for i in 0..k {
            g.add_edge(node(layers, j), sink(i));
            lats.push(rand_affine(&mut rng));
        }
    }
    // Uneven per-commodity demands summing to `rate`.
    let weights: Vec<f64> = (0..k).map(|_| rng.random_range(0.5..2.0)).collect();
    let total: f64 = weights.iter().sum();
    let commodities = (0..k)
        .map(|i| Commodity {
            source: source(i),
            sink: sink(i),
            rate: rate * weights[i] / total,
        })
        .collect();
    Ok(MultiCommodityInstance::new(g, lats, commodities))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sopt_latency::Latency;

    #[test]
    fn generators_are_deterministic() {
        let a = try_random_common_slope(5, 1.0, 42).expect("valid generator parameters");
        let b = try_random_common_slope(5, 1.0, 42).expect("valid generator parameters");
        for i in 0..5 {
            assert_eq!(a.latencies()[i], b.latencies()[i]);
        }
        let c = try_random_common_slope(5, 1.0, 43).expect("valid generator parameters");
        assert!((0..5).any(|i| a.latencies()[i] != c.latencies()[i]));
    }

    #[test]
    fn common_slope_extractable() {
        let links = try_random_common_slope(8, 2.0, 7).expect("valid generator parameters");
        let slopes: Vec<f64> = links
            .latencies()
            .iter()
            .map(|l| match l {
                LatencyFn::Affine(a) => a.a,
                _ => panic!("not affine"),
            })
            .collect();
        assert!(slopes.windows(2).all(|w| (w[0] - w[1]).abs() < 1e-12));
    }

    #[test]
    fn mixed_instances_are_feasible() {
        for seed in 0..20 {
            let links = try_random_mixed(6, 1.5, seed).expect("valid generator parameters");
            let n = links.try_nash().expect("feasible");
            let o = links.try_optimum().expect("feasible");
            let sn: f64 = n.flows().iter().sum();
            let so: f64 = o.flows().iter().sum();
            assert!((sn - 1.5).abs() < 1e-7, "seed {seed}");
            assert!((so - 1.5).abs() < 1e-7, "seed {seed}");
        }
    }

    #[test]
    fn mm1_instances_are_feasible() {
        for seed in 0..20 {
            let links = try_random_mm1(4, 2.0, seed).expect("valid generator parameters");
            let n = links.try_nash().expect("feasible");
            assert!(
                (n.flows().iter().sum::<f64>() - 2.0).abs() < 1e-7,
                "seed {seed}"
            );
        }
    }

    #[test]
    fn bad_parameters_are_typed_errors() {
        assert_eq!(
            try_random_affine(0, 1.0, 7).unwrap_err(),
            InstanceError::InvalidShape {
                name: "m",
                value: 0,
                min: 1
            }
        );
        assert_eq!(
            try_random_common_slope(3, 0.0, 7).unwrap_err(),
            InstanceError::InvalidRate { rate: 0.0 }
        );
        assert!(matches!(
            try_random_mixed(2, f64::NAN, 7).unwrap_err(),
            InstanceError::InvalidRate { .. }
        ));
        assert_eq!(
            try_random_layered_network(0, 3, 1.0, 7).unwrap_err(),
            InstanceError::InvalidShape {
                name: "layers",
                value: 0,
                min: 1
            }
        );
        assert_eq!(
            try_random_layered_network(3, 0, 1.0, 7).unwrap_err(),
            InstanceError::InvalidShape {
                name: "width",
                value: 0,
                min: 1
            }
        );
        assert!(try_random_mm1(1, -1.0, 7).is_err());
        assert!(try_random_spec_mixed(0, 1.0, 7).is_err());
    }

    #[test]
    fn layered_network_well_formed() {
        let inst = try_random_layered_network(3, 3, 2.0, 11).expect("valid generator parameters");
        assert_eq!(inst.latencies.len(), inst.graph.num_edges());
        // t reachable from s.
        let costs: Vec<f64> = inst.latencies.iter().map(|l| l.value(0.0)).collect();
        let mut sp = sopt_network::SpWorkspace::new();
        sp.dijkstra(&sopt_network::Csr::new(&inst.graph), &costs, inst.source);
        assert!(sp.reached(inst.sink));
    }
}
