//! Deterministic city-grid networks — the scale workload behind
//! `sopt gen --family grid` and `scale_bench`.
//!
//! A `side × side` lattice of intersections with bidirectional street
//! segments between neighbours: `side²` nodes and `4·side·(side−1)` edges,
//! every edge carrying a BPR latency with seeded free-flow time and
//! capacity. One commodity routes corner to corner (top-left → bottom-right),
//! so the shortest-path structure is rich (exponentially many same-length
//! lattice paths) while the instance stays a single-commodity
//! [`NetworkInstance`] that round-trips through the spec language.
//!
//! The family is the repo's scalable congestion workload: `side = 16`
//! is ~10³ edges, `side = 51` ~10⁴, `side = 159` ~10⁵ — the three rungs
//! `scale_bench` measures.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sopt_latency::LatencyFn;
use sopt_network::graph::{DiGraph, NodeId};
use sopt_network::instance::{Commodity, MultiCommodityInstance, NetworkInstance};

use crate::error::{check_rate, check_shape, InstanceError};

/// Largest admissible `side`: node ids are `u32`, so `side²` must fit
/// (with room for the edge count `4·side·(side−1)` as well).
pub const GRID_SIDE_MAX: usize = 30_000;

/// `(nodes, edges)` of [`try_grid_city`] at `side` — `side²` and
/// `4·side·(side−1)` — without building the graph. Errors exactly when
/// the generator would.
pub fn grid_dims(side: usize) -> Result<(usize, usize), InstanceError> {
    check_shape("side", side, 2)?;
    if side > GRID_SIDE_MAX {
        return Err(InstanceError::TooLarge {
            name: "side",
            value: side,
            max: GRID_SIDE_MAX,
        });
    }
    // side ≤ 30_000 ⇒ side² ≤ 9·10⁸ < u32::MAX and 4·side·(side−1) fits
    // usize on every supported platform; the checks above make the
    // arithmetic below overflow-free.
    Ok((side * side, 4 * side * (side - 1)))
}

/// Deterministic `side × side` city grid with BPR streets and one
/// corner-to-corner demand of `rate`.
///
/// Every neighbouring pair of intersections is joined by one edge per
/// direction. Edge `t0` (free-flow time) is drawn in `[0.5, 2.5]` and
/// capacity in `[0.3, 1.5]·rate` from `seed` (same seed ⇒ identical
/// instance), with `b = 0.15`, `p = 4` — the classic BPR profile, so the
/// instance round-trips through the `bpr:t0,b,c,p` spec grammar.
pub fn try_grid_city(side: usize, rate: f64, seed: u64) -> Result<NetworkInstance, InstanceError> {
    let (n, m) = grid_dims(side)?;
    check_rate(rate)?;
    let node = |i: usize, j: usize| NodeId((i * side + j) as u32);
    let mut g = DiGraph::with_nodes(n);
    let mut lats = Vec::with_capacity(m);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut street = |g: &mut DiGraph, a: NodeId, b: NodeId, rng: &mut StdRng| {
        let t0 = rng.random_range(0.5..2.5);
        let cap = rate * rng.random_range(0.3..1.5);
        g.add_edge(a, b);
        lats.push(LatencyFn::bpr(t0, 0.15, cap, 4));
    };
    for i in 0..side {
        for j in 0..side {
            if j + 1 < side {
                street(&mut g, node(i, j), node(i, j + 1), &mut rng);
                street(&mut g, node(i, j + 1), node(i, j), &mut rng);
            }
            if i + 1 < side {
                street(&mut g, node(i, j), node(i + 1, j), &mut rng);
                street(&mut g, node(i + 1, j), node(i, j), &mut rng);
            }
        }
    }
    debug_assert_eq!(lats.len(), m);
    Ok(NetworkInstance::new(
        g,
        lats,
        node(0, 0),
        node(side - 1, side - 1),
        rate,
    ))
}

/// Most distinct origins a [`try_grid_city_multi`] OD matrix uses: real
/// trip tables concentrate many destinations behind few origin zones, and
/// the origin-grouped AON path is exactly what this family exercises.
pub const GRID_MULTI_MAX_ORIGINS: usize = 16;

/// Deterministic `side × side` city grid carrying a `k`-demand OD matrix.
///
/// The streets are bit-identical to [`try_grid_city`] at the same `(side,
/// rate, seed)` — same RNG stream, same BPR draws. On top of them, `k`
/// commodities share at most [`GRID_MULTI_MAX_ORIGINS`] distinct origins
/// (round-robin, so consecutive commodities alternate origins and
/// origin-grouping has to bucket by value, not by position); each sink is
/// drawn anywhere on the grid away from its origin, and the total demand
/// `rate` splits unevenly (deterministically per seed) across the `k`
/// commodities, mirroring the `multi` family's convention.
pub fn try_grid_city_multi(
    side: usize,
    rate: f64,
    k: usize,
    seed: u64,
) -> Result<MultiCommodityInstance, InstanceError> {
    check_shape("commodities", k, 1)?;
    let base = try_grid_city(side, rate, seed)?;
    let n = base.graph.num_nodes();
    // A fresh, domain-separated stream for the OD matrix keeps the street
    // draws byte-for-byte those of the single-commodity grid.
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6772_6964_5f6f_6473); // "grid_ods"
    let num_origins = k.min(GRID_MULTI_MAX_ORIGINS).min(n - 1);
    let mut origins: Vec<NodeId> = Vec::with_capacity(num_origins);
    while origins.len() < num_origins {
        let cand = NodeId(rng.random_range(0..n as u32));
        if !origins.contains(&cand) {
            origins.push(cand);
        }
    }
    let weights: Vec<f64> = (0..k).map(|_| rng.random_range(0.5..2.0)).collect();
    let total: f64 = weights.iter().sum();
    let commodities = (0..k)
        .map(|i| {
            let source = origins[i % num_origins];
            let sink = loop {
                let cand = NodeId(rng.random_range(0..n as u32));
                if cand != source {
                    break cand;
                }
            };
            Commodity {
                source,
                sink,
                rate: rate * weights[i] / total,
            }
        })
        .collect();
    Ok(MultiCommodityInstance::new(
        base.graph,
        base.latencies,
        commodities,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dims_match_the_closed_form() {
        assert_eq!(grid_dims(2).unwrap(), (4, 8));
        assert_eq!(grid_dims(16).unwrap(), (256, 960));
        assert_eq!(grid_dims(51).unwrap(), (2601, 10_200));
        assert_eq!(grid_dims(159).unwrap(), (25_281, 100_488));
    }

    #[test]
    fn builds_the_advertised_shape() {
        let inst = try_grid_city(4, 1.0, 7).expect("valid generator parameters");
        assert_eq!(inst.graph.num_nodes(), 16);
        assert_eq!(inst.graph.num_edges(), 48);
        assert_eq!(inst.latencies.len(), 48);
        assert_eq!(inst.source, NodeId(0));
        assert_eq!(inst.sink, NodeId(15));
    }

    #[test]
    fn deterministic_in_the_seed() {
        let a = try_grid_city(5, 2.0, 11).expect("valid generator parameters");
        let b = try_grid_city(5, 2.0, 11).expect("valid generator parameters");
        assert_eq!(a.latencies, b.latencies);
        let c = try_grid_city(5, 2.0, 12).expect("valid generator parameters");
        assert_ne!(a.latencies, c.latencies);
    }

    #[test]
    fn multi_reuses_the_streets_and_caps_origins() {
        let single = try_grid_city(5, 3.0, 11).expect("valid generator parameters");
        let multi = try_grid_city_multi(5, 3.0, 40, 11).unwrap();
        // Same seed ⇒ identical street network under the OD matrix.
        assert_eq!(multi.latencies, single.latencies);
        assert_eq!(multi.graph.num_edges(), single.graph.num_edges());
        assert_eq!(multi.commodities.len(), 40);
        let origins: std::collections::HashSet<u32> =
            multi.commodities.iter().map(|c| c.source.0).collect();
        assert!(origins.len() <= GRID_MULTI_MAX_ORIGINS, "{origins:?}");
        assert!(origins.len() > 1, "origins never varied");
        let total: f64 = multi.commodities.iter().map(|c| c.rate).sum();
        assert!((total - 3.0).abs() < 1e-9, "total rate drifted: {total}");
        for c in &multi.commodities {
            assert_ne!(c.source, c.sink);
            assert!(c.rate > 0.0);
        }
        // Deterministic in the seed.
        let again = try_grid_city_multi(5, 3.0, 40, 11).unwrap();
        assert_eq!(multi.commodities, again.commodities);
        let other = try_grid_city_multi(5, 3.0, 40, 12).unwrap();
        assert_ne!(multi.commodities, other.commodities);
    }

    #[test]
    fn multi_invalid_parameters_are_typed() {
        assert_eq!(
            try_grid_city_multi(4, 1.0, 0, 7).unwrap_err(),
            InstanceError::InvalidShape {
                name: "commodities",
                value: 0,
                min: 1,
            }
        );
        assert_eq!(
            try_grid_city_multi(1, 1.0, 4, 7).unwrap_err(),
            InstanceError::InvalidShape {
                name: "side",
                value: 1,
                min: 2,
            }
        );
    }

    #[test]
    fn invalid_parameters_are_typed() {
        assert_eq!(
            try_grid_city(1, 1.0, 0).unwrap_err(),
            InstanceError::InvalidShape {
                name: "side",
                value: 1,
                min: 2,
            }
        );
        assert_eq!(
            try_grid_city(GRID_SIDE_MAX + 1, 1.0, 0).unwrap_err(),
            InstanceError::TooLarge {
                name: "side",
                value: GRID_SIDE_MAX + 1,
                max: GRID_SIDE_MAX,
            }
        );
        assert_eq!(
            try_grid_city(3, 0.0, 0).unwrap_err(),
            InstanceError::InvalidRate { rate: 0.0 }
        );
    }
}
