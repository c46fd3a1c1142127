//! Braess-type 4-node instances: the classic paradox graph, the paper's
//! Fig. 7 instance, and Roughgarden's Example 6.5.1 family behind the
//! negative result for s–t networks.
//!
//! Topology (shared by all three): nodes `s=0, v=1, w=2, t=3`; edges
//! `e0: s→v`, `e1: s→w`, `e2: v→w`, `e3: v→t`, `e4: w→t`; rate `1`.

use sopt_latency::LatencyFn;
use sopt_network::graph::{DiGraph, NodeId};
use sopt_network::instance::NetworkInstance;

/// Build the 4-node Braess topology with the given edge latencies
/// (order: s→v, s→w, v→w, v→t, w→t).
pub fn braess_topology(latencies: [LatencyFn; 5], rate: f64) -> NetworkInstance {
    let mut g = DiGraph::with_nodes(4);
    g.add_edge(NodeId(0), NodeId(1));
    g.add_edge(NodeId(0), NodeId(2));
    g.add_edge(NodeId(1), NodeId(2));
    g.add_edge(NodeId(1), NodeId(3));
    g.add_edge(NodeId(2), NodeId(3));
    NetworkInstance::new(g, latencies.into(), NodeId(0), NodeId(3), rate)
}

/// The classic Braess paradox graph: `x, 1, 0, 1, x`, `r = 1`.
/// `C(N) = 2` (everyone on `s→v→w→t`), `C(O) = 3/2` (split on the outer
/// paths), coordination ratio `4/3`.
pub fn braess_classic() -> NetworkInstance {
    braess_topology(
        [
            LatencyFn::identity(),
            LatencyFn::constant(1.0),
            LatencyFn::constant(0.0),
            LatencyFn::constant(1.0),
            LatencyFn::identity(),
        ],
        1.0,
    )
}

/// The paper's **Fig. 7** instance, in the affine form derived in DESIGN.md:
/// `ℓ_sv = ℓ_wt = x`, `ℓ_sw = ℓ_vt = x + 1 − 4ε`, `ℓ_vw ≡ 0`, `r = 1`,
/// with `0 ≤ ε < 1/4`.
///
/// Its *unique* optimum is exactly the flows the paper prints:
/// `o = (3/4−ε, 1/4+ε, 1/2−2ε, 1/4+ε, 3/4−ε)` — KKT check: all three paths
/// carry marginal cost `3 − 4ε`. Under the optimal costs the middle path
/// `s→v→w→t` (cost `3/2−2ε`) is the unique shortest path, carrying flow
/// `1/2−2ε`; hence MOP's `β_G = (r − O_{P₀})/r = 1/2 + 2ε` (Fig. 7(d)).
pub fn fig7_instance(eps: f64) -> NetworkInstance {
    assert!((0.0..0.25).contains(&eps), "Fig. 7 requires 0 ≤ ε < 1/4");
    let side = LatencyFn::affine(1.0, 1.0 - 4.0 * eps);
    braess_topology(
        [
            LatencyFn::identity(),
            side.clone(),
            LatencyFn::constant(0.0),
            side,
            LatencyFn::identity(),
        ],
        1.0,
    )
}

/// Closed-form ground truth for [`fig7_instance`].
#[derive(Clone, Copy, Debug)]
pub struct Fig7Expected {
    /// Optimal edge flows (Fig. 7(a)).
    pub optimum: [f64; 5],
    /// Flow of the shortest path `s→v→w→t` under optimal costs (Fig. 7(b)).
    pub shortest_path_flow: f64,
    /// The price of optimum `β_G = 1/2 + 2ε` (Fig. 7(d)).
    pub beta: f64,
    /// `C(O) = 2(3/4−ε)² + 2(1/4+ε)(5/4−3ε)`.
    pub optimum_cost: f64,
    /// `C(N) = 2 − 4ε` (Nash splits between the middle path and the sides).
    pub nash_cost: f64,
}

/// The expected Fig. 7 values for a given `ε`.
pub fn fig7_expected(eps: f64) -> Fig7Expected {
    let o_side = 0.75 - eps;
    let o_cross = 0.25 + eps;
    let o_mid = 0.5 - 2.0 * eps;
    Fig7Expected {
        optimum: [o_side, o_cross, o_mid, o_cross, o_side],
        shortest_path_flow: o_mid,
        beta: 0.5 + 2.0 * eps,
        optimum_cost: 2.0 * o_side * o_side + 2.0 * o_cross * (1.25 - 3.0 * eps),
        nash_cost: 2.0 - 4.0 * eps,
    }
}

/// Roughgarden's **Example 6.5.1** family: `ℓ_sv = ℓ_wt = x^k`,
/// `ℓ_sw = ℓ_vt ≡ 1`, `ℓ_vw ≡ 0`, `r = 1`.
///
/// Every follower weakly prefers the middle path (its latency
/// `f_sv^k + f_wt^k` never exceeds an outer path's `f^k + 1`), so no
/// Stackelberg strategy controlling a portion `α < 1` prevents the
/// `x^k`-edges from carrying all follower flow; meanwhile
/// `C(O) = Θ(ln k / k) → 0`. Hence the induced-cost/optimum ratio of the
/// best strategy grows without bound in `k` — no `1/α`-style guarantee can
/// exist on s–t nets (paper §1.1(ii)). Experiment E5 sweeps this family.
pub fn roughgarden_651(k: u32) -> NetworkInstance {
    assert!(k >= 1);
    braess_topology(
        [
            LatencyFn::monomial(1.0, k),
            LatencyFn::constant(1.0),
            LatencyFn::constant(0.0),
            LatencyFn::constant(1.0),
            LatencyFn::monomial(1.0, k),
        ],
        1.0,
    )
}

/// Closed-form optimum cost of [`roughgarden_651`]: routing `1 − 2y` on the
/// middle and `y` on each side, cost `g(y) = 2(1−y)^{k+1} + 2y`, minimised
/// at `y* = 1 − (k+1)^{−1/k}`.
pub fn roughgarden_651_optimum_cost(k: u32) -> f64 {
    let kf = k as f64;
    let y = 1.0 - (kf + 1.0).powf(-1.0 / kf);
    2.0 * (1.0 - y).powf(kf + 1.0) + 2.0 * y
}

#[cfg(test)]
mod tests {
    use super::*;
    use sopt_equilibrium::network;
    use sopt_solver::frank_wolfe::FwOptions;

    #[test]
    fn classic_costs() {
        let inst = braess_classic();
        let opts = FwOptions::default();
        let n = network::nash(&inst, &opts, None).unwrap();
        let o = network::optimum(&inst, &opts, None).unwrap();
        assert!((inst.cost(n.flow.as_slice()) - 2.0).abs() < 1e-6);
        assert!((inst.cost(o.flow.as_slice()) - 1.5).abs() < 1e-6);
    }

    #[test]
    fn fig7_optimum_matches_closed_form() {
        for &eps in &[0.0, 0.05, 0.2] {
            let inst = fig7_instance(eps);
            let e = fig7_expected(eps);
            let o = network::optimum(&inst, &FwOptions::default(), None).unwrap();
            for i in 0..5 {
                assert!(
                    (o.flow.0[i] - e.optimum[i]).abs() < 1e-5,
                    "ε={eps}, edge {i}: {} ≠ {}",
                    o.flow.0[i],
                    e.optimum[i]
                );
            }
            assert!((inst.cost(o.flow.as_slice()) - e.optimum_cost).abs() < 1e-6);
        }
    }

    #[test]
    fn fig7_nash_cost_closed_form() {
        for &eps in &[0.01, 0.1] {
            let inst = fig7_instance(eps);
            let n = network::nash(&inst, &FwOptions::default(), None).unwrap();
            let e = fig7_expected(eps);
            assert!(
                (inst.cost(n.flow.as_slice()) - e.nash_cost).abs() < 1e-5,
                "ε={eps}: C(N) = {} ≠ {}",
                inst.cost(n.flow.as_slice()),
                e.nash_cost
            );
        }
    }

    #[test]
    #[should_panic(expected = "1/4")]
    fn fig7_eps_range_checked() {
        let _ = fig7_instance(0.3);
    }

    #[test]
    fn ex651_nash_is_all_middle() {
        for &k in &[1u32, 4, 8] {
            let inst = roughgarden_651(k);
            let n = network::nash(&inst, &FwOptions::default(), None).unwrap();
            // Middle edge carries everything: C(N) = 2.
            assert!((n.flow.0[2] - 1.0).abs() < 1e-5, "k={k}: {:?}", n.flow);
            assert!((inst.cost(n.flow.as_slice()) - 2.0).abs() < 1e-5);
        }
    }

    #[test]
    fn ex651_optimum_cost_shrinks_with_k() {
        let mut prev = f64::INFINITY;
        for &k in &[1u32, 2, 4, 8, 16] {
            let inst = roughgarden_651(k);
            let o = network::optimum(&inst, &FwOptions::default(), None).unwrap();
            let measured = inst.cost(o.flow.as_slice());
            let closed = roughgarden_651_optimum_cost(k);
            assert!(
                (measured - closed).abs() < 1e-4,
                "k={k}: measured {measured} vs closed form {closed}"
            );
            assert!(measured < prev, "C(O) must strictly decrease in k");
            prev = measured;
        }
    }

    #[test]
    fn ex651_k8_flows_resemble_fig7_numbers() {
        // The Fig. 7 flow pattern (3/4−ε, 1/4+ε, 1/2−2ε, …) matches the
        // x^k family at k = 8 with ε ≈ 0.01 (see DESIGN.md).
        let inst = roughgarden_651(8);
        let o = network::optimum(&inst, &FwOptions::default(), None).unwrap();
        assert!((o.flow.0[0] - 0.75).abs() < 0.05, "{:?}", o.flow);
        assert!((o.flow.0[2] - 0.5).abs() < 0.1, "{:?}", o.flow);
    }
}
