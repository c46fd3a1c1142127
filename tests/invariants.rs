//! Property-based integration tests: the paper's structure theorems and
//! bounds as invariants over randomized instances (Experiment E12's
//! mechanical core).

use proptest::prelude::*;
use stackopt::core::optop::optop;
use stackopt::core::theorems::{
    frozen_induced_flow, monotonicity_violation, useless_strategy_deviation,
};
use stackopt::equilibrium::certify::certify_parallel;
use stackopt::equilibrium::cost::coordination_ratio;
use stackopt::instances::random::{try_random_affine, try_random_mixed};
use stackopt::solver::objective::CostModel;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Proposition 7.1: Nash link loads are monotone in the total rate.
    #[test]
    fn prop_7_1_monotonicity(seed in 0u64..5000, r1 in 0.05..2.0f64, r2 in 0.05..2.0f64) {
        let (lo, hi) = if r1 <= r2 { (r1, r2) } else { (r2, r1) };
        let links = try_random_mixed(5, hi, seed).expect("valid generator parameters");
        let v = monotonicity_violation(links.latencies(), lo, hi);
        prop_assert!(v <= 1e-6, "violation {v}");
    }

    /// Theorem 7.2: strategies below the Nash profile change nothing.
    #[test]
    fn thm_7_2_useless_strategies(seed in 0u64..5000, frac in 0.0..1.0f64) {
        let links = try_random_mixed(4, 1.0, seed).expect("valid generator parameters");
        let nash = links.nash().flows().to_vec();
        let s: Vec<f64> = nash.iter().map(|n| n * frac).collect();
        let dev = useless_strategy_deviation(&links, &s);
        prop_assert!(dev <= 1e-6, "S+T deviates from N by {dev}");
    }

    /// Theorem 7.4 / Lemma 7.5: frozen links get no induced flow.
    #[test]
    fn thm_7_4_frozen_links(seed in 0u64..5000, bump in 0.0..0.3f64, k in 0usize..4) {
        let links = try_random_mixed(4, 1.0, seed).expect("valid generator parameters");
        let nash = links.nash().flows().to_vec();
        // Freeze link k at its Nash load plus a bump (capped by the budget).
        let mut s = vec![0.0; 4];
        s[k] = (nash[k] + bump).min(links.rate());
        if let Ok(cap_ok) = links.try_induced(&s) {
            let _ = cap_ok;
            let t = frozen_induced_flow(&links, &s);
            prop_assert!(t <= 1e-6, "frozen link received {t}");
        }
    }

    /// Expression (1) for linear latencies: the coordination ratio never
    /// exceeds 4/3 (Roughgarden–Tardos; Pigou attains it).
    #[test]
    fn linear_poa_bounded_by_four_thirds(seed in 0u64..5000, rate in 0.1..3.0f64) {
        let links = try_random_affine(5, rate, seed).expect("valid generator parameters");
        let cn = links.cost(links.nash().flows());
        let co = links.cost(links.optimum().flows());
        let ratio = coordination_ratio(cn, co);
        prop_assert!(ratio <= 4.0 / 3.0 + 1e-6, "PoA {ratio}");
        prop_assert!(ratio >= 1.0 - 1e-9);
    }

    /// Corollary 2.2 end-to-end: OpTop's strategy always induces the
    /// optimum, certified against the KKT conditions, and β ∈ [0, 1].
    #[test]
    fn optop_enforces_optimum(seed in 0u64..5000, rate in 0.2..2.0f64) {
        let links = try_random_mixed(5, rate, seed).expect("valid generator parameters");
        let r = optop(&links);
        prop_assert!((0.0..=1.0 + 1e-9).contains(&r.beta));
        let ind = links.induced(&r.strategy);
        let c = links.cost(&ind.total);
        prop_assert!((c - r.optimum_cost).abs() <= 1e-5 * r.optimum_cost.max(1.0),
            "induced {c} vs C(O) {}", r.optimum_cost);
        // Certify optimality of the induced total flow.
        let cert = certify_parallel(links.latencies(), &ind.total, rate,
            CostModel::SystemOptimum, 1e-4);
        prop_assert!(cert.is_ok(), "{cert:?}");
    }

    /// The equalizer's equilibria satisfy their defining certificates.
    #[test]
    fn equilibria_certified(seed in 0u64..5000, rate in 0.1..2.5f64) {
        let links = try_random_mixed(6, rate, seed).expect("valid generator parameters");
        let n = links.nash();
        let o = links.optimum();
        prop_assert!(certify_parallel(links.latencies(), n.flows(), rate,
            CostModel::Wardrop, 1e-6).is_ok());
        prop_assert!(certify_parallel(links.latencies(), o.flows(), rate,
            CostModel::SystemOptimum, 1e-6).is_ok());
        // And C(O) ≤ C(N).
        prop_assert!(links.cost(o.flows()) <= links.cost(n.flows()) + 1e-9);
    }

    /// Scaling OpTop's strategy by γ < 1 can never do better than the full
    /// strategy (minimality flavour of Corollary 2.2 along this ray).
    #[test]
    fn optop_ray_monotone(seed in 0u64..5000, gamma in 0.0..1.0f64) {
        let links = try_random_mixed(4, 1.0, seed).expect("valid generator parameters");
        let r = optop(&links);
        let scaled: Vec<f64> = r.strategy.iter().map(|s| s * gamma).collect();
        let c = links.induced_cost(&scaled);
        prop_assert!(c >= r.optimum_cost - 1e-7, "scaled OpTop beat C(O): {c}");
    }
}
