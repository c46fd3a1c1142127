//! E12 — the structure theorems as randomized invariants (Prop 7.1,
//! Thm 7.2, Thm 7.4/Lemma 7.5) plus the OpTop end-to-end certificate.

use sopt_core::optop::optop;
use sopt_core::theorems::{
    frozen_induced_flow, monotonicity_violation, useless_strategy_deviation,
};
use sopt_instances::random::try_random_mixed;
use sopt_solver::sweep::par_map;

use crate::table::{f, Table};

/// E12: randomized invariant sweep — violations must be zero.
pub fn e12_invariants() {
    println!("\n=== E12: structure-theorem invariants (Prop 7.1, Thm 7.2, Thm 7.4/L 7.5) ===");
    let seeds: Vec<u64> = (0..400).collect();
    const TOL: f64 = 1e-6;

    // Prop 7.1: Nash monotonicity in the rate.
    let mono = par_map(&seeds, |&s| {
        let links = try_random_mixed(5, 2.0, s).expect("valid generator parameters");
        let r_small = 0.2 + (s % 9) as f64 * 0.2;
        monotonicity_violation(links.latencies(), r_small.min(2.0), 2.0)
    });
    let mono_viol = mono.iter().filter(|v| **v > TOL).count();
    let mono_max = mono.iter().cloned().fold(f64::NEG_INFINITY, f64::max);

    // Thm 7.2: sub-Nash strategies are invisible.
    let useless = par_map(&seeds, |&s| {
        let links = try_random_mixed(4, 1.0, s).expect("valid generator parameters");
        let frac = (s % 10) as f64 / 10.0;
        let strat: Vec<f64> = links.nash().flows().iter().map(|n| n * frac).collect();
        useless_strategy_deviation(&links, &strat)
    });
    let useless_viol = useless.iter().filter(|v| **v > TOL).count();
    let useless_max = useless.iter().cloned().fold(f64::NEG_INFINITY, f64::max);

    // Thm 7.4 / L 7.5: frozen links get nothing.
    let frozen = par_map(&seeds, |&s| {
        let links = try_random_mixed(4, 1.0, s).expect("valid generator parameters");
        let nash = links.nash().flows().to_vec();
        let k = (s % 4) as usize;
        let bump = (s % 7) as f64 * 0.04;
        let mut strat = vec![0.0; 4];
        strat[k] = (nash[k] + bump).min(links.rate());
        match links.try_induced(&strat) {
            Ok(_) => frozen_induced_flow(&links, &strat),
            Err(_) => 0.0, // capacity-infeasible probe: skip
        }
    });
    let frozen_viol = frozen.iter().filter(|v| **v > TOL).count();
    let frozen_max = frozen.iter().cloned().fold(f64::NEG_INFINITY, f64::max);

    // Corollary 2.2 end-to-end: OpTop enforces C(O).
    let optop_dev = par_map(&seeds, |&s| {
        let links = try_random_mixed(5, 1.5, s).expect("valid generator parameters");
        let r = optop(&links);
        let c = links.induced_cost(&r.strategy);
        (c - r.optimum_cost).abs() / r.optimum_cost.max(1e-12)
    });
    let optop_viol = optop_dev.iter().filter(|v| **v > 1e-5).count();
    let optop_max = optop_dev.iter().cloned().fold(f64::NEG_INFINITY, f64::max);

    let mut t = Table::new(["invariant", "trials", "violations", "max deviation"]);
    t.row([
        "Prop 7.1 monotonicity (n'_i ≤ n_i)".to_string(),
        seeds.len().to_string(),
        mono_viol.to_string(),
        f(mono_max.max(0.0)),
    ]);
    t.row([
        "Thm 7.2 useless strategies (S+T ≡ N)".to_string(),
        seeds.len().to_string(),
        useless_viol.to_string(),
        f(useless_max.max(0.0)),
    ]);
    t.row([
        "Thm 7.4/L7.5 frozen links (t_j = 0)".to_string(),
        seeds.len().to_string(),
        frozen_viol.to_string(),
        f(frozen_max.max(0.0)),
    ]);
    t.row([
        "Cor 2.2 OpTop enforces C(O)".to_string(),
        seeds.len().to_string(),
        optop_viol.to_string(),
        f(optop_max.max(0.0)),
    ]);
    t.print();
    assert_eq!(mono_viol + useless_viol + frozen_viol + optop_viol, 0);
}
