//! E6, E7, E13 — the hard side `α < β_M`: Theorem 2.4 vs brute force,
//! minimality of `β_M`, and the improvement threshold.

use sopt_core::brute::{brute_force_optimal, BruteOptions};
use sopt_core::linear_optimal::linear_optimal_strategy;
use sopt_core::optop::optop;
use sopt_core::threshold::{empirical_improvement_threshold, improvement_threshold_lower_bound};
use sopt_equilibrium::parallel::ParallelLinks;
use sopt_instances::fig4::fig4_links;
use sopt_instances::hard::random_weight_instance;
use sopt_instances::pigou::pigou_links;
use sopt_instances::random::try_random_common_slope;
use sopt_solver::sweep::par_map;

use crate::table::{f, Table};

/// E6 — Theorem 2.4's polynomial algorithm matches brute force.
pub fn e6_theorem24_vs_brute() {
    println!("\n=== E6: Theorem 2.4 (poly-time optimal strategy) vs brute force ===");
    let mut points = Vec::new();
    for m in [2usize, 3] {
        for seed in 0..6u64 {
            for alpha in [0.1, 0.25, 0.4, 0.6] {
                points.push((m, seed, alpha));
            }
        }
    }
    let rows = par_map(&points, |&(m, seed, alpha)| {
        let links = try_random_common_slope(m, 1.0, seed * 1000 + m as u64)
            .expect("valid generator parameters");
        let exact = linear_optimal_strategy(&links, alpha);
        let (_, brute) = brute_force_optimal(&links, alpha, &BruteOptions::default());
        (m, seed, alpha, exact.cost, brute, exact.beta)
    });
    let mut worst_excess = f64::NEG_INFINITY; // exact − brute (≤ 0 expected)
    let mut hard_points = 0usize;
    for &(_, _, alpha, exact, brute, beta) in &rows {
        worst_excess = worst_excess.max(exact - brute);
        if alpha < beta {
            hard_points += 1;
        }
    }
    let mut t = Table::new([
        "points",
        "hard-side points",
        "worst exact − brute",
        "verdict",
    ]);
    t.row([
        rows.len().to_string(),
        hard_points.to_string(),
        format!("{worst_excess:.2e}"),
        if worst_excess <= 1e-5 {
            "Theorem 2.4 optimal".to_string()
        } else {
            "MISMATCH".into()
        },
    ]);
    t.print();
    assert!(
        worst_excess <= 1e-5,
        "Theorem 2.4 lost to brute force by {worst_excess}"
    );
    assert!(hard_points > 0);

    // The knapsack-flavoured family specifically.
    let mut worst = f64::NEG_INFINITY;
    for seed in 0..6u64 {
        let links = random_weight_instance(3, 10, seed);
        for &alpha in &[0.15, 0.3] {
            let exact = linear_optimal_strategy(&links, alpha);
            let (_, brute) = brute_force_optimal(&links, alpha, &BruteOptions::default());
            worst = worst.max(exact.cost - brute);
        }
    }
    println!("weight-encoded (knapsack-flavoured) family: worst exact − brute = {worst:.2e}");
    assert!(worst <= 1e-5);
}

/// E7 — minimality of β_M: exactly at β the optimum is enforceable, just
/// below it the best strategy strictly misses C(O).
pub fn e7_beta_minimality() {
    println!("\n=== E7: minimality of the price of optimum β_M ===");
    let mut t = Table::new([
        "instance",
        "β_M",
        "best(0.75β)/C(O)",
        "best(0.9β)/C(O)",
        "best(β)/C(O)",
    ]);
    let common: Vec<(String, ParallelLinks)> = vec![
        ("pigou".into(), pigou_links()),
        ("fig4".into(), fig4_links()),
        (
            "common-slope m=3 #1".into(),
            try_random_common_slope(3, 1.0, 17).expect("valid generator parameters"),
        ),
        (
            "common-slope m=4 #2".into(),
            try_random_common_slope(4, 1.0, 99).expect("valid generator parameters"),
        ),
    ];
    for (name, links) in &common {
        let ot = optop(links);
        let best_at = |alpha: f64| -> f64 {
            // Use the exact algorithm where applicable, else brute force.
            let all_affine_common = links.latencies().iter().all(|l| {
                matches!(l, sopt_latency::LatencyFn::Affine(a)
                if {
                    let first = links.latencies().iter().find_map(|x| match x {
                        sopt_latency::LatencyFn::Affine(y) => Some(y.a),
                        _ => None,
                    }).unwrap_or(a.a);
                    (a.a - first).abs() < 1e-12
                })
            });
            if all_affine_common {
                linear_optimal_strategy(links, alpha).cost
            } else {
                brute_force_optimal(links, alpha, &BruteOptions::default()).1
            }
        };
        let co = ot.optimum_cost;
        let r75 = best_at(0.75 * ot.beta) / co;
        let r90 = best_at(0.90 * ot.beta) / co;
        let r100 = best_at(ot.beta) / co;
        t.row([name.clone(), f(ot.beta), f(r75), f(r90), f(r100)]);
        assert!(
            r100 < 1.0 + 1e-4,
            "{name}: at β the optimum must be enforced"
        );
        if ot.beta > 1e-9 && ot.nash_cost > co * (1.0 + 1e-6) {
            assert!(
                r90 > 1.0 + 1e-7,
                "{name}: below β the optimum must be unreachable"
            );
        }
    }
    t.print();
    println!("(ratios strictly above 1 below β, exactly 1 from β on — Corollary 2.2)");
}

/// E13 — the improvement threshold (footnote 6 / Sharma–Williamson).
pub fn e13_threshold() {
    println!("\n=== E13: improvement thresholds (footnote 6, [43]) ===");
    let mut t = Table::new([
        "instance",
        "lower bound min{n_i<o_i}/r",
        "empirical threshold",
        "consistent?",
    ]);
    let mut instances: Vec<(String, ParallelLinks)> = vec![(
        "two-link b=(0,0.2)".into(),
        ParallelLinks::new(
            vec![
                sopt_latency::LatencyFn::affine(1.0, 0.0),
                sopt_latency::LatencyFn::affine(1.0, 0.2),
            ],
            1.0,
        ),
    )];
    for seed in [5u64, 23, 41] {
        instances.push((
            format!("common-slope m=3 seed {seed}"),
            try_random_common_slope(3, 1.0, seed).expect("valid generator parameters"),
        ));
    }
    for (name, links) in &instances {
        let lb = improvement_threshold_lower_bound(links);
        let emp =
            empirical_improvement_threshold(links, |l, a| linear_optimal_strategy(l, a).cost, 1e-9);
        let ok = emp >= lb - 1e-6;
        t.row([
            name.clone(),
            f(lb),
            f(emp),
            if ok { "yes".to_string() } else { "NO".into() },
        ]);
        assert!(ok, "{name}: empirical {emp} below bound {lb}");
    }
    t.print();
    println!("(no Leader portion below the bound can beat C(N) — Theorem 7.2 / [43, Eq. (1)])");
}
