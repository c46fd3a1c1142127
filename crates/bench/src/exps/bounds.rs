//! E8, E10 — the quantitative bounds of Expressions (1) and (2).

use sopt_core::llf::llf;
use sopt_core::scale::scale;
use sopt_equilibrium::cost::coordination_ratio;
use sopt_equilibrium::parallel::ParallelLinks;
use sopt_instances::random::{try_random_affine, try_random_mixed};
use sopt_latency::LatencyFn;
use sopt_solver::sweep::par_map;

use crate::table::{f, Table};

/// E8 — LLF's guarantees ([41, Th 6.4.4]: 1/α for standard latencies;
/// [41, Th 6.4.5]: 4/(3+α) for linear) and SCALE for contrast.
pub fn e8_llf_scale_bounds() {
    println!("\n=== E8: LLF / SCALE a-posteriori anarchy values (Expression (2)) ===");
    let alphas = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9];
    let seeds: Vec<u64> = (0..30).collect();

    // Worst ratios over the ensembles per α.
    let mut t = Table::new([
        "α",
        "max LLF ratio (mixed)",
        "1/α",
        "max LLF ratio (linear)",
        "4/(3+α)",
        "max SCALE ratio (linear)",
    ]);
    for &alpha in &alphas {
        let mixed = par_map(&seeds, |&s| {
            let links = try_random_mixed(5, 1.5, s).expect("valid generator parameters");
            let co = links.cost(links.optimum().flows());
            let (_, c) = llf(&links, alpha);
            c / co
        });
        let linear: Vec<(f64, f64)> = par_map(&seeds, |&s| {
            let links = try_random_affine(5, 1.5, s).expect("valid generator parameters");
            let co = links.cost(links.optimum().flows());
            let (_, cl) = llf(&links, alpha);
            let (_, cs) = scale(&links, alpha);
            (cl / co, cs / co)
        });
        let max_mixed = mixed.into_iter().fold(f64::NEG_INFINITY, f64::max);
        let max_linear = linear.iter().map(|x| x.0).fold(f64::NEG_INFINITY, f64::max);
        let max_scale = linear.iter().map(|x| x.1).fold(f64::NEG_INFINITY, f64::max);
        t.row([
            format!("{alpha:.1}"),
            f(max_mixed),
            f(1.0 / alpha),
            f(max_linear),
            f(4.0 / (3.0 + alpha)),
            f(max_scale),
        ]);
        assert!(max_mixed <= 1.0 / alpha + 1e-6, "α={alpha}: LLF broke 1/α");
        assert!(
            max_linear <= 4.0 / (3.0 + alpha) + 1e-6,
            "α={alpha}: LLF broke 4/(3+α) on linear instances"
        );
    }
    t.print();
    println!("(both LLF bounds hold with slack; the paper's point: at α ≥ β_M the");
    println!(" exact OpTop strategy pins the ratio to exactly 1 — Corollary 2.2)");
}

/// E10 — Expression (1): the plain coordination ratio. Linear latencies are
/// capped at 4/3 (attained by Pigou); M/M/1 queues blow up as capacity
/// tightens toward the demand.
pub fn e10_poa_bounds() {
    println!("\n=== E10: coordination ratio (Expression (1)) ===");
    let seeds: Vec<u64> = (0..200).collect();
    let ratios = par_map(&seeds, |&s| {
        let links = try_random_affine(4, 1.0 + (s % 7) as f64 * 0.3, s)
            .expect("valid generator parameters");
        let cn = links.cost(links.nash().flows());
        let co = links.cost(links.optimum().flows());
        coordination_ratio(cn, co)
    });
    let max_ratio = ratios.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let pigou = {
        let links = sopt_instances::pigou::pigou_links();
        coordination_ratio(
            links.cost(links.nash().flows()),
            links.cost(links.optimum().flows()),
        )
    };
    let mut t = Table::new(["ensemble", "instances", "max ratio", "4/3 bound"]);
    t.row([
        "random affine".to_string(),
        seeds.len().to_string(),
        f(max_ratio),
        f(4.0 / 3.0),
    ]);
    t.row([
        "Pigou (worst case)".to_string(),
        "1".to_string(),
        f(pigou),
        f(4.0 / 3.0),
    ]);
    t.print();
    assert!(max_ratio <= 4.0 / 3.0 + 1e-6);
    assert!((pigou - 4.0 / 3.0).abs() < 1e-9);

    // M/M/1 Pigou analogue: queue 1/(c−x) against a constant bypass at the
    // queue's full-load latency 1/(c−r). Nash floods the queue (C(N) =
    // r/(c−r)); the optimum offloads; the ratio ~ 1/(2√(c−r)) diverges as
    // utilisation → 1.
    println!("\nM/M/1 Pigou analogue, utilisation ramp (unbounded ratio):");
    let mut t = Table::new(["utilisation r/c", "C(N)", "C(O)", "ratio"]);
    let mut prev_ratio = 0.0;
    for &util in &[0.5, 0.9, 0.99, 0.999, 0.9999] {
        let c = 1.0 / util; // rate 1, capacity c
        let bypass = 1.0 / (c - 1.0);
        let links = ParallelLinks::new(vec![LatencyFn::mm1(c), LatencyFn::constant(bypass)], 1.0);
        let cn = links.cost(links.nash().flows());
        let co = links.cost(links.optimum().flows());
        t.row([format!("{util}"), f(cn), f(co), f(cn / co)]);
        assert!(cn / co > prev_ratio, "ratio must grow with utilisation");
        prev_ratio = cn / co;
    }
    t.print();
    println!("(Expression (1)'s factor can be arbitrarily large — the motivation for");
    println!(" Stackelberg control in the first place)");
}
