//! E5 — the §1.1(ii) negative landscape on s–t nets (Roughgarden's
//! Example 6.5.1 `x^k` family) and the paper's Remark 3.1 rebuttal.
//!
//! The paper's source text cites the example without printing its
//! latencies; we reproduce the family's *shape* (see DESIGN.md):
//!
//! * the plain anarchy value `C(N)/C(O)` grows without bound in `k` — on
//!   s–t nets there is no analogue of the linear `4/3` comfort;
//! * for a **fixed** Leader portion α, the best strategy's a-posteriori
//!   value stays strictly above 1 exactly while `α < β_G(k)` and collapses
//!   to 1 the moment `α ≥ β_G(k)` — the crossover Corollary 2.3 predicts;
//! * MOP's approximation guarantee is exactly 1 on every member
//!   (Remark 3.1: `1 ≤ 1/α` for all α, "despite the negative result").

use sopt_core::mop::try_mop;
use sopt_equilibrium::network;
use sopt_instances::braess::{roughgarden_651, roughgarden_651_optimum_cost};
use sopt_network::flow::EdgeFlow;
use sopt_solver::frank_wolfe::FwOptions;
use sopt_solver::sweep::par_map;

use crate::table::{f, Table};

/// Evaluate the Leader path-strategy (a, b, c) = flows on (s→v→t, s→w→t,
/// s→v→w→t) on the Example 6.5.1 instance with degree `k`.
fn induced_cost_651(k: u32, a: f64, b: f64, c: f64, opts: &FwOptions) -> f64 {
    let inst = roughgarden_651(k);
    // Path flows → edge flows (edges: s→v, s→w, v→w, v→t, w→t).
    let leader = EdgeFlow(vec![a + c, b, c, a, b + c]);
    let value = a + b + c;
    let follower =
        network::induced(&inst, leader.as_slice(), &[value], opts, None).expect("a reachable sink");
    let total: Vec<f64> = leader
        .as_slice()
        .iter()
        .zip(follower.flow.as_slice())
        .map(|(x, y)| x + y)
        .collect();
    inst.cost(&total)
}

/// Best strategy found over a dense grid of the Leader's 3-path simplex.
fn best_strategy_cost(k: u32, alpha: f64, grid: usize, opts: &FwOptions) -> f64 {
    let mut points = Vec::new();
    for i in 0..=grid {
        for j in 0..=(grid - i) {
            let a = alpha * i as f64 / grid as f64;
            let b = alpha * j as f64 / grid as f64;
            let c = (alpha - a - b).max(0.0);
            points.push((a, b, c));
        }
    }
    let costs = par_map(&points, |&(a, b, c)| induced_cost_651(k, a, b, c, opts));
    costs.into_iter().fold(f64::INFINITY, f64::min)
}

/// E5: sweep the degree `k` at fixed α = 0.3.
pub fn e5_unbounded_stackelberg() {
    println!("\n=== E5: the Ex 6.5.1 x^k family — unbounded anarchy vs MOP (Remark 3.1) ===");
    let opts = FwOptions {
        rel_gap: 1e-8,
        ..FwOptions::default()
    };
    let alpha = 0.3;
    let mut t = Table::new([
        "k",
        "C(N)/C(O)",
        "β_G(k)",
        "best C(S+T)/C(O) @ α=0.3",
        "regime",
    ]);
    let mut anarchy_prev = 0.0;
    let mut saw_hard = false;
    let mut saw_easy = false;
    for &k in &[1u32, 2, 4, 8, 16, 32] {
        let inst = roughgarden_651(k);
        let copt = roughgarden_651_optimum_cost(k);
        let nash = network::nash(&inst, &opts, None).expect("a reachable sink");
        let anarchy = inst.cost(nash.flow.as_slice()) / copt;
        let beta = try_mop(&inst, &opts).expect("a reachable sink").beta;
        let best = best_strategy_cost(k, alpha, 24, &opts) / copt;
        let regime = if alpha < beta - 1e-3 {
            saw_hard = true;
            assert!(
                best > 1.0 + 1e-3,
                "k={k}: α < β must leave a strict optimality gap (ratio {best})"
            );
            "α < β: optimum unreachable"
        } else {
            saw_easy = true;
            assert!(
                best < 1.0 + 1e-2,
                "k={k}: α ≥ β must enforce the optimum (ratio {best})"
            );
            "α ≥ β: optimum enforced"
        };
        assert!(anarchy > anarchy_prev, "anarchy must grow with k");
        anarchy_prev = anarchy;
        t.row([
            k.to_string(),
            f(anarchy),
            f(beta),
            f(best),
            regime.to_string(),
        ]);
    }
    t.print();
    assert!(
        saw_hard && saw_easy,
        "the sweep must straddle the β crossover"
    );
    println!("(the plain anarchy value is unbounded in k — no 4/3-style comfort on s–t");
    println!(" nets — yet MOP's guarantee is exactly 1 once the Leader holds β_G;");
    println!(" below β_G the optimum is strictly unreachable, Corollary 2.3's crossover)");
}
