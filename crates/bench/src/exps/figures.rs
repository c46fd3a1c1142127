//! E1–E4: the paper's worked figures, regenerated.

use sopt_core::mop::try_mop;
use sopt_core::optop::optop;
use sopt_core::theorems::swap_reassignment;
use sopt_equilibrium::cost::coordination_ratio;
use sopt_equilibrium::network;
use sopt_instances::braess::{fig7_expected, fig7_instance};
use sopt_instances::fig4::{fig4_expected, fig4_links};
use sopt_instances::pigou::{pigou_expected, pigou_links};
use sopt_solver::frank_wolfe::FwOptions;

use crate::table::{f, Table};

/// E1 — Figs. 1–3: Pigou's example.
pub fn e1_pigou() {
    println!("\n=== E1: Pigou's example (Figs. 1–3) ===");
    let links = pigou_links();
    let e = pigou_expected();
    let nash = links.nash();
    let opt = links.optimum();
    let r = optop(&links);
    let induced = links.induced(&r.strategy);

    let mut t = Table::new(["quantity", "paper", "measured"]);
    t.row([
        "C(N)".to_string(),
        f(e.nash_cost),
        f(links.cost(nash.flows())),
    ]);
    t.row([
        "C(O)".to_string(),
        f(e.optimum_cost),
        f(links.cost(opt.flows())),
    ]);
    t.row([
        "coordination ratio".to_string(),
        f(e.coordination_ratio),
        f(coordination_ratio(
            links.cost(nash.flows()),
            links.cost(opt.flows()),
        )),
    ]);
    t.row(["β_M".to_string(), f(e.beta), f(r.beta)]);
    t.row([
        "strategy s₂".to_string(),
        f(e.strategy[1]),
        f(r.strategy[1]),
    ]);
    t.row([
        "C(S+T)".to_string(),
        f(e.optimum_cost),
        f(links.cost(&induced.total)),
    ]);
    t.print();

    assert!((r.beta - e.beta).abs() < 1e-9);
    assert!((links.cost(&induced.total) - e.optimum_cost).abs() < 1e-9);
}

/// E2 — Figs. 4–6: the OpTop walkthrough.
pub fn e2_optop_trace() {
    println!("\n=== E2: OpTop walkthrough (Figs. 4–6) ===");
    let links = fig4_links();
    let e = fig4_expected();
    let r = optop(&links);

    let mut t = Table::new([
        "link",
        "ℓ_i",
        "Nash n_i",
        "Opt o_i",
        "state",
        "strategy s_i",
    ]);
    let names = ["x", "3x/2", "2x", "5x/2+1/6", "0.7"];
    for (i, name) in names.iter().enumerate() {
        let state = if r.rounds[0].frozen.contains(&i) {
            "under-loaded → frozen"
        } else {
            "over-loaded"
        };
        t.row([
            format!("M{}", i + 1),
            name.to_string(),
            f(r.nash[i]),
            f(r.optimum[i]),
            state.to_string(),
            f(r.strategy[i]),
        ]);
    }
    t.print();
    println!(
        "rounds: {}   frozen in round 1: {:?} (paper: {{M4, M5}})",
        r.rounds.len(),
        r.rounds[0]
            .frozen
            .iter()
            .map(|i| format!("M{}", i + 1))
            .collect::<Vec<_>>()
    );
    println!("β_M = {} (closed form {})", f(r.beta), f(e.beta));
    let induced = links.induced(&r.strategy);
    println!(
        "C(N) = {}  C(O) = {}  C(S+T) = {}",
        f(r.nash_cost),
        f(r.optimum_cost),
        f(links.cost(&induced.total))
    );
    assert_eq!(r.rounds[0].frozen, vec![3, 4]);
    assert!((r.beta - e.beta).abs() < 1e-9);
}

/// E3 — Fig. 7: MOP across ε on the Braess-type net.
pub fn e3_fig7_mop() {
    println!("\n=== E3: MOP on the Fig. 7 instance ===");
    let opts = FwOptions::default();
    let mut t = Table::new([
        "ε",
        "β (paper)",
        "β (measured)",
        "r' (paper)",
        "r' (measured)",
        "C(N)",
        "C(O)",
        "C(S+T)",
    ]);
    for &eps in &[0.0, 0.01, 0.05, 0.1, 0.2] {
        let inst = fig7_instance(eps);
        let e = fig7_expected(eps);
        let r = try_mop(&inst, &opts).expect("a reachable sink");
        let nash = network::nash(&inst, &opts, None).expect("a reachable sink");
        let follower = network::induced(&inst, r.leader.as_slice(), &[r.leader_value], &opts, None)
            .expect("a reachable sink");
        let total: Vec<f64> = r
            .leader
            .as_slice()
            .iter()
            .zip(follower.flow.as_slice())
            .map(|(a, b)| a + b)
            .collect();
        t.row([
            format!("{eps:.2}"),
            f(e.beta),
            f(r.beta),
            f(e.shortest_path_flow),
            f(r.free_value),
            f(inst.cost(nash.flow.as_slice())),
            f(r.optimum_cost),
            f(inst.cost(&total)),
        ]);
        assert!((r.beta - e.beta).abs() < 1e-4, "ε={eps}");
        assert!((inst.cost(&total) - r.optimum_cost).abs() < 1e-4, "ε={eps}");
    }
    t.print();
    println!("(approximation guarantee of MOP = 1 on the very net behind [41, Ex 6.5.1])");
}

/// E4 — Figs. 8–10: the Lemma 6.1 swap over a random ensemble.
pub fn e4_swap_lemma() {
    println!("\n=== E4: Lemma 6.1 swap argument (Figs. 8–10) ===");
    let mut state = 0x5eed1234u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let trials = 20_000;
    let mut violations = 0usize;
    let mut max_gain: f64 = 0.0;
    for _ in 0..trials {
        let a = 0.1 + 3.0 * next();
        let b1 = 2.0 * next();
        let b2 = b1 + 2.0 * next();
        let load2 = 0.05 + 2.0 * next();
        let s1 = (a * load2 + b2 - b1) / a + 3.0 * next();
        let out = swap_reassignment(a, b1, b2, s1, load2);
        if out.after > out.before + 1e-9 * out.before.max(1.0) {
            violations += 1;
        }
        max_gain = max_gain.max(out.before - out.after);
    }
    let mut t = Table::new(["trials", "violations", "max cost reduction"]);
    t.row([trials.to_string(), violations.to_string(), f(max_gain)]);
    t.print();
    assert_eq!(violations, 0, "the swap must never increase cost");
}
