//! Integration tests pinning every number of the paper's worked examples
//! (Experiments E1–E4 of DESIGN.md).

use stackopt::core::mop::try_mop;
use stackopt::core::optop::optop;
use stackopt::core::theorems::swap_reassignment;
use stackopt::equilibrium::cost::coordination_ratio;
use stackopt::equilibrium::network;
use stackopt::instances::braess::{fig7_expected, fig7_instance};
use stackopt::instances::fig4::{fig4_expected, fig4_links};
use stackopt::instances::pigou::{pigou_expected, pigou_links};
use stackopt::solver::frank_wolfe::FwOptions;

/// E1 — Figs. 1–3 (Pigou parlance): the worst anarchy value 4/3 and the
/// wise strategy S = ⟨0, 1/2⟩ inducing the best possible a-posteriori value 1.
#[test]
fn e1_pigou_figures() {
    let links = pigou_links();
    let e = pigou_expected();

    let nash = links.nash();
    let opt = links.optimum();
    assert!((links.cost(nash.flows()) - e.nash_cost).abs() < 1e-9);
    assert!((links.cost(opt.flows()) - e.optimum_cost).abs() < 1e-9);
    assert!((coordination_ratio(e.nash_cost, e.optimum_cost) - e.coordination_ratio).abs() < 1e-12);

    // OpTop recovers Fig. 2's strategy and Fig. 3's induced equilibrium.
    let r = optop(&links);
    assert!((r.beta - e.beta).abs() < 1e-9);
    for (got, want) in r.strategy.iter().zip(&e.strategy) {
        assert!((got - want).abs() < 1e-9);
    }
    let induced = links.induced(&r.strategy);
    assert!((induced.follower[0] - 0.5).abs() < 1e-9, "T = ⟨1/2, 0⟩");
    assert!(induced.follower[1].abs() < 1e-9);
    assert!((links.cost(&induced.total) - e.optimum_cost).abs() < 1e-9);
}

/// E2 — Figs. 4–6: the OpTop walkthrough on the 5-link system.
#[test]
fn e2_optop_walkthrough() {
    let links = fig4_links();
    let e = fig4_expected();
    let r = optop(&links);

    // Fig. 4: initial equilibria.
    for i in 0..5 {
        assert!((r.nash[i] - e.nash[i]).abs() < 1e-9, "N link {i}");
        assert!((r.optimum[i] - e.optimum[i]).abs() < 1e-9, "O link {i}");
    }
    // Fig. 5: under-loaded {M4, M5} frozen at o4, o5.
    assert_eq!(r.rounds[0].frozen, vec![3, 4]);
    assert!((r.strategy[3] - e.optimum[3]).abs() < 1e-9);
    assert!((r.strategy[4] - e.optimum[4]).abs() < 1e-9);
    // Fig. 6: the remaining selfish flow lands on the optimum.
    let induced = links.induced(&r.strategy);
    for i in 0..5 {
        assert!(
            (induced.total[i] - e.optimum[i]).abs() < 1e-7,
            "S+T link {i}"
        );
    }
    assert!((r.beta - e.beta).abs() < 1e-9);
}

/// E3 — Fig. 7: MOP on the Braess-type net across ε.
#[test]
fn e3_fig7_mop() {
    let opts = FwOptions::default();
    for &eps in &[0.0, 0.01, 0.05, 0.1] {
        let inst = fig7_instance(eps);
        let e = fig7_expected(eps);
        let r = try_mop(&inst, &opts).unwrap();

        // Fig. 7(a): optimal edge flows.
        for (i, want) in e.optimum.iter().enumerate() {
            assert!(
                (r.optimum.as_slice()[i] - want).abs() < 1e-4,
                "ε={eps} edge {i}: {} ≠ {want}",
                r.optimum.as_slice()[i]
            );
        }
        // Fig. 7(b): shortest-path flow 1/2 − 2ε.
        assert!(
            (r.free_value - e.shortest_path_flow).abs() < 1e-4,
            "ε={eps}"
        );
        // Fig. 7(d): β_G = 1/2 + 2ε.
        assert!((r.beta - e.beta).abs() < 1e-4, "ε={eps}: β = {}", r.beta);

        // The strategy achieves approximation guarantee exactly 1
        // (Remark 3.1: despite [41, Ex 6.5.1], MOP hits the optimum here).
        let follower =
            network::induced(&inst, r.leader.as_slice(), &[r.leader_value], &opts, None).unwrap();
        let total: Vec<f64> = r
            .leader
            .as_slice()
            .iter()
            .zip(follower.flow.as_slice())
            .map(|(a, b)| a + b)
            .collect();
        assert!((inst.cost(&total) - e.optimum_cost).abs() < 1e-4, "ε={eps}");

        // Cross-check the closed-form Nash cost 2 − 4ε.
        let nash = network::nash(&inst, &opts, None).unwrap();
        assert!(
            (inst.cost(nash.flow.as_slice()) - e.nash_cost).abs() < 1e-4,
            "ε={eps}"
        );
    }
}

/// E4 — Figs. 8–10: the Lemma 6.1 interchange never increases cost, over a
/// deterministic grid of configurations.
#[test]
fn e4_swap_lemma_grid() {
    let mut checked = 0usize;
    for a10 in 1..=20u32 {
        let a = a10 as f64 / 4.0;
        for b1_10 in 0..10u32 {
            for db in 1..10u32 {
                let b1 = b1_10 as f64 / 5.0;
                let b2 = b1 + db as f64 / 5.0;
                for load2_10 in 1..8u32 {
                    let load2 = load2_10 as f64 / 4.0;
                    // Smallest premise-satisfying s1, plus headroom variants.
                    let s1_min = (a * load2 + b2 - b1) / a;
                    for extra in [0.0, 0.5, 2.0] {
                        let s1 = s1_min + extra;
                        let out = swap_reassignment(a, b1, b2, s1, load2);
                        assert!(
                            out.after <= out.before + 1e-9 * out.before.max(1.0),
                            "a={a} b1={b1} b2={b2} s1={s1} load2={load2}: {} > {}",
                            out.after,
                            out.before
                        );
                        checked += 1;
                    }
                }
            }
        }
    }
    assert!(checked > 10_000, "swept {checked} configurations");
}
