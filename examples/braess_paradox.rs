//! Stackelberg routing on Braess-type networks (paper §3.2, Fig. 7, and the
//! §1.1(ii) negative result).
//!
//! ```text
//! cargo run --example braess_paradox
//! ```
//!
//! 1. Reproduces every number of Fig. 7 with the session API's beta task on
//!    the derived affine instance — written in the network spec grammar —
//!    including `β_G = 1/2 + 2ε` and the induced cost `C(S+T) = C(O)`.
//! 2. Shows the negative landscape on Roughgarden's Example 6.5.1 family:
//!    as the latency degree `k` grows, even the best strategy's induced
//!    cost dwarfs the optimum — no `1/α` guarantee exists on s–t nets —
//!    while MOP still enforces the optimum outright with β ≈ 1 − 1/e… of
//!    the flow.

use stackopt::core::mop::try_mop;
use stackopt::equilibrium::network;
use stackopt::instances::braess::{fig7_expected, roughgarden_651, roughgarden_651_optimum_cost};
use stackopt::prelude::*;
use stackopt::solver::frank_wolfe::FwOptions;

/// Fig. 7's derived affine instance in the spec grammar:
/// `ℓ_sv = ℓ_wt = x`, `ℓ_sw = ℓ_vt = x + 1 − 4ε`, `ℓ_vw = 0`, `r = 1`.
fn fig7_spec(eps: f64) -> String {
    let b = 1.0 - 4.0 * eps;
    format!("nodes=4; 0->1: x; 0->2: x+{b}; 1->2: 0; 1->3: x+{b}; 2->3: x; demand 0->3: 1")
}

fn main() -> Result<(), SoptError> {
    println!("== Fig. 7: the beta task on the Braess-type instance ==");
    for eps in [0.0, 0.01, 0.05, 0.10] {
        let expect = fig7_expected(eps);
        let report = Scenario::parse(&fig7_spec(eps))?
            .solve()
            .task(Task::Beta)
            .run()?;
        let b = report.data.as_beta().unwrap();
        println!(
            "ε={eps:.2}: O = [{}]",
            b.optimum
                .iter()
                .map(|f| format!("{f:.3}"))
                .collect::<Vec<_>>()
                .join(", ")
        );
        println!(
            "        β = {:.4} (paper: {:.4}) | C(N) = {:.4} (paper: {:.4}) | C(O) = {:.4} | C(S+T) = {:.4}",
            b.beta, expect.beta, b.nash_cost, expect.nash_cost, b.optimum_cost, b.induced_cost,
        );
    }

    println!("\n== Example 6.5.1: the x^k family (negative result) ==");
    println!(
        "{:>3} {:>10} {:>10} {:>12} {:>10}",
        "k", "C(N)", "C(O)", "C(N)/C(O)", "MOP β"
    );
    let opts = FwOptions::default();
    for k in [1u32, 2, 4, 8, 16] {
        let inst = roughgarden_651(k);
        let nash = network::nash(&inst, &opts, None).expect("a reachable sink");
        let r = try_mop(&inst, &opts).expect("a reachable sink");
        let cn = inst.cost(nash.flow.as_slice());
        let co = roughgarden_651_optimum_cost(k);
        println!(
            "{k:>3} {cn:>10.4} {co:>10.4} {:>12.2} {:>10.4}",
            cn / co,
            r.beta
        );
    }
    println!(
        "\nThe anarchy value C(N)/C(O) grows without bound in k, yet MOP always\n\
         induces C(O) exactly — the Leader just needs the β-portion above."
    );
    Ok(())
}
