//! E15 (extension) — Stackelberg control vs marginal-cost pricing: the two
//! optimum-restoring interventions of the paper's introduction compared on
//! the same instances.
//!
//! Both enforce `C(O)` exactly; the resources differ. The Leader pays with
//! *control over β_M·r flow*; the toll designer pays with *money collected
//! from all users* (revenue `Σ o_e·τ_e`) — and tolls generalise beyond
//! parallel links without the β_G premium.

use sopt_core::optop::optop;
use sopt_core::tolls::marginal_cost_tolls;
use sopt_equilibrium::parallel::ParallelLinks;
use sopt_instances::fig4::fig4_links;
use sopt_instances::mm1_families::spread_links;
use sopt_instances::pigou::pigou_links;
use sopt_instances::random::try_random_affine;
use sopt_latency::Latency;

use crate::table::{f, Table};

/// E15: both interventions restore C(O); report their price.
pub fn e15_control_vs_pricing() {
    println!("\n=== E15 (extension): Stackelberg control vs marginal-cost tolls ===");
    let instances: Vec<(String, ParallelLinks)> = vec![
        ("pigou".into(), pigou_links()),
        ("fig4".into(), fig4_links()),
        (
            "affine m=5".into(),
            try_random_affine(5, 1.5, 3).expect("valid generator parameters"),
        ),
        ("mm1 spread ×6".into(), spread_links(6, 1.0, 1.3, 8.0)),
    ];
    let mut t = Table::new([
        "instance",
        "β_M (control share)",
        "toll revenue / C(O)",
        "C(S+T)/C(O)",
        "tolled C(N')/C(O)",
    ]);
    for (name, links) in &instances {
        let ot = optop(links);
        let tl = marginal_cost_tolls(links);
        let stackelberg_ratio = links.induced_cost(&ot.strategy) / ot.optimum_cost;
        // Latency-only cost at the tolled equilibrium (tolls are transfers,
        // not burned): evaluate the original latencies at the tolled Nash.
        let tolled_nash = tl.tolled.nash();
        let tolled_ratio = links.cost(tolled_nash.flows()) / ot.optimum_cost;
        t.row([
            name.clone(),
            f(ot.beta),
            f(tl.revenue / ot.optimum_cost),
            f(stackelberg_ratio),
            f(tolled_ratio),
        ]);
        assert!(
            (stackelberg_ratio - 1.0).abs() < 1e-5,
            "{name}: OpTop must enforce C(O)"
        );
        assert!(
            (tolled_ratio - 1.0).abs() < 1e-4,
            "{name}: marginal-cost tolls must enforce C(O) (got {tolled_ratio})"
        );
        // Sanity: the tolls really are the optimal-flow externalities.
        for ((l, &o), &tau) in links.latencies().iter().zip(&tl.optimum).zip(&tl.tolls) {
            assert!((tau - o * l.derivative(o)).abs() < 1e-7);
        }
    }
    t.print();
    println!("(both interventions achieve a-posteriori anarchy value exactly 1; the");
    println!(" Leader's price is the β_M control share, the toll's price is revenue");
    println!(" extracted from users — the paper's intro lists both methodologies)");
}
