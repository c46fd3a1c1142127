//! Acceptance tests for the pricing task family: closed-form vs
//! best-response parity on affine parallel links (fixed and randomized),
//! the sub-game recursion through the session API, and the typed error
//! matrix for the network/multicommodity classes.

use proptest::prelude::*;
use stackopt::api::{Scenario, SoptError, Task};
use stackopt::instances::random::try_random_affine;
use stackopt::pricing::{best_response, closed_form_affine};

fn pricing_report(spec: &str) -> Result<stackopt::api::Report, SoptError> {
    Scenario::parse(spec)
        .unwrap()
        .solve()
        .task(Task::Pricing)
        .run()
}

#[test]
fn closed_form_and_best_response_agree_on_a_fixed_instance() {
    let links = stackopt::equilibrium::parallel::ParallelLinks::new(
        vec![
            stackopt::latency::LatencyFn::affine(1.0, 0.2),
            stackopt::latency::LatencyFn::affine(2.0, 0.3),
            stackopt::latency::LatencyFn::affine(0.7, 0.0),
        ],
        1.5,
    );
    let cf = closed_form_affine(&links).unwrap();
    let br = best_response(&links, 64, 400, 1e-8).unwrap();
    for i in 0..3 {
        assert!(
            (cf.prices[i] - br.prices[i]).abs() <= 1e-6,
            "price {i}: {} vs {}",
            cf.prices[i],
            br.prices[i]
        );
    }
    assert!((cf.revenue - br.revenue).abs() <= 1e-6);
    assert!((cf.level - br.level).abs() <= 1e-6);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The closed-form linear system and the grid best-response dynamics
    /// find the same competitive equilibrium on random affine instances.
    #[test]
    fn prop_closed_form_matches_best_response(
        seed in 0u64..5000,
        m in 2usize..5,
        rate in 0.5..2.0f64,
    ) {
        let links = try_random_affine(m, rate, seed).expect("valid generator parameters");
        // Randomized intercepts can price a link out or degenerate the
        // sub-game; parity is claimed only where the closed form is
        // defined.
        if let Ok(cf) = closed_form_affine(&links) {
            let br = best_response(&links, 64, 400, 1e-8).unwrap();
            prop_assert!((cf.revenue - br.revenue).abs() <= 1e-6,
                "revenue {} vs {}", cf.revenue, br.revenue);
            for i in 0..m {
                prop_assert!((cf.prices[i] - br.prices[i]).abs() <= 1e-6,
                    "price {i}: {} vs {}", cf.prices[i], br.prices[i]);
            }
        }
    }
}

#[test]
fn subgame_recursion_drops_the_dominated_link_through_the_api() {
    // Two identical cheap links and one with an enormous intercept: the
    // recursion prices the latter out, and the survivors play the
    // symmetric duopoly (prices 1, revenue 1 at a = r = 1).
    let report = pricing_report("x, x, x+100").unwrap();
    let p = report.data.as_pricing().unwrap();
    assert_eq!(p.method, "closed-form");
    assert_eq!(p.prices[2], 0.0);
    assert_eq!(p.flows[2], 0.0);
    assert!((p.prices[0] - 1.0).abs() < 1e-9, "{:?}", p.prices);
    assert!((p.revenue - 1.0).abs() < 1e-9);
}

#[test]
fn non_affine_parallel_instances_fall_back_to_best_response() {
    let report = pricing_report("mm1:4, mm1:4").unwrap();
    let p = report.data.as_pricing().unwrap();
    assert_eq!(p.method, "best-response");
    assert!(p.revenue > 0.0);
}

#[test]
fn pricing_error_matrix_is_typed() {
    // Multicommodity: single-price network pricing is an s–t notion.
    let multi = "nodes=4; 0->1: x; 0->1: 1.0; 2->3: x; 2->3: 1.0; \
                 demand 0->1: 1.0; demand 2->3: 1.0";
    assert!(matches!(
        pricing_report(multi).unwrap_err(),
        SoptError::Unsupported {
            task: Task::Pricing,
            ..
        }
    ));
    // Network without a [priceable] edge: a missing parameter, not a crash.
    assert!(matches!(
        pricing_report("nodes=2; 0->1: x; 0->1: 1.0; demand 0->1: 1").unwrap_err(),
        SoptError::MissingParameter {
            name: "priceable",
            ..
        }
    ));
    // Priceable set forming an s–t cut: unbounded revenue, typed.
    let cut = "nodes=3; 0->1: x [priceable]; 1->2: x; demand 0->2: 1";
    assert!(matches!(
        pricing_report(cut).unwrap_err(),
        SoptError::UnboundedRevenue { .. }
    ));
    // Monopoly on parallel links: also unbounded, also typed.
    assert!(matches!(
        pricing_report("x @ 1").unwrap_err(),
        SoptError::UnboundedRevenue { .. }
    ));
}

#[test]
fn network_auction_peaks_at_the_shortest_path_gap() {
    // Free path cost 2 (x then x at unit flow), blocked alternative 3
    // (2 + x): the single-price auction extracts the unit gap exactly,
    // and the revenue-vs-beta sweep peaks at beta = 1.
    let spec = "nodes=3; 0->1: x [priceable]; 0->1: 2; 1->2: x; demand 0->2: 1";
    let report = pricing_report(spec).unwrap();
    let p = report.data.as_pricing().unwrap();
    assert_eq!(p.method, "single-price-auction");
    assert!((p.revenue - 1.0).abs() < 1e-6, "revenue {}", p.revenue);
    assert!((p.prices[0] - 1.0).abs() < 1e-6, "{:?}", p.prices);
    let best = p
        .sweep
        .iter()
        .max_by(|a, b| a.revenue.total_cmp(&b.revenue))
        .unwrap();
    assert!((best.beta - 1.0).abs() < 1e-9, "peak at beta {}", best.beta);
}
