//! `curve_bench` — the k-commodity anarchy-curve warm-chaining perf
//! baseline (`BENCH_curve.json`; first CLI argument overrides the path).
//!
//! For each k-commodity instance and each strategy split it runs the
//! `network_anarchy_curve` α-sweep twice — **cold** (every induced solve
//! bootstraps from all-or-nothing) and **warm** (each α's follower solve is
//! seeded from the previous α's per-commodity follower flows) — and records
//! total Frank–Wolfe iterations, wall seconds, and the maximum per-edge
//! flow deviation between the two sweeps. This is exactly the workload the
//! `curve` task runs on multicommodity scenarios through the
//! `ScenarioModel` layer.
//!
//! Acceptance bars (asserted here, checked in CI):
//! * total warm iterations ≤ cold/2 (≥ 2× reduction);
//! * warm flows match cold flows within 1e-5 on every α-point.

use std::time::Instant;

use sopt_core::curve::{network_anarchy_curve, CurveOptions, CurveStrategy};
use sopt_instances::random::try_random_multicommodity;
use sopt_network::instance::MultiCommodityInstance;
use sopt_solver::frank_wolfe::FwOptions;

const ALPHA_STEPS: usize = 10;
const REPS: usize = 3;
/// Flow-parity bar: cold and warm sweeps must agree to this per edge.
const FLOW_TOL: f64 = 1e-5;
/// Iteration-reduction bar.
const MIN_ITER_RATIO: f64 = 2.0;

struct CaseNumbers {
    name: String,
    edges: usize,
    commodities: usize,
    strategy: CurveStrategy,
    cold_iters: usize,
    warm_iters: usize,
    cold_secs: f64,
    warm_secs: f64,
    max_flow_dev: f64,
    cost_dev: f64,
}

fn measure(name: &str, inst: &MultiCommodityInstance, strategy: CurveStrategy) -> CaseNumbers {
    let alphas: Vec<f64> = (0..=ALPHA_STEPS)
        .map(|k| k as f64 / ALPHA_STEPS as f64)
        .collect();
    let opts = FwOptions::default();
    let copts = |warm: bool| CurveOptions { strategy, warm };

    // Best-of-REPS wall time; iteration counts are deterministic.
    let mut cold_secs = f64::INFINITY;
    let mut warm_secs = f64::INFINITY;
    let mut cold = None;
    let mut warm = None;
    for _ in 0..REPS {
        let t = Instant::now();
        cold =
            Some(network_anarchy_curve(inst, &alphas, &opts, &copts(false)).expect("cold sweep"));
        cold_secs = cold_secs.min(t.elapsed().as_secs_f64());
        let t = Instant::now();
        warm = Some(network_anarchy_curve(inst, &alphas, &opts, &copts(true)).expect("warm sweep"));
        warm_secs = warm_secs.min(t.elapsed().as_secs_f64());
    }
    let (cold, warm) = (cold.unwrap(), warm.unwrap());

    let mut max_flow_dev = 0.0f64;
    let mut cost_dev = 0.0f64;
    for (a, b) in cold.points.iter().zip(&warm.points) {
        for (x, y) in a.flow.iter().zip(&b.flow) {
            max_flow_dev = max_flow_dev.max((x - y).abs());
        }
        cost_dev = cost_dev.max((a.cost - b.cost).abs());
    }
    CaseNumbers {
        name: format!("{name}-{strategy}"),
        edges: inst.graph.num_edges(),
        commodities: inst.commodities.len(),
        strategy,
        cold_iters: cold.total_iterations,
        warm_iters: warm.total_iterations,
        cold_secs,
        warm_secs,
        max_flow_dev,
        cost_dev,
    }
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "null".to_string()
    }
}

fn sci(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3e}")
    } else {
        "null".to_string()
    }
}

fn case_json(c: &CaseNumbers) -> String {
    format!(
        "{{\"name\": \"{}\", \"edges\": {}, \"commodities\": {}, \"strategy\": \"{}\", \
         \"cold_iters\": {}, \"warm_iters\": {}, \"iter_ratio\": {}, \
         \"cold_secs\": {}, \"warm_secs\": {}, \
         \"max_flow_dev\": {}, \"max_cost_dev\": {}}}",
        c.name,
        c.edges,
        c.commodities,
        c.strategy,
        c.cold_iters,
        c.warm_iters,
        num(c.cold_iters as f64 / c.warm_iters.max(1) as f64),
        num(c.cold_secs),
        num(c.warm_secs),
        sci(c.max_flow_dev),
        sci(c.cost_dev),
    )
}

fn main() {
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_curve.json".to_string());

    // Shared layered cores with 2–3 contending commodities — the same
    // family the warm-start tests and the engine's multi scenarios use.
    let small = try_random_multicommodity(3, 3, 2, 6.0, 11).expect("valid generator parameters");
    let medium = try_random_multicommodity(4, 4, 3, 12.0, 23).expect("valid generator parameters");
    let wide = try_random_multicommodity(3, 5, 3, 15.0, 41).expect("valid generator parameters");

    let cases = [
        measure("multi-3x3-k2", &small, CurveStrategy::Strong),
        measure("multi-3x3-k2", &small, CurveStrategy::Weak),
        measure("multi-4x4-k3", &medium, CurveStrategy::Strong),
        measure("multi-4x4-k3", &medium, CurveStrategy::Weak),
        measure("multi-3x5-k3", &wide, CurveStrategy::Strong),
        measure("multi-3x5-k3", &wide, CurveStrategy::Weak),
    ];

    let cold_total: usize = cases.iter().map(|c| c.cold_iters).sum();
    let warm_total: usize = cases.iter().map(|c| c.warm_iters).sum();
    let ratio = cold_total as f64 / warm_total.max(1) as f64;
    let max_dev = cases.iter().map(|c| c.max_flow_dev).fold(0.0f64, f64::max);

    let case_lines: Vec<String> = cases
        .iter()
        .map(|c| format!("    {}", case_json(c)))
        .collect();
    let json = format!(
        "{{\n  \"alpha_steps\": {ALPHA_STEPS},\n  \"cases\": [\n{}\n  ],\n  \
         \"total\": {{\"cold_iters\": {cold_total}, \"warm_iters\": {warm_total}, \
         \"iter_ratio\": {}, \"max_flow_dev\": {}}}\n}}\n",
        case_lines.join(",\n"),
        num(ratio),
        sci(max_dev),
    );
    std::fs::write(&path, &json).expect("write BENCH_curve.json");
    print!("{json}");
    eprintln!("wrote {path}");

    assert!(
        ratio >= MIN_ITER_RATIO,
        "warm k-commodity α-sweep iteration reduction {ratio:.2}x < {MIN_ITER_RATIO}x"
    );
    assert!(
        max_dev <= FLOW_TOL,
        "warm flows deviate from cold by {max_dev:.3e} > {FLOW_TOL:.1e}"
    );
}
