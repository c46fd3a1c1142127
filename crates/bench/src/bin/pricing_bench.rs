//! `pricing_bench` — the pricing revenue-vs-β warm-chaining perf baseline
//! (`BENCH_pricing.json`; first CLI argument overrides the path).
//!
//! For each layered network it marks a spread of edges priceable and runs
//! the revenue-vs-β sweep twice — **cold** (every tolled induced solve
//! bootstraps from all-or-nothing) and **warm** (each β's solve is seeded
//! from the previous β's equilibrium, exactly as the `pricing` task chains
//! through the `ScenarioModel` layer) — and records total Frank–Wolfe
//! iterations, wall seconds, and the revenue/flow deviation between the two
//! sweeps.
//!
//! Acceptance bars (asserted here, checked in CI):
//! * total warm iterations ≤ cold/2 (≥ 2× reduction);
//! * warm revenues match cold revenues within 1e-5 on every β-point.

use std::time::Instant;

use sopt_equilibrium::network;
use sopt_instances::random::try_random_layered_network;
use sopt_latency::LatencyFn;
use sopt_network::instance::NetworkInstance;
use sopt_solver::frank_wolfe::{FwOptions, FwResult};

const BETA_STEPS: usize = 12;
const REPS: usize = 3;
/// Reference single price scaled by β across the sweep.
const PRICE: f64 = 0.5;
/// Revenue/flow-parity bar: cold and warm sweeps must agree to this.
const DEV_TOL: f64 = 1e-5;
/// Iteration-reduction bar.
const MIN_ITER_RATIO: f64 = 2.0;

struct CaseNumbers {
    name: String,
    edges: usize,
    priceable: usize,
    cold_iters: usize,
    warm_iters: usize,
    cold_secs: f64,
    warm_secs: f64,
    max_rev_dev: f64,
    max_flow_dev: f64,
}

/// The latencies with a β-scaled toll on every priceable edge.
fn tolled(inst: &NetworkInstance, priceable: &[bool], toll: f64) -> Vec<LatencyFn> {
    inst.latencies
        .iter()
        .zip(priceable)
        .map(|(l, &p)| if p { l.tolled(toll) } else { l.clone() })
        .collect()
}

fn revenue_of(priceable: &[bool], toll: f64, r: &FwResult) -> f64 {
    let volume: f64 = r
        .flow
        .as_slice()
        .iter()
        .zip(priceable)
        .filter(|&(_, &p)| p)
        .map(|(x, _)| x)
        .sum();
    toll * volume
}

/// One full revenue-vs-β sweep; `warm` chains each solve off the previous
/// β's equilibrium, starting from the unpriced Nash.
fn sweep(
    inst: &NetworkInstance,
    priceable: &[bool],
    opts: &FwOptions,
    warm: bool,
) -> (Vec<f64>, Vec<Vec<f64>>, usize) {
    let base = network::nash(inst, opts, None).expect("unpriced nash");
    let mut iters = base.iterations;
    let mut seed = base;
    let mut revenues = Vec::with_capacity(BETA_STEPS + 1);
    let mut flows = Vec::with_capacity(BETA_STEPS + 1);
    for j in 0..=BETA_STEPS {
        let beta = 2.0 * j as f64 / BETA_STEPS as f64;
        let toll = beta * PRICE;
        let lats = tolled(inst, priceable, toll);
        let r = network::nash(
            inst.routing().with_latencies(&lats),
            opts,
            warm.then_some(&seed),
        )
        .expect("priced nash");
        iters += r.iterations;
        revenues.push(revenue_of(priceable, toll, &r));
        flows.push(r.flow.as_slice().to_vec());
        seed = r;
    }
    (revenues, flows, iters)
}

fn measure(name: &str, inst: &NetworkInstance) -> CaseNumbers {
    // Every third edge carries the toll: spread across layers without
    // forming an s→t cut, so the sweep stays a perturbation of the free
    // equilibrium rather than a blockade.
    let priceable: Vec<bool> = (0..inst.graph.num_edges()).map(|e| e % 3 == 0).collect();
    let opts = FwOptions::default();

    // Best-of-REPS wall time; iteration counts are deterministic.
    let mut cold_secs = f64::INFINITY;
    let mut warm_secs = f64::INFINITY;
    let mut cold = None;
    let mut warm = None;
    for _ in 0..REPS {
        let t = Instant::now();
        cold = Some(sweep(inst, &priceable, &opts, false));
        cold_secs = cold_secs.min(t.elapsed().as_secs_f64());
        let t = Instant::now();
        warm = Some(sweep(inst, &priceable, &opts, true));
        warm_secs = warm_secs.min(t.elapsed().as_secs_f64());
    }
    let (cold_rev, cold_flows, cold_iters) = cold.unwrap();
    let (warm_rev, warm_flows, warm_iters) = warm.unwrap();

    let mut max_rev_dev = 0.0f64;
    let mut max_flow_dev = 0.0f64;
    for (a, b) in cold_rev.iter().zip(&warm_rev) {
        max_rev_dev = max_rev_dev.max((a - b).abs());
    }
    for (a, b) in cold_flows.iter().zip(&warm_flows) {
        for (x, y) in a.iter().zip(b) {
            max_flow_dev = max_flow_dev.max((x - y).abs());
        }
    }
    CaseNumbers {
        name: name.to_string(),
        edges: inst.graph.num_edges(),
        priceable: priceable.iter().filter(|&&p| p).count(),
        cold_iters,
        warm_iters,
        cold_secs,
        warm_secs,
        max_rev_dev,
        max_flow_dev,
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
        "{{\"name\": \"{}\", \"edges\": {}, \"priceable\": {}, \
         \"cold_iters\": {}, \"warm_iters\": {}, \"iter_ratio\": {}, \
         \"cold_secs\": {}, \"warm_secs\": {}, \
         \"max_rev_dev\": {}, \"max_flow_dev\": {}}}",
        c.name,
        c.edges,
        c.priceable,
        c.cold_iters,
        c.warm_iters,
        num(c.cold_iters as f64 / c.warm_iters.max(1) as f64),
        num(c.cold_secs),
        num(c.warm_secs),
        sci(c.max_rev_dev),
        sci(c.max_flow_dev),
    )
}

fn main() {
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_pricing.json".to_string());

    // The same layered family the curve and engine baselines use, single
    // commodity — the class the network pricing task runs on.
    let cases = [
        measure(
            "net-3x3",
            &try_random_layered_network(3, 3, 6.0, 11).expect("valid generator parameters"),
        ),
        measure(
            "net-4x4",
            &try_random_layered_network(4, 4, 12.0, 23).expect("valid generator parameters"),
        ),
        measure(
            "net-3x5",
            &try_random_layered_network(3, 5, 15.0, 41).expect("valid generator parameters"),
        ),
    ];

    let cold_total: usize = cases.iter().map(|c| c.cold_iters).sum();
    let warm_total: usize = cases.iter().map(|c| c.warm_iters).sum();
    let ratio = cold_total as f64 / warm_total.max(1) as f64;
    let max_rev = cases.iter().map(|c| c.max_rev_dev).fold(0.0f64, f64::max);

    let case_lines: Vec<String> = cases
        .iter()
        .map(|c| format!("    {}", case_json(c)))
        .collect();
    let json = format!(
        "{{\n  \"beta_steps\": {BETA_STEPS},\n  \"price\": {PRICE},\n  \"cases\": [\n{}\n  ],\n  \
         \"total\": {{\"cold_iters\": {cold_total}, \"warm_iters\": {warm_total}, \
         \"iter_ratio\": {}, \"max_rev_dev\": {}}}\n}}\n",
        case_lines.join(",\n"),
        num(ratio),
        sci(max_rev),
    );
    std::fs::write(&path, &json).expect("write BENCH_pricing.json");
    print!("{json}");
    eprintln!("wrote {path}");

    assert!(
        ratio >= MIN_ITER_RATIO,
        "warm revenue-vs-beta sweep iteration reduction {ratio:.2}x < {MIN_ITER_RATIO}x"
    );
    assert!(
        max_rev <= DEV_TOL,
        "warm revenues deviate from cold by {max_rev:.3e} > {DEV_TOL:.1e}"
    );
}
