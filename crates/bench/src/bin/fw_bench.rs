//! `fw_bench` — the warm-start Frank–Wolfe pipeline's checked-in perf
//! baseline (`BENCH_fw.json`; first CLI argument overrides the path).
//!
//! For each instance it runs the anarchy-curve α-sweep twice — **cold**
//! (every induced solve bootstraps from all-or-nothing) and **warm** (each
//! α's follower solve is seeded from the previous α's follower flow) — and
//! records total Frank–Wolfe iterations, wall seconds, and the maximum
//! per-edge flow deviation between the two sweeps. The α-sweep is exactly
//! the workload the engine's profile memo + warm-start threading serve:
//! adjacent α equilibria are close, so the seeded solver skips the
//! sublinear bootstrap and converges in a handful of polish rounds.
//!
//! Instance mix: the paper's nets (Fig. 7, Braess) plus `try_random_spec_mixed`
//! parallel fleets (as 2-node networks) and random layered networks — the
//! same families `sopt gen` feeds the engine.
//!
//! Acceptance bars (asserted here, checked in CI):
//! * total warm iterations ≤ cold/3 (≥ 3× reduction);
//! * warm flows match cold flows within tolerance on every α-point.

use std::time::Instant;

use sopt_core::curve::{network_anarchy_curve, CurveOptions};
use sopt_instances::braess::{braess_classic, fig7_instance};
use sopt_instances::random::{try_random_layered_network, try_random_spec_mixed};
use sopt_network::graph::NodeId;
use sopt_network::instance::NetworkInstance;
use sopt_network::DiGraph;
use sopt_solver::frank_wolfe::FwOptions;

const ALPHA_STEPS: usize = 10;
const REPS: usize = 3;
/// Flow-parity bar: cold and warm sweeps must agree to this per edge.
const FLOW_TOL: f64 = 1e-5;
/// Iteration-reduction bar.
const MIN_ITER_RATIO: f64 = 3.0;

/// A `try_random_spec_mixed` parallel fleet member, modelled as a 2-node
/// network so it exercises the Frank–Wolfe pipeline.
fn parallel_as_network(m: usize, rate: f64, seed: u64) -> NetworkInstance {
    let links = try_random_spec_mixed(m, rate, seed).expect("valid generator parameters");
    let mut g = DiGraph::with_nodes(2);
    for _ in 0..links.m() {
        g.add_edge(NodeId(0), NodeId(1));
    }
    NetworkInstance::new(
        g,
        links.latencies().to_vec(),
        NodeId(0),
        NodeId(1),
        links.rate(),
    )
}

struct CaseNumbers {
    name: &'static str,
    edges: usize,
    cold_iters: usize,
    warm_iters: usize,
    cold_secs: f64,
    warm_secs: f64,
    max_flow_dev: f64,
    cost_dev: f64,
}

fn measure(name: &'static str, inst: &NetworkInstance) -> CaseNumbers {
    let alphas: Vec<f64> = (0..=ALPHA_STEPS)
        .map(|k| k as f64 / ALPHA_STEPS as f64)
        .collect();
    let opts = FwOptions::default();

    // Best-of-REPS wall time; iteration counts are deterministic.
    let mut cold_secs = f64::INFINITY;
    let mut warm_secs = f64::INFINITY;
    let mut cold = None;
    let mut warm = None;
    let sweep = |warm| {
        let copts = CurveOptions {
            warm,
            ..CurveOptions::default()
        };
        network_anarchy_curve(inst, &alphas, &opts, &copts).expect("α-sweep")
    };
    for _ in 0..REPS {
        let t = Instant::now();
        cold = Some(sweep(false));
        cold_secs = cold_secs.min(t.elapsed().as_secs_f64());
        let t = Instant::now();
        warm = Some(sweep(true));
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
        name,
        edges: inst.num_edges(),
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
        "{{\"name\": \"{}\", \"edges\": {}, \"cold_iters\": {}, \"warm_iters\": {}, \
         \"iter_ratio\": {}, \"cold_secs\": {}, \"warm_secs\": {}, \
         \"max_flow_dev\": {}, \"max_cost_dev\": {}}}",
        c.name,
        c.edges,
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
        .unwrap_or_else(|| "BENCH_fw.json".to_string());

    let cases = [
        measure("fig7-eps0.05", &fig7_instance(0.05)),
        measure("braess-classic", &braess_classic()),
        measure("spec-mixed-8", &parallel_as_network(8, 2.0, 17)),
        measure("spec-mixed-24", &parallel_as_network(24, 3.0, 29)),
        measure(
            "layered-4x4",
            &try_random_layered_network(4, 4, 8.0, 7).expect("valid generator parameters"),
        ),
        measure(
            "layered-6x6",
            &try_random_layered_network(6, 6, 20.0, 11).expect("valid generator parameters"),
        ),
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
    std::fs::write(&path, &json).expect("write BENCH_fw.json");
    print!("{json}");
    eprintln!("wrote {path}");

    assert!(
        ratio >= MIN_ITER_RATIO,
        "warm α-sweep iteration reduction {ratio:.2}x < {MIN_ITER_RATIO}x"
    );
    assert!(
        max_dev <= FLOW_TOL,
        "warm flows deviate from cold by {max_dev:.3e} > {FLOW_TOL:.1e}"
    );
}
