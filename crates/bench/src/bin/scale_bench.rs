//! `scale_bench` — the city-scale solver core's checked-in perf baseline
//! (`BENCH_scale.json`; first CLI argument overrides the path, `--full`
//! adds the ~10⁵-edge grid to the CI-sized pair).
//!
//! For each deterministic city grid (`try_grid_city`) it solves the
//! Wardrop assignment twice:
//!
//! * **pinned** — `stall_window: Some(0)`: the whole Frank–Wolfe budget
//!   runs before the polish, which records the cost of one FW iteration
//!   and a reference objective;
//! * **default** — `FwOptions::default()`, i.e. the absolute time to gap a
//!   caller gets (seconds, FW iterations, polish rounds, final relative
//!   gap, objective deviation from the pinned solve).
//!
//! Each grid also gets a shortest-path microbenchmark: µs/query and
//! settled nodes for the corner-to-corner query, as the full tree
//! (`SpWorkspace::dijkstra`, which MOP and the certificates run) and as
//! the solver's one search with the sink as its one target
//! (`SpWorkspace::shortest_to_many`, keys `targeted_*`). The far corner
//! is the last node a search from the near corner settles, so the same
//! search is also timed towards the grid's centre node (keys `centre_*`),
//! where its early exit shows. The file also
//! carries an engine throughput number (scenarios/second over a small grid
//! fleet) and the process's peak RSS from `/proc/self/status`.
//!
//! A multi-commodity arm measures the all-or-nothing phase on its own: a
//! 10⁴-edge grid OD matrix with many commodities over few origins, timing
//! one search per commodity (`AonMode::Sequential`) against one
//! one-to-many tree per origin (`AonMode::Grouped`) and its threaded
//! fan-out (`AonMode::Parallel`) at free-flow costs.
//!
//! Acceptance bars (asserted here, checked in CI):
//! * the default solve converges, at an objective within `1e-9` relative
//!   of the pinned solve's;
//! * the grouped AON phase is ≥ 2× faster than the sequential loop at
//!   ≥ 64 commodities over ≤ 16 origins, per-commodity flows bit-identical.

use std::time::Instant;

use sopt_instances::{grid_dims, try_grid_city, try_grid_city_multi};
use sopt_latency::Latency;
use sopt_network::csr::{Csr, SpPool, SpWorkspace};
use sopt_network::graph::NodeId;
use sopt_network::instance::NetworkInstance;
use sopt_network::EdgeFlow;
use sopt_solver::aon::aon_assign_targets;
use sopt_solver::frank_wolfe::FwOptions;
use sopt_solver::{AonMode, CommodityGroups};
use stackopt::api::{parse_batch_file, Engine};
use stackopt::fleet::{generate_fleet, Family};

/// Grid sides always measured: 960 and 10 200 edges.
const SIDES_CI: [usize; 2] = [16, 51];
/// Added by `--full`: 100 488 edges.
const SIDE_FULL: usize = 159;
/// Relative objective parity between the default and pinned solves.
const OBJECTIVE_TOL: f64 = 1e-9;
/// Shortest-path microbenchmark repetitions.
const SP_REPS: usize = 20;
/// AON-phase arm: grid side, commodity count, repetitions, speedup bar.
/// 256 demands collapse onto ≤ 16 origins (the generator's cap), so the
/// grouped path answers them from at most 16 one-to-many trees.
const AON_SIDE: usize = 51;
const AON_K: usize = 256;
const AON_REPS: usize = 5;
const AON_MIN_SPEEDUP: f64 = 2.0;

/// The default solver with the stall handover off, so it spends the whole
/// Frank–Wolfe budget before the polish.
fn pinned_opts() -> FwOptions {
    FwOptions {
        stall_window: Some(0),
        ..FwOptions::default()
    }
}

struct SolveNumbers {
    secs: f64,
    iters: usize,
    fw_iters: usize,
    polish_rounds: usize,
    rel_gap: f64,
    converged: bool,
    objective: f64,
}

fn solve_timed(inst: &NetworkInstance, opts: &FwOptions, reps: usize) -> SolveNumbers {
    let mut secs = f64::INFINITY;
    let mut result = None;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        result = Some(sopt_equilibrium::network::nash(inst, opts, None).expect("grid solve"));
        secs = secs.min(t.elapsed().as_secs_f64());
    }
    let r = result.expect("at least one rep");
    SolveNumbers {
        secs,
        iters: r.iterations,
        fw_iters: r.fw_iterations,
        polish_rounds: r.polish_rounds,
        rel_gap: r.rel_gap,
        converged: r.converged,
        objective: r.objective,
    }
}

struct SpNumbers {
    full_us: f64,
    targeted_us: f64,
    full_settled: usize,
    targeted_settled: usize,
    centre_us: f64,
    centre_settled: usize,
}

/// Best of `SP_REPS` timings of `query` in µs, with the settled-node count
/// it leaves in `sp`.
fn time_query(sp: &mut SpWorkspace, mut query: impl FnMut(&mut SpWorkspace)) -> (f64, usize) {
    let mut best = f64::INFINITY;
    for _ in 0..SP_REPS {
        let t = Instant::now();
        query(sp);
        best = best.min(t.elapsed().as_secs_f64());
    }
    (best * 1e6, sp.settled_nodes())
}

/// Times the corner-to-corner query at free-flow costs: the full tree
/// vs. the one-target search the solver runs, and that search towards the
/// centre node of the `side × side` grid.
fn sp_micro(inst: &NetworkInstance, side: usize) -> SpNumbers {
    let csr = Csr::new(&inst.graph);
    let costs: Vec<f64> = inst.latencies.iter().map(|l| l.value(0.0)).collect();
    let mut sp = SpWorkspace::new();
    let (full_us, full_settled) = time_query(&mut sp, |sp| {
        sp.dijkstra(&csr, &costs, inst.source);
        assert!(sp.reached(inst.sink), "grid sink unreachable");
    });
    let (targeted_us, targeted_settled) = time_query(&mut sp, |sp| {
        let reached = sp.shortest_to_many(&csr, &costs, inst.source, &[inst.sink]);
        assert_eq!(reached, 1, "grid sink unreachable");
    });
    // Grid nodes are numbered row by row.
    let centre = NodeId(((side / 2) * side + side / 2) as u32);
    let (centre_us, centre_settled) = time_query(&mut sp, |sp| {
        let reached = sp.shortest_to_many(&csr, &costs, inst.source, &[centre]);
        assert_eq!(reached, 1, "grid centre unreachable");
    });
    SpNumbers {
        full_us,
        targeted_us,
        full_settled,
        targeted_settled,
        centre_us,
        centre_settled,
    }
}

struct GridCase {
    side: usize,
    nodes: usize,
    edges: usize,
    /// The solve with the stall handover off.
    pinned: SolveNumbers,
    /// The solve under `FwOptions::default()` (plateau handover on).
    default: SolveNumbers,
    sp: SpNumbers,
}

fn measure(side: usize) -> GridCase {
    let (nodes, edges) = grid_dims(side).expect("bench sides are valid");
    let inst = try_grid_city(side, 1.0, side as u64).expect("bench grid");
    // Best-of timing; big grids get one rep to keep CI affordable.
    let reps = if edges >= 50_000 { 1 } else { 3 };
    GridCase {
        side,
        nodes,
        edges,
        pinned: solve_timed(&inst, &pinned_opts(), reps),
        default: solve_timed(&inst, &FwOptions::default(), reps),
        sp: sp_micro(&inst, side),
    }
}

struct AonCase {
    side: usize,
    commodities: usize,
    origins: usize,
    sequential_us: f64,
    grouped_us: f64,
    parallel_us: f64,
    max_flow_dev: f64,
}

/// Times one all-or-nothing assignment of a many-commodity grid OD matrix
/// at free-flow costs: one search per commodity vs. the origin-grouped
/// one-to-many tree, single-threaded and threaded.
fn aon_micro() -> AonCase {
    let inst = try_grid_city_multi(AON_SIDE, 64.0, AON_K, 7).expect("aon bench grid");
    let m = inst.graph.num_edges();
    let csr = Csr::new(&inst.graph);
    let costs: Vec<f64> = inst.latencies.iter().map(|l| l.value(0.0)).collect();
    let demands: Vec<(NodeId, NodeId, f64)> = inst
        .commodities
        .iter()
        .map(|c| (c.source, c.sink, c.rate))
        .collect();
    let mut groups = CommodityGroups::new();
    groups.rebuild(&demands);

    let run_mode = |mode: AonMode| -> (f64, Vec<EdgeFlow>) {
        let mut ws = SpWorkspace::new();
        let mut pool = SpPool::new();
        let mut ys = vec![EdgeFlow::zeros(m); demands.len()];
        let mut best = f64::INFINITY;
        for _ in 0..AON_REPS {
            let t = Instant::now();
            aon_assign_targets(
                &csr, &mut ws, &mut pool, &groups, mode, &costs, &demands, &mut ys,
            )
            .expect("grid sinks reachable");
            best = best.min(t.elapsed().as_secs_f64() * 1e6);
        }
        (best, ys)
    };
    let (sequential_us, seq) = run_mode(AonMode::Sequential);
    let (grouped_us, grouped_ys) = run_mode(AonMode::Grouped);
    let (parallel_us, parallel_ys) = run_mode(AonMode::Parallel);

    let mut max_flow_dev = 0.0f64;
    for ys in [&grouped_ys, &parallel_ys] {
        for (a, b) in ys.iter().zip(&seq) {
            for (x, y) in a.0.iter().zip(&b.0) {
                max_flow_dev = max_flow_dev.max((x - y).abs());
            }
        }
    }
    AonCase {
        side: AON_SIDE,
        commodities: AON_K,
        origins: groups.num_groups(),
        sequential_us,
        grouped_us,
        parallel_us,
        max_flow_dev,
    }
}

/// Engine throughput over a small grid fleet — the `sopt gen --family
/// grid | sopt batch` pipeline as one number.
fn fleet_scenarios_per_sec() -> f64 {
    let text = generate_fleet(Family::Grid, 24, 7, Some(8), 1.0, None).expect("grid fleet");
    let scenarios = parse_batch_file(&text).expect("fleet parses");
    let n = scenarios.len();
    let t = Instant::now();
    for r in Engine::new(scenarios).run() {
        r.expect("fleet scenario solves");
    }
    n as f64 / t.elapsed().as_secs_f64()
}

/// Peak resident set size in kilobytes, from `/proc/self/status` (`None`
/// off Linux).
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
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

/// Relative objective deviation of the default solve from the pinned one.
fn default_objective_dev(c: &GridCase) -> f64 {
    (c.default.objective - c.pinned.objective).abs() / c.pinned.objective.abs().max(1e-300)
}

fn case_json(c: &GridCase) -> String {
    format!(
        "{{\"side\": {}, \"nodes\": {}, \"edges\": {}, \
         \"pinned\": {{\"secs\": {}, \"iters\": {}, \"secs_per_iter\": {}}}, \
         \"default\": {{\"secs\": {}, \"fw_iters\": {}, \"polish_rounds\": {}, \
         \"rel_gap\": {}, \"converged\": {}, \"objective_rel_dev\": {}}}, \
         \"sp\": {{\"full_us\": {}, \"targeted_us\": {}, \
         \"full_settled\": {}, \"targeted_settled\": {}, \
         \"centre_us\": {}, \"centre_settled\": {}}}}}",
        c.side,
        c.nodes,
        c.edges,
        num(c.pinned.secs),
        c.pinned.iters,
        sci(c.pinned.secs / c.pinned.iters.max(1) as f64),
        num(c.default.secs),
        c.default.fw_iters,
        c.default.polish_rounds,
        sci(c.default.rel_gap),
        c.default.converged,
        sci(default_objective_dev(c)),
        num(c.sp.full_us),
        num(c.sp.targeted_us),
        c.sp.full_settled,
        c.sp.targeted_settled,
        num(c.sp.centre_us),
        c.sp.centre_settled,
    )
}

fn main() {
    let mut path = "BENCH_scale.json".to_string();
    let mut full = false;
    for arg in std::env::args().skip(1) {
        if arg == "--full" {
            full = true;
        } else {
            path = arg;
        }
    }

    let mut sides: Vec<usize> = SIDES_CI.to_vec();
    if full {
        sides.push(SIDE_FULL);
    }
    let cases: Vec<GridCase> = sides
        .iter()
        .map(|&s| {
            let c = measure(s);
            eprintln!(
                "side {}: {} edges, pinned {:.3}s ({} iterations); \
                 default {:.3}s ({} FW iterations + {} polish rounds, gap {:.1e})",
                c.side,
                c.edges,
                c.pinned.secs,
                c.pinned.iters,
                c.default.secs,
                c.default.fw_iters,
                c.default.polish_rounds,
                c.default.rel_gap
            );
            c
        })
        .collect();

    let aon = aon_micro();
    eprintln!(
        "aon: {} commodities over {} origins, sequential {:.0}us, grouped {:.0}us ({:.2}x), \
         parallel {:.0}us ({:.2}x), flow dev {:.2e}",
        aon.commodities,
        aon.origins,
        aon.sequential_us,
        aon.grouped_us,
        aon.sequential_us / aon.grouped_us.max(1e-12),
        aon.parallel_us,
        aon.sequential_us / aon.parallel_us.max(1e-12),
        aon.max_flow_dev
    );

    let scenarios_per_sec = fleet_scenarios_per_sec();
    let case_lines: Vec<String> = cases
        .iter()
        .map(|c| format!("    {}", case_json(c)))
        .collect();
    let aon_json = format!(
        "{{\"side\": {}, \"commodities\": {}, \"origins\": {}, \
         \"sequential_us\": {}, \"grouped_us\": {}, \"parallel_us\": {}, \
         \"grouped_speedup\": {}, \"parallel_speedup\": {}, \"max_flow_dev\": {}}}",
        aon.side,
        aon.commodities,
        aon.origins,
        num(aon.sequential_us),
        num(aon.grouped_us),
        num(aon.parallel_us),
        num(aon.sequential_us / aon.grouped_us.max(1e-12)),
        num(aon.sequential_us / aon.parallel_us.max(1e-12)),
        sci(aon.max_flow_dev),
    );
    let json = format!(
        "{{\n  \"full\": {full},\n  \"cases\": [\n{}\n  ],\n  \
         \"aon\": {aon_json},\n  \
         \"fleet\": {{\"family\": \"grid\", \"count\": 24, \"side\": 8, \
         \"scenarios_per_sec\": {}}},\n  \"peak_rss_kb\": {}\n}}\n",
        case_lines.join(",\n"),
        num(scenarios_per_sec),
        peak_rss_kb()
            .map(|kb| kb.to_string())
            .unwrap_or_else(|| "null".to_string()),
    );
    std::fs::write(&path, &json).expect("write BENCH_scale.json");
    print!("{json}");
    eprintln!("wrote {path}");

    for c in &cases {
        assert!(
            c.default.converged && default_objective_dev(c) <= OBJECTIVE_TOL,
            "side {}: default solve (converged: {}) deviates from the pinned solve by {:.3e} > \
             {OBJECTIVE_TOL:.1e}",
            c.side,
            c.default.converged,
            default_objective_dev(c)
        );
    }
    assert!(
        aon.max_flow_dev == 0.0,
        "aon: grouped/parallel flows deviate from sequential by {:.3e}; every mode runs \
         the same search",
        aon.max_flow_dev
    );
    let grouped_speedup = aon.sequential_us / aon.grouped_us.max(1e-12);
    assert!(
        grouped_speedup >= AON_MIN_SPEEDUP,
        "aon: {} commodities over {} origins grouped only {grouped_speedup:.2}x < \
         {AON_MIN_SPEEDUP}x",
        aon.commodities,
        aon.origins
    );
}
