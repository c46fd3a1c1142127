//! The in-process workloads, `city` and `city-od`: cold `beta` ops, one at
//! a time on one thread. Also the stage replay and obs helpers the traced
//! `serve` run shares.

use std::time::{Duration, Instant};

use stackopt::api::engine::Fingerprint;
use stackopt::api::{EqKind, Report, Scenario, ScenarioModel, SolveOptions, Task};
use stackopt::obs::MetricsSnapshot;
use stackopt::solver::frank_wolfe::FwOptions;

use crate::check::{self, Tally};
use crate::stats::{self, median, metric, Metric};
use crate::trace::Tracer;
use crate::{Args, Outcome};

/// Set-up repetitions; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// Parses every spec, `SETUP_REPS` times; returns the last parse and the
/// per-repetition wall times.
fn parse_all(specs: &[String]) -> (Vec<Scenario>, Vec<f64>) {
    let mut times = Vec::new();
    let mut parsed = Vec::new();
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        parsed = specs
            .iter()
            .map(|s| Scenario::parse(s).expect("generated specs parse"))
            .collect();
        times.push(t.elapsed().as_secs_f64());
    }
    (parsed, times)
}

fn mb(specs: &[String]) -> f64 {
    specs.iter().map(|s| s.len()).sum::<usize>() as f64 / 1e6
}

/// The knob set `Solve::run` uses by default, as Frank–Wolfe options.
fn default_fw() -> FwOptions {
    let o = SolveOptions::default();
    FwOptions {
        rel_gap: o.tolerance,
        max_iters: o.max_iters,
        aon: o.aon,
        ..FwOptions::default()
    }
}

/// One timed op: a parsed scenario through `Solve::run` to a checked
/// `Report::to_json`.
fn beta_op(scenario: Scenario, tally: &mut Tally) -> (f64, Option<Report>) {
    let t = Instant::now();
    let result = scenario.solve().task(Task::Beta).run();
    let json_len = result.as_ref().map_or(0, |r| r.to_json().len());
    let dt = t.elapsed().as_secs_f64();
    match result {
        Ok(report) => {
            tally.record(if json_len > 0 {
                check::report_ok(&report)
            } else {
                Err("empty report".into())
            });
            (dt, Some(report))
        }
        Err(e) => {
            tally.record(Err(e.to_string()));
            (dt, None)
        }
    }
}

/// What replaying one `beta` op through the `ScenarioModel` stages gave.
pub struct Replay {
    pub beta: f64,
    pub costs: [f64; 3],
    /// `(fw_iterations, polish_rounds)` of every Frank–Wolfe profile.
    pub profiles: Vec<(usize, usize)>,
}

/// Replays `solve_beta`: optimum profile (when the plan needs it), the
/// β-plan, the Nash profile (when the plan did not price it), then the
/// induced solve — each stage inside its own span under `parent`.
pub fn replay_beta(
    tr: &mut Tracer,
    op: u64,
    parent: Option<usize>,
    scenario: &Scenario,
) -> Result<Replay, String> {
    let fw = default_fw();
    let model: &dyn ScenarioModel = scenario.model();
    let mut profiles = Vec::new();
    let mut note = |p: &stackopt::api::ModelProfile| {
        if let Some(r) = p.flow_result() {
            profiles.push((r.fw_iterations, r.polish_rounds));
        }
    };
    let optimum = if model.plan_needs_optimum() {
        let p = tr
            .span("model.profile", op, parent, || {
                model.solve_profile(EqKind::Optimum, &fw)
            })
            .map_err(|e| e.to_string())?;
        note(&p);
        Some(p)
    } else {
        None
    };
    let plan = tr
        .span("model.plan", op, parent, || {
            model.beta_plan(optimum.as_ref())
        })
        .map_err(|e| e.to_string())?;
    let nash_cost = match plan.nash_cost {
        Some(c) => c,
        None => {
            let p = tr
                .span("model.profile", op, parent, || {
                    model.solve_profile(EqKind::Nash, &fw)
                })
                .map_err(|e| e.to_string())?;
            note(&p);
            model.cost(p.flows())
        }
    };
    let induced = tr
        .span("model.induced", op, parent, || {
            model.induced(
                &plan.leader,
                &plan.leader_values,
                &fw,
                plan.induced_seed.as_ref(),
            )
        })
        .map_err(|e| e.to_string())?;
    let total: Vec<f64> = plan
        .leader
        .iter()
        .zip(&induced.follower)
        .map(|(a, b)| a + b)
        .collect();
    Ok(Replay {
        beta: plan.beta,
        costs: [nash_cost, plan.optimum_cost, model.cost(&total)],
        profiles,
    })
}

/// Whether a replay reproduces a report's β and costs bit for bit.
pub fn replay_matches(replay: &Replay, report: &Report) -> bool {
    report.data.as_beta().is_some_and(|b| {
        b.beta == replay.beta
            && b.nash_cost == replay.costs[0]
            && b.optimum_cost == replay.costs[1]
            && b.induced_cost == replay.costs[2]
    })
}

/// Obs counters and histogram sums between two snapshots.
pub struct ObsDelta {
    pub before: MetricsSnapshot,
    pub after: MetricsSnapshot,
}

impl ObsDelta {
    pub fn counter(&self, name: &str) -> f64 {
        (self.after.counter(name).unwrap_or(0) - self.before.counter(name).unwrap_or(0)) as f64
    }

    /// `(count, seconds)` recorded into a phase histogram.
    pub fn phase(&self, name: &str) -> (f64, f64) {
        let get = |s: &MetricsSnapshot| s.phase(name).map_or((0, 0), |h| (h.count, h.sum));
        let (c0, s0) = get(&self.before);
        let (c1, s1) = get(&self.after);
        ((c1 - c0) as f64, (s1 - s0) as f64 / 1e6)
    }
}

/// The solver-side per-layer metrics (FW, AON, shortest paths) from an obs
/// delta, normalised per op.
pub fn solver_layers(d: &ObsDelta, ops: f64, base: &str, out: &mut Vec<Metric>) {
    let per = |v: f64| stats::ratio(v, ops);
    let (_, cold_s) = d.phase("cold_solve");
    let (_, polish_s) = d.phase("warm_polish");
    let (aon_n, aon_s) = d.phase("aon");
    let (sp_n, sp_s) = d.phase("sp_query");
    let iters = d.counter("fw_iterations");
    out.push(metric(
        "fw.cold_s",
        per(cold_s),
        "s",
        format!("per op, {base}"),
    ));
    out.push(metric(
        "fw.polish_s",
        per(polish_s),
        "s",
        format!("per op, {base}"),
    ));
    out.push(metric(
        "fw.loop_us_per_iter",
        stats::ratio((cold_s - aon_s).max(0.0) * 1e6, iters),
        "us",
        format!("(cold - aon) over {iters} obs FW iterations"),
    ));
    out.push(metric(
        "aon.s",
        per(aon_s),
        "s",
        format!("per op over {aon_n} passes, {base}"),
    ));
    out.push(metric(
        "aon.share",
        stats::ratio(aon_s, cold_s),
        "ratio",
        format!("aon {aon_s:.3} s over cold {cold_s:.3} s"),
    ));
    out.push(metric(
        "aon.groups",
        per(d.counter("aon_groups")),
        "count",
        format!("per op, {base}"),
    ));
    out.push(metric(
        "aon.queries_saved",
        per(d.counter("aon_queries_saved")),
        "count",
        format!("per op, {base}"),
    ));
    out.push(metric(
        "sp.queries",
        per(sp_n),
        "count",
        format!("per op, {base}"),
    ));
    out.push(metric("sp.s", per(sp_s), "s", format!("per op, {base}")));
    out.push(metric(
        "sp.settled_per_query",
        stats::ratio(d.counter("sp_settled_nodes"), sp_n),
        "count",
        format!("over {sp_n} queries"),
    ));
}

/// The FW profile counts of replayed ops.
pub fn profile_layers(replays: &[Replay], out: &mut Vec<Metric>) {
    let ops = replays.len() as f64;
    let profiles: Vec<(usize, usize)> = replays.iter().flat_map(|r| r.profiles.clone()).collect();
    let iters: usize = profiles.iter().map(|p| p.0).sum();
    let rounds: usize = profiles.iter().map(|p| p.1).sum();
    let capped = profiles
        .iter()
        .filter(|p| p.0 >= default_fw().max_iters)
        .count();
    out.push(metric(
        "fw.iters_per_op",
        stats::ratio(iters as f64, ops),
        "count",
        format!("{iters} FW iterations over {ops} replayed beta ops"),
    ));
    out.push(metric(
        "fw.polish_rounds_per_op",
        stats::ratio(rounds as f64, ops),
        "count",
        format!("{rounds} polish rounds over {ops} replayed beta ops"),
    ));
    out.push(metric(
        "fw.capped_ratio",
        stats::ratio(capped as f64, profiles.len() as f64),
        "ratio",
        format!(
            "{capped} of {} profiles used all of max_iters",
            profiles.len()
        ),
    ));
}

/// Stage self times of replayed ops, per op.
pub fn model_layers(tr: &Tracer, ops: usize, mismatches: usize, out: &mut Vec<Metric>) {
    for (name, span) in [
        ("model.profile_s", "model.profile"),
        ("model.plan_s", "model.plan"),
        ("model.induced_s", "model.induced"),
    ] {
        let (s, n) = tr.self_time(span);
        out.push(metric(
            name,
            stats::ratio(s, ops as f64),
            "s",
            format!("self time per op over {n} spans, {ops} ops"),
        ));
    }
    out.push(metric(
        "model.replay_mismatches",
        mismatches as f64,
        "count",
        format!("replays whose beta or costs differ from Solve::run, of {ops}"),
    ));
}

/// A metric holding the mean duration of the spans called `span`.
pub fn span_metric(tr: &Tracer, name: &'static str, span: &str, call: &str) -> Metric {
    let (us, n) = tr.mean_us(span);
    metric(name, us, "us", format!("mean of {n} {call} calls"))
}

/// Fills every per-layer metric not produced by a workload with 0 and the
/// reason, so each traced run prints the whole set.
pub fn idle(name: &'static str, unit: &'static str, why: &str) -> Metric {
    metric(name, 0.0, unit, format!("idle: {why}"))
}

// ---------------------------------------------------------------------------
// city, city-od
// ---------------------------------------------------------------------------

/// Distinct instances generated per run (`city`, `city-od`); the op loop
/// cycles through them.
const CITY_SPECS: [usize; 2] = [128, 48];
/// Ops per phase of a traced run (`city`, `city-od`): a fixed count, so
/// the per-op counts repeat exactly for a given seed.
const CITY_TRACED_OPS: [usize; 2] = [8, 16];

pub fn run_city(args: &Args, od: bool) -> Outcome {
    let specs = if od {
        crate::gen::city_od_specs(args.seed, CITY_SPECS[1])
    } else {
        crate::gen::city_specs(args.seed, CITY_SPECS[0])
    };
    let (scenarios, setup_times) = parse_all(&specs);
    let setup_s = median(&setup_times);
    // Untimed warm-up: a small grid of the same class on this thread.
    let warm = if od {
        Scenario::from(
            stackopt::instances::try_grid_city_multi(12, 1.0, 16, args.seed)
                .expect("valid grid parameters"),
        )
    } else {
        Scenario::from(
            stackopt::instances::try_grid_city(16, 1.0, args.seed).expect("valid grid parameters"),
        )
    };
    let _ = warm.solve().run();

    let mut tally = Tally::default();
    if args.trace {
        return city_traced(args, od, &specs, &scenarios, setup_times, tally);
    }
    let window = Duration::from_secs_f64(args.seconds);
    let started = Instant::now();
    let mut times = Vec::new();
    let mut i = 0;
    while started.elapsed() < window {
        let (dt, _) = beta_op(scenarios[i % scenarios.len()].clone(), &mut tally);
        times.push(dt);
        i += 1;
    }
    let wall = started.elapsed().as_secs_f64();
    tally.log();
    eprintln!("perfbench: op seconds {times:.3?}");
    let n = times.len();
    let metrics = vec![
        metric(
            "setup_s",
            setup_s,
            "s",
            format!(
                "median of {SETUP_REPS} parses of {n} specs",
                n = specs.len()
            ),
        ),
        metric("solve_s", median(&times), "s", format!("median of {n} ops")),
        metric(
            "throughput_per_s",
            n as f64 / wall,
            "1/s",
            format!("{n} ops in {wall:.2} s"),
        ),
        metric(
            "peak_rss_mb",
            stats::peak_rss_mb(None),
            "MB",
            "VmHWM of this process",
        ),
    ];
    Outcome { metrics, tally }
}

fn city_traced(
    args: &Args,
    od: bool,
    specs: &[String],
    scenarios: &[Scenario],
    setup_times: Vec<f64>,
    mut tally: Tally,
) -> Outcome {
    let ops = &scenarios[..CITY_TRACED_OPS[usize::from(od)]];
    // Untraced, then traced, on the same ops: the pair gives the overhead.
    let base: Vec<f64> = ops
        .iter()
        .map(|s| beta_op(s.clone(), &mut tally).0)
        .collect();
    let rec = stackopt::obs::enable();
    let before = rec.snapshot();
    let cpu0 = stats::cpu_seconds(None);
    let t_traced = Instant::now();
    let mut traced = Vec::new();
    let mut reports = Vec::new();
    for s in ops {
        let (dt, r) = beta_op(s.clone(), &mut tally);
        traced.push(dt);
        reports.push(r);
    }
    let wall = t_traced.elapsed().as_secs_f64();
    let cpu = stats::cpu_seconds(None) - cpu0;
    let delta = ObsDelta {
        before,
        after: rec.snapshot(),
    };

    let mut tr = Tracer::new();
    let mut replays = Vec::new();
    let mut mismatches = 0;
    let options = SolveOptions::default();
    for (k, s) in ops.iter().enumerate() {
        let op = k as u64;
        let root = tr.begin("op", op, None);
        tr.span("fingerprint", op, Some(root), || {
            Fingerprint::of(s, &options)
        });
        match replay_beta(&mut tr, op, Some(root), s) {
            Ok(r) => {
                if !reports[k]
                    .as_ref()
                    .is_some_and(|rep| replay_matches(&r, rep))
                {
                    mismatches += 1;
                }
                replays.push(r);
            }
            Err(e) => {
                eprintln!("perfbench: replay failed: {e}");
                mismatches += 1;
            }
        }
        if let Some(rep) = &reports[k] {
            tr.span("report.json", op, Some(root), || rep.to_json());
        }
        tr.end(root);
    }
    tally.log();
    let n = ops.len();
    let mut out = Vec::new();
    let parse_s = median(&setup_times);
    out.push(metric(
        "spec.parse_ms_per_mb",
        stats::ratio(parse_s * 1e3, mb(specs)),
        "ms/MB",
        format!("median of {SETUP_REPS} parses of {:.2} MB", mb(specs)),
    ));
    model_layers(&tr, n, mismatches, &mut out);
    profile_layers(&replays, &mut out);
    solver_layers(&delta, n as f64, &format!("{n} traced ops"), &mut out);
    out.push(span_metric(
        &tr,
        "fingerprint.us",
        "fingerprint",
        "Fingerprint::of",
    ));
    out.push(idle(
        "cache.report_hit_ratio",
        "ratio",
        "Solve::run has no memo",
    ));
    out.push(idle(
        "cache.profile_hit_ratio",
        "ratio",
        "Solve::run has no memo",
    ));
    out.push(idle("cache.disk_hits", "count", "no persistence"));
    out.push(idle("cache.lookup_us", "us", "no cache lookups"));
    out.push(idle("persist.replay_s", "s", "no persistence"));
    out.push(idle("persist.records", "count", "no persistence"));
    out.push(idle("persist.log_mb", "MB", "no persistence"));
    out.push(metric(
        "sched.cpu_util",
        stats::ratio(cpu, stats::threads() as f64 * wall),
        "ratio",
        format!(
            "{cpu:.2} CPU-s over {} threads x {wall:.2} s",
            stats::threads()
        ),
    ));
    let class_ms = stats::mean(&traced) * 1e3;
    let (net, multi) = if od { (0.0, class_ms) } else { (class_ms, 0.0) };
    out.push(idle(
        "solve.parallel_us",
        "us",
        "no parallel-link scenarios",
    ));
    out.push(metric(
        "solve.network_ms",
        net,
        "ms",
        format!("mean of {n} traced ops"),
    ));
    out.push(metric(
        "solve.multi_ms",
        multi,
        "ms",
        format!("mean of {n} traced ops"),
    ));
    serve_idle(&mut out);
    out.push(idle("codec.decode_us", "us", "no wire requests"));
    out.push(idle("codec.encode_us", "us", "no wire responses"));
    out.push(span_metric(
        &tr,
        "report.json_us",
        "report.json",
        "Report::to_json",
    ));
    let (b, t) = (base.iter().sum::<f64>(), traced.iter().sum::<f64>());
    out.push(metric(
        "obs.overhead_pct",
        100.0 * stats::ratio(t - b, b),
        "%",
        format!("{n} ops: traced {t:.3} s vs untraced {b:.3} s"),
    ));
    out.push(idle("loadgen.late_p99_ms", "ms", "no load generator"));
    out.push(metric(
        "fail_pct",
        tally.fail_pct(),
        "%",
        format!("{} of {} checks failed", tally.failed, tally.attempted),
    ));
    crate::write_trace(args, &tr, &rec.snapshot());
    Outcome {
        metrics: out,
        tally,
    }
}

pub fn serve_idle(out: &mut Vec<Metric>) {
    for name in [
        "serve.queue_wait_p50_ms",
        "serve.queue_wait_p99_ms",
        "serve.service_p50_ms",
        "serve.service_p99_ms",
        "serve.p50_ms",
        "serve.p99_ms",
        "serve.ctl_p90_ms",
    ] {
        out.push(idle(name, "ms", "no daemon"));
    }
    out.push(idle("serve.dropped", "count", "no daemon"));
}
