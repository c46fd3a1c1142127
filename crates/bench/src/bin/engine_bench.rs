//! `engine-bench` — the engine's checked-in perf baseline.
//!
//! Measures the `stackopt::api::engine` worker pool and cache and writes
//! the numbers to `BENCH_engine.json` (first CLI argument overrides the
//! path):
//!
//! * **engine wall time** — best-of-3 wall seconds and scenarios per
//!   second for a uniform and a skewed fleet at 8 threads, cache off.
//!   Machine-dependent: on fewer than 8 cores the workers share them.
//! * **model speedup** — per-scenario solve durations are measured once,
//!   then replayed through two schedules *analytically*: contiguous
//!   equal-count chunks (makespan: the heaviest chunk) and the pool's
//!   longest-first queue (makespan: the heaviest worker when each job, in
//!   descending duration, goes to the worker that frees up first — LPT
//!   list scheduling, which is what popping the costliest job left does
//!   while the cost model ranks jobs as their durations do).
//!   Machine-independent, and the number the ≥ 2× acceptance bar is judged
//!   on.
//! * **cache** — cold vs warm wall time on an identical fleet, each the
//!   best of `REPS` reps on a fresh cache, the lowest warm hit rate, and a
//!   bit-identical check of every rep's replayed reports.

use std::sync::Arc;
use std::time::Instant;

use stackopt::api::engine::scenario_cost;
use stackopt::api::{
    parse_batch_file, Engine, Report, Scenario, SolveCache, SolveOptions, SoptError, Task,
};
use stackopt::fleet::{generate_fleet, Family};

const THREADS: usize = 8;
const REPS: usize = 3;

fn fleet_of(family: Family, count: usize, size: usize, rate: f64, seed: u64) -> Vec<Scenario> {
    parse_batch_file(&generate_fleet(family, count, seed, Some(size), rate, None).unwrap()).unwrap()
}

fn uniform_fleet() -> Vec<Scenario> {
    fleet_of(Family::Affine, 128, 4, 1.0, 11)
}

fn skewed_fleet() -> Vec<Scenario> {
    let mut fleet = fleet_of(Family::Affine, 4, 512, 5.0, 23);
    fleet.extend(fleet_of(Family::Affine, 124, 4, 1.0, 31));
    fleet
}

/// Best-of-`REPS` wall seconds for `f`.
fn wall(mut f: impl FnMut()) -> f64 {
    (0..REPS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Per-scenario solve durations (seconds), measured sequentially.
/// Best-of-`REPS` per scenario: single samples of the tiny (~10 µs)
/// scenarios are dominated by timer and scheduling noise on a busy host,
/// which would wobble the model makespans run to run.
fn durations(fleet: &[Scenario], options: &SolveOptions) -> Vec<f64> {
    fleet
        .iter()
        .map(|sc| {
            (0..REPS)
                .map(|_| {
                    let t = Instant::now();
                    let _ = sc.clone().solve().options(options.clone()).run();
                    t.elapsed().as_secs_f64()
                })
                .fold(f64::INFINITY, f64::min)
        })
        .collect()
}

/// Makespan of contiguous equal-count chunks, one per thread: the heaviest
/// chunk.
fn chunked_makespan(durations: &[f64], threads: usize) -> f64 {
    let chunk = durations.len().div_ceil(threads);
    durations
        .chunks(chunk)
        .map(|c| c.iter().sum())
        .fold(0.0f64, f64::max)
}

/// Makespan of the engine's schedule: longest-processing-time-first onto
/// the least-loaded worker, i.e. the worker that frees up first.
fn lpt_makespan(durations: &[f64], threads: usize) -> f64 {
    let mut order: Vec<usize> = (0..durations.len()).collect();
    order.sort_by(|&a, &b| durations[b].total_cmp(&durations[a]));
    let mut loads = vec![0.0f64; threads];
    for i in order {
        let w = (0..threads)
            .min_by(|&a, &b| loads[a].total_cmp(&loads[b]))
            .expect("threads >= 1");
        loads[w] += durations[i];
    }
    loads.into_iter().fold(0.0f64, f64::max)
}

fn rendered(results: &[Result<Report, SoptError>]) -> Vec<String> {
    results
        .iter()
        .map(|r| match r {
            Ok(rep) => rep.to_json(),
            Err(e) => format!("{e:?}"),
        })
        .collect()
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "null".to_string()
    }
}

struct FleetNumbers {
    scenarios: usize,
    engine_secs: f64,
    engine_sps: f64,
    model_speedup: f64,
}

fn measure_fleet(fleet: Vec<Scenario>, options: &SolveOptions) -> FleetNumbers {
    let n = fleet.len();
    let engine_secs = wall(|| {
        let f = fleet.clone();
        Engine::new(f)
            .options(options.clone())
            .threads(THREADS)
            .no_cache()
            .run();
    });
    let d = durations(&fleet, options);
    FleetNumbers {
        scenarios: n,
        engine_secs,
        engine_sps: n as f64 / engine_secs,
        model_speedup: chunked_makespan(&d, THREADS) / lpt_makespan(&d, THREADS),
    }
}

fn fleet_json(f: &FleetNumbers) -> String {
    format!(
        "{{\"scenarios\": {}, \"engine_secs\": {}, \
         \"engine_scenarios_per_sec\": {}, \"model_speedup\": {}}}",
        f.scenarios,
        num(f.engine_secs),
        num(f.engine_sps),
        num(f.model_speedup)
    )
}

fn main() {
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_engine.json".to_string());
    let options = SolveOptions {
        task: Task::Beta,
        ..SolveOptions::default()
    };

    let uniform = measure_fleet(uniform_fleet(), &options);
    let skewed = measure_fleet(skewed_fleet(), &options);

    // Cost-model sanity: the skewed fleet's big scenarios must dominate.
    let skew = skewed_fleet();
    let costs: Vec<u64> = skew.iter().map(|sc| scenario_cost(sc, &options)).collect();
    let max_cost = *costs.iter().max().expect("nonempty fleet");
    let min_cost = *costs.iter().min().expect("nonempty fleet");

    // Cache axis: identical fleet, cold then warm on a fresh cache per rep;
    // best-of-`REPS` times, and every rep's warm reports bit-identical.
    let fleet = uniform_fleet();
    let (mut cold_secs, mut warm_secs) = (f64::INFINITY, f64::INFINITY);
    let mut hit_rate = f64::INFINITY;
    let mut bit_identical = true;
    for _ in 0..REPS {
        let cache = Arc::new(SolveCache::new());
        let run = |cache: &Arc<SolveCache>| {
            let t = Instant::now();
            let out = Engine::new(fleet.clone())
                .options(options.clone())
                .threads(THREADS)
                .cache(Arc::clone(cache))
                .run_stats();
            (out, t.elapsed().as_secs_f64())
        };
        let ((cold, _), cold_t) = run(&cache);
        let ((warm, warm_stats), warm_t) = run(&cache);
        cold_secs = cold_secs.min(cold_t);
        warm_secs = warm_secs.min(warm_t);
        hit_rate = hit_rate.min(warm_stats.hit_rate());
        bit_identical &= rendered(&cold) == rendered(&warm);
    }

    let json = format!(
        "{{\n  \"threads\": {THREADS},\n  \"uniform\": {},\n  \"skewed\": {},\n  \
         \"cost_model\": {{\"max_cost\": {max_cost}, \"min_cost\": {min_cost}}},\n  \
         \"cache\": {{\"cold_secs\": {}, \"warm_secs\": {}, \"warm_speedup\": {}, \
         \"hit_rate\": {}, \"bit_identical\": {bit_identical}}}\n}}\n",
        fleet_json(&uniform),
        fleet_json(&skewed),
        num(cold_secs),
        num(warm_secs),
        num(cold_secs / warm_secs),
        num(hit_rate),
    );
    std::fs::write(&path, &json).expect("write BENCH_engine.json");
    print!("{json}");
    eprintln!("wrote {path}");

    assert!(
        skewed.model_speedup >= 2.0,
        "skewed model speedup {} < 2x",
        skewed.model_speedup
    );
    assert!(hit_rate >= 0.9, "warm hit rate {hit_rate} < 0.9");
    assert!(bit_identical, "warm reports differ from cold");
}
