//! `perfbench` — the stackopt benchmark harness.
//!
//! ```text
//! perfbench --workload city|city-od|serve --seed N --seconds S --trace 0|1
//!           [--sopt PATH] [--out DIR]
//! ```
//!
//! Every input comes from the seeded generator in [`gen`]; every answer is
//! checked ([`check`]). With `--trace 0` it prints the end-to-end metrics,
//! with `--trace 1` the per-layer ones (see `LAYERS.md`). The last line of
//! standard output is the result object.

mod check;
mod gen;
mod inproc;
mod json;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The `sopt` binary the `serve` workload runs as its daemon.
    pub sopt: PathBuf,
    /// Where the traced run writes its spans and obs snapshot, and where
    /// the `serve` workload keeps its logs and socket.
    pub out: PathBuf,
}

/// What a workload run produced.
pub struct Outcome {
    pub metrics: Vec<stats::Metric>,
    pub tally: check::Tally,
}

/// The end-to-end metrics every untraced run prints, in order.
const END_TO_END: [&str; 4] = ["setup_s", "solve_s", "throughput_per_s", "peak_rss_mb"];

/// The per-layer metrics every traced run prints, in order.
const PER_LAYER: [&str; 44] = [
    "spec.parse_ms_per_mb",
    "model.profile_s",
    "model.plan_s",
    "model.induced_s",
    "model.replay_mismatches",
    "fw.iters_per_op",
    "fw.polish_rounds_per_op",
    "fw.capped_ratio",
    "fw.cold_s",
    "fw.polish_s",
    "fw.loop_us_per_iter",
    "aon.s",
    "aon.share",
    "aon.groups",
    "aon.queries_saved",
    "sp.queries",
    "sp.s",
    "sp.settled_per_query",
    "fingerprint.us",
    "cache.report_hit_ratio",
    "cache.profile_hit_ratio",
    "cache.disk_hits",
    "cache.lookup_us",
    "persist.replay_s",
    "persist.records",
    "persist.log_mb",
    "sched.cpu_util",
    "solve.parallel_us",
    "solve.network_ms",
    "solve.multi_ms",
    "serve.queue_wait_p50_ms",
    "serve.queue_wait_p99_ms",
    "serve.service_p50_ms",
    "serve.service_p99_ms",
    "serve.p50_ms",
    "serve.p99_ms",
    "serve.ctl_p90_ms",
    "serve.dropped",
    "codec.decode_us",
    "codec.encode_us",
    "report.json_us",
    "obs.overhead_pct",
    "loadgen.late_p99_ms",
    "fail_pct",
];

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        sopt: PathBuf::from("sopt"),
        out: PathBuf::from("."),
    };
    let mut i = 0;
    while i < argv.len() {
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("missing value after {}", argv[i]))?;
        match argv[i].as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !args.seconds.is_finite() || args.seconds <= 0.0 {
                    return Err("--seconds must be > 0".into());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--sopt" => args.sopt = PathBuf::from(value),
            "--out" => args.out = PathBuf::from(value),
            other => return Err(format!("unknown flag '{other}'")),
        }
        i += 2;
    }
    Ok(args)
}

/// Writes the traced run's spans and obs snapshot, once, at the end.
pub fn write_trace(args: &Args, tr: &trace::Tracer, snapshot: &stackopt::obs::MetricsSnapshot) {
    let stem = format!("{}-seed{}", args.workload, args.seed);
    let spans = args.out.join(format!("spans-{stem}.jsonl"));
    let obs = args.out.join(format!("obs-{stem}.json"));
    let written = tr
        .write(&spans)
        .and_then(|()| std::fs::write(&obs, snapshot.to_json()));
    match written {
        Ok(()) => eprintln!(
            "perfbench: wrote {} spans to {} and the obs snapshot to {}",
            tr.spans.len(),
            spans.display(),
            obs.display()
        ),
        Err(e) => eprintln!("perfbench: cannot write the trace: {e}"),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("perfbench: cannot create {}: {e}", args.out.display());
        return ExitCode::FAILURE;
    }
    let outcome = match args.workload.as_str() {
        "city" => inproc::run_city(&args, false),
        "city-od" => inproc::run_city(&args, true),
        "serve" => match serve::run(&args) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("perfbench: serve workload: {e}");
                return ExitCode::FAILURE;
            }
        },
        other => {
            eprintln!("perfbench: unknown workload '{other}' (city|city-od|serve)");
            return ExitCode::from(2);
        }
    };
    let expected: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let names: Vec<&str> = outcome.metrics.iter().map(|m| m.name).collect();
    if names != expected {
        eprintln!("perfbench: metric set mismatch: {names:?}");
        return ExitCode::FAILURE;
    }
    stats::emit(
        &outcome.metrics,
        outcome.tally.attempted,
        outcome.tally.failed,
    );
    ExitCode::SUCCESS
}
