//! `sopt` — command-line access to the price of optimum.
//!
//! ```text
//! sopt solve --spec "x, 1.0" --task beta --format json
//! sopt solve --spec "nodes=4; 0->1: x; 0->2: 1.0; 1->2: 0; 1->3: 1.0; 2->3: x; demand 0->3: 1" \
//!            --task beta
//! sopt batch --file scenarios.txt --task beta --format csv [--threads 8]
//! sopt gen --family mm1 --count 10000 --seed 7 | sopt batch --file - --stream
//! sopt import --format tntp --net city_net.tntp --trips city_trips.tntp | sopt batch --file -
//! sopt serve --stdin --cache /tmp/sopt.cache --threads 4
//! ```
//!
//! `solve` runs one scenario through the [`stackopt::api`] session layer:
//! `--spec` accepts both the parallel-links mini-language (`x, 2x+0.3,
//! mm1:2.0`, optionally `… @ rate`) and the general-network grammar
//! (`nodes=N; A->B: expr; …; demand A->B: r`) documented in
//! [`stackopt::spec`]. `batch` runs one spec per line of `--file` (`-` for
//! stdin) through the [`stackopt::api::engine`] fleet runner: buffered and
//! input-ordered by default, or — with `--stream` — as JSON Lines in the
//! serve response envelope, emitted in completion order, each line carrying
//! its input `index` (schema in the README's Serve section). `gen` emits a
//! batch spec file from the random instance families, the engine's
//! first-party fleet source. `import` converts a network in an external
//! exchange format (currently TNTP, the traffic-assignment benchmark
//! format) into the same batch spec text, so real city instances flow
//! through the identical pipeline.
//!
//! `serve` is the persistent daemon: JSONL requests in, JSONL responses
//! out, over a Unix socket (`--socket PATH`) or the stdin/stdout pipe
//! (`--stdin`). `--cache PATH` backs the memo tables with an append-only
//! log replayed on startup, so a restarted daemon answers previously
//! solved requests bit-identically without recomputing. `cache compact`
//! rewrites such a log offline, dropping torn records and superseded
//! duplicates.
//!
//! The classic per-task subcommands (`sopt beta --links …`, `curve`,
//! `equilib`, `tolls`, `llf`) remain as thin aliases for
//! `solve --task … --format text`.

use std::io::Write;
use std::process::ExitCode;

use sopt_instances::TntpInstance;
use stackopt::api::{
    parse_batch_file, AonMode, CurveStrategy, EngineBuilder, Outcome, Report, Request, Scenario,
    ShedPolicy, SolveRequest, SoptError, Task,
};
use stackopt::fleet::{generate_fleet, Family};

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  sopt solve --spec SPEC [options]          solve one scenario
  sopt batch --file PATH [options] [--threads N] [--stream]
                                            solve one scenario per line of PATH
                                            (PATH '-' reads stdin; --stream
                                            emits JSONL as results complete)
  sopt serve (--socket PATH | --stdin) [options] [--threads N]
                                            persistent solve daemon: JSONL
                                            requests in, JSONL responses out
  sopt gen --family F --count N [--seed S] [--size M] [--rate R] [--commodities K]
                                            emit a batch spec file of random
                                            scenarios (F: affine|common-slope|
                                            mixed|mm1|multi|grid; default
                                            seed 0; for grid, --size is the
                                            grid side and --commodities the
                                            demands per instance)
  sopt import --format tntp --net PATH [--trips PATH] [--rate R]
                                            convert a TNTP network (plus
                                            optional trips table) to a batch
                                            spec on stdout; --rate routes
                                            first->last node when no trips
                                            are given (default 1.0)
  sopt cache compact --cache PATH           rewrite a soptcache log in place,
                                            dropping torn records and stale
                                            duplicates (run offline)

options:
  --task beta|curve|equilib|tolls|llf|pricing
                                            what to compute (default beta)
  --format text|json|csv                    output format (default text)
  --rate R                                  override the routed rate
  --alpha A                                 Leader portion (llf)
  --steps N                                 curve samples (default 10)
  --strategy strong|weak                    k-commodity curve portion split
                                            (default strong)
  --tolerance E                             solver convergence target
  --max-iters K                             solver iteration cap
  --price-steps N                           pricing candidate/grid resolution
                                            (default 50)
  --price-rounds K                          pricing best-response round cap
                                            (default 200)
  --aon auto|sequential|grouped|parallel    multi-commodity all-or-nothing
                                            strategy (default auto: group
                                            demands by origin, thread the
                                            fan-out when it pays)
  --cache PATH                              disk-backed memo log, replayed on
                                            startup (solve/batch/serve)
  --report-capacity N / --profile-capacity N
                                            memo table bounds, in entries
  --shed drop|never                         expired-deadline policy (serve;
                                            default drop)
  --metrics                                 record per-phase latency
                                            histograms; serve answers
                                            kind 'metrics' with them and ok
                                            responses carry elapsed_us/
                                            fw_iters (serve; batch --stream
                                            records implicitly)
  --metrics-text                            like --metrics, plus a
                                            Prometheus-style text exposition
                                            on stderr when the serve session
                                            ends

legacy aliases (equivalent to solve --task … --format text):
  sopt beta    --links SPEC [--rate R]
  sopt curve   --links SPEC [--rate R] [--steps N]
  sopt equilib --links SPEC [--rate R]
  sopt tolls   --links SPEC [--rate R]
  sopt llf     --links SPEC --alpha A [--rate R]

SPEC is either comma-separated latencies (x | 2x+0.3 | 0.7 | x^3 |
mm1:2.0 | bpr:t0,b,c,p, optionally '… @ rate') or a network spec
('nodes=4; 0->1: x; …; demand 0->3: 2.0').
example: sopt solve --spec 'x, 1.0' --task beta --format json";

#[derive(Clone, Copy, PartialEq, Eq)]
enum Format {
    Text,
    Json,
    Csv,
}

struct Args {
    spec: Option<String>,
    file: Option<String>,
    task: Task,
    task_set: bool,
    format: Format,
    format_set: bool,
    rate: Option<f64>,
    steps: Option<usize>,
    alpha: Option<f64>,
    tolerance: Option<f64>,
    max_iters: Option<usize>,
    threads: Option<usize>,
    strategy: Option<CurveStrategy>,
    price_steps: Option<usize>,
    price_rounds: Option<usize>,
    aon: Option<AonMode>,
    stream: bool,
    family: Option<Family>,
    count: Option<usize>,
    seed: u64,
    size: Option<usize>,
    commodities: Option<usize>,
    socket: Option<String>,
    use_stdin: bool,
    cache: Option<String>,
    report_capacity: Option<usize>,
    profile_capacity: Option<usize>,
    shed: Option<ShedPolicy>,
    metrics: bool,
    metrics_text: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        spec: None,
        file: None,
        task: Task::Beta,
        task_set: false,
        format: Format::Text,
        format_set: false,
        rate: None,
        steps: None,
        alpha: None,
        tolerance: None,
        max_iters: None,
        threads: None,
        strategy: None,
        price_steps: None,
        price_rounds: None,
        aon: None,
        stream: false,
        family: None,
        count: None,
        seed: 0,
        size: None,
        commodities: None,
        socket: None,
        use_stdin: false,
        cache: None,
        report_capacity: None,
        profile_capacity: None,
        shed: None,
        metrics: false,
        metrics_text: false,
    };
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        // Boolean flags take no value and advance by one.
        if flag == "--stream" {
            out.stream = true;
            i += 1;
            continue;
        }
        if flag == "--stdin" {
            out.use_stdin = true;
            i += 1;
            continue;
        }
        if flag == "--metrics" {
            out.metrics = true;
            i += 1;
            continue;
        }
        if flag == "--metrics-text" {
            out.metrics_text = true;
            i += 1;
            continue;
        }
        // Match the flag before demanding its value, so a typo'd or
        // positional last token reports "unknown flag", not a misleading
        // "missing value".
        let value = || {
            args.get(i + 1)
                .ok_or_else(|| format!("missing value after {flag}"))
        };
        let value = match flag {
            "--spec" | "--links" | "--file" | "--task" | "--format" | "--rate" | "--steps"
            | "--alpha" | "--tolerance" | "--max-iters" | "--threads" | "--strategy"
            | "--price-steps" | "--price-rounds" | "--aon" | "--family" | "--count" | "--seed"
            | "--size" | "--commodities" | "--socket" | "--cache" | "--report-capacity"
            | "--profile-capacity" | "--shed" => value()?,
            other => return Err(format!("unknown flag '{other}'")),
        };
        match flag {
            "--spec" | "--links" => out.spec = Some(value.clone()),
            "--file" => out.file = Some(value.clone()),
            "--task" => {
                out.task = value.parse().map_err(|e: SoptError| e.to_string())?;
                out.task_set = true;
            }
            "--format" => {
                out.format_set = true;
                out.format = match value.as_str() {
                    "text" => Format::Text,
                    "json" => Format::Json,
                    "csv" => Format::Csv,
                    other => return Err(format!("unknown format '{other}' (text|json|csv)")),
                }
            }
            "--rate" => out.rate = Some(value.parse().map_err(|e| format!("--rate: {e}"))?),
            "--steps" => out.steps = Some(value.parse().map_err(|e| format!("--steps: {e}"))?),
            "--alpha" => out.alpha = Some(value.parse().map_err(|e| format!("--alpha: {e}"))?),
            "--tolerance" => {
                out.tolerance = Some(value.parse().map_err(|e| format!("--tolerance: {e}"))?)
            }
            "--max-iters" => {
                out.max_iters = Some(value.parse().map_err(|e| format!("--max-iters: {e}"))?)
            }
            "--threads" => {
                out.threads = Some(value.parse().map_err(|e| format!("--threads: {e}"))?)
            }
            "--strategy" => {
                out.strategy = Some(
                    CurveStrategy::from_name(value)
                        .ok_or_else(|| format!("unknown strategy '{value}' (strong|weak)"))?,
                )
            }
            "--price-steps" => {
                out.price_steps = Some(value.parse().map_err(|e| format!("--price-steps: {e}"))?)
            }
            "--price-rounds" => {
                out.price_rounds = Some(value.parse().map_err(|e| format!("--price-rounds: {e}"))?)
            }
            "--aon" => {
                out.aon = Some(AonMode::from_name(value).ok_or_else(|| {
                    format!("unknown aon mode '{value}' (auto|sequential|grouped|parallel)")
                })?)
            }
            "--family" => out.family = Some(value.parse().map_err(|e: SoptError| e.to_string())?),
            "--count" => out.count = Some(value.parse().map_err(|e| format!("--count: {e}"))?),
            "--seed" => out.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--size" => out.size = Some(value.parse().map_err(|e| format!("--size: {e}"))?),
            "--commodities" => {
                out.commodities = Some(value.parse().map_err(|e| format!("--commodities: {e}"))?)
            }
            "--socket" => out.socket = Some(value.clone()),
            "--cache" => out.cache = Some(value.clone()),
            "--report-capacity" => {
                out.report_capacity = Some(
                    value
                        .parse()
                        .map_err(|e| format!("--report-capacity: {e}"))?,
                )
            }
            "--profile-capacity" => {
                out.profile_capacity = Some(
                    value
                        .parse()
                        .map_err(|e| format!("--profile-capacity: {e}"))?,
                )
            }
            "--shed" => {
                out.shed = Some(
                    ShedPolicy::from_name(value)
                        .ok_or_else(|| format!("unknown shed policy '{value}' (drop|never)"))?,
                )
            }
            _ => unreachable!("flag list is matched above"),
        }
        i += 2;
    }
    Ok(out)
}

/// One [`EngineBuilder`] per invocation — every subcommand assembles its
/// threads, cache, persistence, and default solve knobs here, so the CLI,
/// the fleet engine, and the serve daemon cannot drift apart.
fn builder_from(args: &Args) -> EngineBuilder {
    let mut builder = EngineBuilder::new()
        .task(args.task)
        .steps(args.steps.unwrap_or(10));
    if let Some(a) = args.alpha {
        builder = builder.alpha(a);
    }
    if let Some(t) = args.tolerance {
        builder = builder.tolerance(t);
    }
    if let Some(k) = args.max_iters {
        builder = builder.max_iters(k);
    }
    if let Some(st) = args.strategy {
        builder = builder.strategy(st);
    }
    if let Some(p) = args.price_steps {
        builder = builder.price_steps(p);
    }
    if let Some(p) = args.price_rounds {
        builder = builder.price_rounds(p);
    }
    if let Some(a) = args.aon {
        builder = builder.aon(a);
    }
    if let Some(n) = args.threads {
        builder = builder.threads(n);
    }
    if let Some(cap) = args.report_capacity {
        builder = builder.report_capacity(cap);
    }
    if let Some(cap) = args.profile_capacity {
        builder = builder.profile_capacity(cap);
    }
    if let Some(path) = &args.cache {
        builder = builder.persist(path);
    }
    if let Some(policy) = args.shed {
        builder = builder.shed(policy);
    }
    builder
}

fn run() -> Result<(), String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        return Err("no command given".into());
    };
    // `cache` takes a positional subcommand, so it is dispatched before
    // the flag parser (and before the legacy task aliases). `import`
    // reuses `--format` for the *input* format (tntp), which would
    // collide with the output-format flag, so it parses its own flags.
    if cmd == "cache" {
        return run_cache(rest);
    }
    if cmd == "import" {
        return run_import(rest);
    }
    let mut args = parse_args(rest)?;

    // Legacy aliases: `sopt beta --links …` ≡ `sopt solve --task beta`.
    let cmd = match cmd.as_str() {
        "solve" | "batch" | "gen" | "serve" => cmd.as_str(),
        legacy => {
            args.task = legacy
                .parse()
                .map_err(|_| format!("unknown command '{legacy}'"))?;
            "solve"
        }
    };

    match cmd {
        "solve" => {
            let spec = args
                .spec
                .as_deref()
                .ok_or("--spec (or --links) is required")?;
            if args.threads.is_some() {
                return Err("--threads only applies to 'sopt batch' and 'sopt serve'".into());
            }
            if args.file.is_some() {
                return Err("--file only applies to 'sopt batch' (use --spec here)".into());
            }
            if args.metrics || args.metrics_text {
                return Err(
                    "--metrics/--metrics-text only apply to 'sopt serve' (batch --stream \
                     records implicitly)"
                        .into(),
                );
            }
            let report = solve_one(spec, &args).map_err(|e| e.to_string())?;
            print!("{}", render(&report, args.format));
            Ok(())
        }
        "batch" => {
            let path = args.file.as_deref().ok_or("--file is required")?;
            if args.spec.is_some() {
                return Err("--spec only applies to 'sopt solve' (use --file here)".into());
            }
            let text = if path == "-" {
                std::io::read_to_string(std::io::stdin())
                    .map_err(|e| format!("cannot read stdin: {e}"))?
            } else {
                std::fs::read_to_string(path).map_err(|e| format!("cannot read '{path}': {e}"))?
            };
            let mut scenarios = parse_batch_file(&text).map_err(|e| e.to_string())?;
            // --rate applies uniformly, exactly as it does for `solve`.
            if let Some(rate) = args.rate {
                scenarios = scenarios
                    .into_iter()
                    .map(|sc| sc.with_rate(rate))
                    .collect::<Result<_, _>>()
                    .map_err(|e| e.to_string())?;
            }
            if args.metrics || args.metrics_text {
                return Err(
                    "--metrics/--metrics-text only apply to 'sopt serve'; 'batch --stream' \
                     records metrics implicitly"
                        .into(),
                );
            }
            let builder = builder_from(&args);
            if args.stream {
                // JSONL in completion order, in the serve response
                // envelope: each line carries the protocol version, an id
                // (the input index), and the `index` field itself — the
                // documented alias for input position. Nothing is
                // buffered; write errors (a closed downstream pipe) abort
                // quietly, matching Unix tools.
                // The stream path always records metrics: the per-request
                // latency percentiles join the engine summary on stderr.
                let server = builder.metrics(true).server().map_err(|e| e.to_string())?;
                let requests: Result<Vec<Request>, String> = scenarios
                    .iter()
                    .enumerate()
                    .map(|(i, sc)| {
                        // Fleet scenarios came from spec lines, so the
                        // round trip back to a spec cannot fail.
                        let spec = sc.to_spec().map_err(|e| e.to_string())?;
                        let mut request = Request::solve(
                            i as i64,
                            SolveRequest {
                                spec,
                                ..SolveRequest::default()
                            },
                        );
                        request.index = Some(i);
                        Ok(request)
                    })
                    .collect();
                let stdout = std::io::stdout();
                let mut w = stdout.lock();
                server.run_requests(requests?, |response| {
                    let _ = writeln!(w, "{}", response.to_json());
                });
                let stats = server.stats();
                eprintln!(
                    "engine: {} scenarios, {} delivered, cache {}/{} hits, \
                     eq-profiles {}/{} hits, net-profiles {}/{} hits, \
                     {} evictions",
                    stats.scenarios,
                    stats.delivered,
                    stats.cache_hits,
                    stats.cache_hits + stats.cache_misses,
                    stats.eq_hits,
                    stats.eq_hits + stats.eq_misses,
                    stats.net_profile_hits,
                    stats.net_profile_hits + stats.net_profile_misses,
                    stats.profile_evictions + stats.report_evictions
                );
                let snap = server.metrics();
                if let Some(lat) = snap.phase("solve_latency") {
                    if lat.count > 0 {
                        eprintln!(
                            "latency: p50 {} us, p90 {} us, p99 {} us, max {} us \
                             over {} solves",
                            lat.p50(),
                            lat.p90(),
                            lat.p99(),
                            lat.max,
                            lat.count
                        );
                    }
                }
            } else {
                let reports = builder.engine(scenarios).map_err(|e| e.to_string())?.run();
                print!("{}", render_batch(&reports, args.format));
            }
            Ok(())
        }
        "serve" => {
            if args.spec.is_some() || args.file.is_some() || args.stream || args.format_set {
                return Err(
                    "'sopt serve' speaks the request envelope; --spec/--file/--stream/--format \
                     do not apply"
                        .into(),
                );
            }
            let server = builder_from(&args)
                .metrics(args.metrics || args.metrics_text)
                .server()
                .map_err(|e| e.to_string())?;
            match (&args.socket, args.use_stdin) {
                (Some(_), true) | (None, false) => {
                    Err("'sopt serve' needs exactly one of --socket PATH or --stdin".into())
                }
                (None, true) => {
                    let served = server
                        .serve(
                            std::io::BufReader::new(std::io::stdin()),
                            std::io::stdout().lock(),
                        )
                        .map_err(|e| e.to_string());
                    if args.metrics_text {
                        eprint!("{}", server.metrics().to_text());
                    }
                    served
                }
                (Some(path), false) => {
                    #[cfg(unix)]
                    {
                        server
                            .serve_socket(std::path::Path::new(path))
                            .map_err(|e| e.to_string())
                    }
                    #[cfg(not(unix))]
                    {
                        let _ = path;
                        Err("--socket requires a Unix platform; use --stdin".into())
                    }
                }
            }
        }
        "gen" => {
            let family = args
                .family
                .ok_or("--family is required (affine|common-slope|mixed|mm1|multi|grid)")?;
            let count = args.count.ok_or("--count is required")?;
            // Reject every solve/batch flag instead of silently ignoring
            // it — these almost always belong to the downstream `batch`.
            if args.stream
                || args.task_set
                || args.format_set
                || args.file.is_some()
                || args.spec.is_some()
                || args.steps.is_some()
                || args.alpha.is_some()
                || args.tolerance.is_some()
                || args.max_iters.is_some()
                || args.threads.is_some()
                || args.strategy.is_some()
                || args.price_steps.is_some()
                || args.price_rounds.is_some()
                || args.aon.is_some()
                || args.socket.is_some()
                || args.use_stdin
                || args.cache.is_some()
                || args.report_capacity.is_some()
                || args.profile_capacity.is_some()
                || args.shed.is_some()
                || args.metrics
                || args.metrics_text
            {
                return Err(
                    "'sopt gen' takes --family/--count/--seed/--size/--rate/--commodities only"
                        .into(),
                );
            }
            let text = generate_fleet(
                family,
                count,
                args.seed,
                args.size,
                args.rate.unwrap_or(1.0),
                args.commodities,
            )
            .map_err(|e| e.to_string())?;
            print!("{text}");
            Ok(())
        }
        _ => unreachable!("cmd is normalised above"),
    }
}

/// `sopt cache compact --cache PATH` — one-shot offline compaction of a
/// soptcache log: torn records and stale duplicates are dropped, the file
/// is replaced atomically, and the before/after record counts are
/// printed.
fn run_cache(rest: &[String]) -> Result<(), String> {
    let Some((sub, rest)) = rest.split_first() else {
        return Err("'sopt cache' needs a subcommand (compact)".into());
    };
    if sub != "compact" {
        return Err(format!("unknown cache subcommand '{sub}' (compact)"));
    }
    let args = parse_args(rest)?;
    let Some(path) = args.cache.as_deref() else {
        return Err("'sopt cache compact' needs --cache PATH".into());
    };
    if args.spec.is_some() || args.file.is_some() || args.task_set || args.format_set {
        return Err("'sopt cache compact' takes --cache PATH only".into());
    }
    let (before, after) =
        stackopt::api::compact_cache(std::path::Path::new(path)).map_err(|e| e.to_string())?;
    println!("compacted '{path}': {before} records -> {after}");
    Ok(())
}

/// `sopt import --format tntp --net PATH [--trips PATH] [--rate R]` —
/// converts a TNTP network (and optional trips table) into batch spec
/// text on stdout, ready for `sopt batch --file -`. A network with no
/// trips gets one first-node → last-node demand at `--rate` (default
/// 1.0); a one-pair trips table becomes a single-commodity spec, more
/// pairs a multicommodity one.
fn run_import(rest: &[String]) -> Result<(), String> {
    let mut format: Option<String> = None;
    let mut net: Option<String> = None;
    let mut trips: Option<String> = None;
    let mut rate: Option<f64> = None;
    let mut i = 0;
    while i < rest.len() {
        let flag = rest[i].as_str();
        let value = rest
            .get(i + 1)
            .ok_or_else(|| format!("missing value after {flag}"))?;
        match flag {
            "--format" => format = Some(value.clone()),
            "--net" => net = Some(value.clone()),
            "--trips" => trips = Some(value.clone()),
            "--rate" => rate = Some(value.parse().map_err(|e| format!("--rate: {e}"))?),
            other => {
                return Err(format!(
                    "unknown flag '{other}' ('sopt import' takes --format/--net/--trips/--rate)"
                ))
            }
        }
        i += 2;
    }
    match format.as_deref() {
        Some("tntp") => {}
        Some(other) => return Err(format!("unknown import format '{other}' (tntp)")),
        None => return Err("--format tntp is required".into()),
    }
    let net_path = net.ok_or("--net PATH is required")?;
    // Streamed, not slurped: city-scale TNTP files flow through one
    // buffered line at a time.
    let open = |p: &str| {
        std::fs::File::open(p)
            .map(std::io::BufReader::new)
            .map_err(|e| format!("cannot read '{p}': {e}"))
    };
    let net_file = open(&net_path)?;
    let trips_file = match &trips {
        Some(p) => Some(open(p)?),
        None => None,
    };
    let network = sopt_instances::parse_tntp_readers(net_file, trips_file)
        .map_err(|e| format!("{net_path}: {e}"))?;
    let (nodes, edges, pairs) = (
        network.graph.num_nodes(),
        network.graph.num_edges(),
        network.demands.len(),
    );
    let scenario: Scenario = match network
        .into_instance(rate.unwrap_or(1.0))
        .map_err(|e| format!("{net_path}: {e}"))?
    {
        TntpInstance::Single(inst) => Scenario::from(inst),
        TntpInstance::Multi(inst) => Scenario::from(inst),
    };
    let spec = scenario.to_spec().map_err(|e| e.to_string())?;
    println!(
        "# sopt import --format tntp --net {net_path}{}: {nodes} nodes, {edges} edges, {} od pairs",
        match &trips {
            Some(p) => format!(" --trips {p}"),
            None => String::new(),
        },
        // No trips table means the fallback demand was synthesised.
        pairs.max(1)
    );
    println!("{spec}");
    Ok(())
}

/// Solves one scenario through the serve envelope — the CLI is a
/// [`Server::handle`](stackopt::api::Server::handle) client of one
/// request, so `solve`, `batch --stream`, and the daemon share one path.
fn solve_one(spec: &str, args: &Args) -> Result<Report, SoptError> {
    let server = builder_from(args).threads(1).server()?;
    let request = Request::solve(
        "cli",
        SolveRequest {
            spec: spec.to_string(),
            rate: args.rate,
            ..SolveRequest::default()
        },
    );
    match server.handle(request).outcome {
        Outcome::Ok(report) => Ok(report),
        Outcome::Err(e) => Err(e),
        other => unreachable!("no deadline, no stats request: {other:?}"),
    }
}

fn render(report: &Report, format: Format) -> String {
    match format {
        Format::Text => report.to_text(),
        Format::Json => {
            let mut j = report.to_json();
            j.push('\n');
            j
        }
        Format::Csv => report.to_csv(),
    }
}

fn render_batch(reports: &[Result<Report, SoptError>], format: Format) -> String {
    let mut out = String::new();
    match format {
        Format::Text => {
            for (i, r) in reports.iter().enumerate() {
                out.push_str(&format!("== scenario {i} ==\n"));
                match r {
                    Ok(rep) => out.push_str(&rep.to_text()),
                    Err(e) => out.push_str(&format!("error: {e}\n")),
                }
            }
        }
        Format::Json => {
            let items: Vec<String> = reports
                .iter()
                .map(|r| match r {
                    Ok(rep) => rep.to_json(),
                    Err(e) => format!(
                        "{{\"error\": {}}}",
                        stackopt::api::report::json_str(&e.to_string())
                    ),
                })
                .collect();
            out.push_str(&format!("[{}]\n", items.join(",\n ")));
        }
        Format::Csv => {
            // One table: shared header (all reports run the same task) with
            // an index column; failed scenarios become comment lines.
            if let Some(first) = reports.iter().find_map(|r| r.as_ref().ok()) {
                out.push_str(&format!("index,{}\n", first.csv_header()));
            }
            for (i, r) in reports.iter().enumerate() {
                match r {
                    Ok(rep) => {
                        for row in rep.csv_rows() {
                            out.push_str(&format!("{i},{row}\n"));
                        }
                    }
                    Err(e) => out.push_str(&format!("# scenario {i} error: {e}\n")),
                }
            }
        }
    }
    out
}
