//! The `serve` workload: `sopt serve --socket` restarted on a fresh copy
//! of a pre-built log, driven over one connection by an open-loop phase at
//! a fixed arrival rate and a closed-loop saturation phase.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError};
use std::time::{Duration, Instant};

use stackopt::api::engine::Fingerprint;
use stackopt::api::{
    EngineBuilder, Outcome as ServeOutcome, Request, RequestKind, Scenario, ScenarioClass,
    SolveOptions, Task,
};
use stackopt::obs::{Counter, HistogramSnapshot, MetricsSnapshot, Phase};

use crate::check::{self, Tally};
use crate::gen::{self, Planned, ReqKind};
use crate::inproc::{self, ObsDelta, SETUP_REPS};
use crate::json::{self, Json};
use crate::stats::{self, median, metric, quantile};
use crate::trace::Tracer;
use crate::{Args, Outcome};

/// Open-loop arrival rate (requests per second, evenly spaced): about
/// half of what the daemon sustains on 2 workers.
pub const OPEN_RATE: f64 = 100.0;
/// Share of `--seconds` the open-loop phase lasts.
const OPEN_SHARE: f64 = 0.5;
/// Saturation requests per run, all of them answered: the phase lasts as
/// long as the daemon takes (10–17 s on 2 vCPUs). A fixed count keeps the
/// daemon's memory growth, and so `peak_rss_mb`, independent of its speed.
const SAT_REQUESTS: usize = 4_000;
/// How long to wait for outstanding answers after a phase.
const GRACE: Duration = Duration::from_secs(30);

/// A running daemon and the client's connection to it.
struct Daemon {
    child: Child,
    conn: UnixStream,
    rx: Receiver<(Instant, String)>,
    reader: Option<std::thread::JoinHandle<()>>,
}

impl Daemon {
    /// Spawns `sopt serve` on `log`, connects, and waits for the answer to
    /// a first `stats` request. Returns the daemon and the time from spawn
    /// to that answer.
    fn start(args: &Args, dir: &Path, log: &Path, metrics: bool) -> Result<(Daemon, f64), String> {
        let sock = dir.join("sopt.sock");
        let _ = std::fs::remove_file(&sock);
        let threads = stats::threads().to_string();
        let t0 = Instant::now();
        let mut cmd = Command::new(&args.sopt);
        cmd.arg("serve")
            .arg("--socket")
            .arg(&sock)
            .args(["--threads", &threads])
            .arg("--cache")
            .arg(log)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit());
        if metrics {
            cmd.arg("--metrics");
        }
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", args.sopt.display()))?;
        let conn = loop {
            match UnixStream::connect(&sock) {
                Ok(c) => break c,
                Err(_) if t0.elapsed() < Duration::from_secs(60) => {
                    if let Ok(Some(status)) = child.try_wait() {
                        return Err(format!("daemon exited early: {status}"));
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(e) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(format!("cannot connect to the daemon: {e}"));
                }
            }
        };
        let (tx, rx) = channel();
        let mut d = Daemon {
            child,
            conn,
            rx,
            reader: None,
        };
        let reader_conn = d.conn.try_clone().map_err(|e| e.to_string())?;
        d.reader = Some(std::thread::spawn(move || {
            let mut r = BufReader::with_capacity(1 << 20, reader_conn);
            loop {
                let mut line = String::new();
                match r.read_line(&mut line) {
                    Ok(0) | Err(_) => break,
                    Ok(_) => {
                        if tx.send((Instant::now(), line)).is_err() {
                            break;
                        }
                    }
                }
            }
        }));
        d.send("{\"v\": 1, \"id\": 0, \"kind\": \"stats\"}")?;
        d.rx.recv_timeout(Duration::from_secs(60))
            .map_err(|_| "no answer to the first request".to_string())?;
        Ok((d, t0.elapsed().as_secs_f64()))
    }

    fn send(&mut self, line: &str) -> Result<(), String> {
        let mut buf = Vec::with_capacity(line.len() + 1);
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
        self.conn
            .write_all(&buf)
            .map_err(|e| format!("send failed: {e}"))
    }

    /// One control request answered synchronously (between phases).
    fn ask(&mut self, line: &str) -> Result<String, String> {
        self.send(line)?;
        self.rx
            .recv_timeout(GRACE)
            .map(|(_, l)| l)
            .map_err(|_| "control request unanswered".to_string())
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }
}

/// Every exit path, errors included, stops the daemon and waits for it.
impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.conn.shutdown(std::net::Shutdown::Both);
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(r) = self.reader.take() {
            let _ = r.join();
        }
    }
}

/// The pre-built log: about 20k `beta` reports and 1k profiles, built
/// once per checkout by the library's own write-through persistence.
/// The file name carries a hash of the generated lines, so a changed
/// generator never reuses a stale log.
fn base_log(args: &Args, lines: &[String]) -> Result<PathBuf, String> {
    let hash = stackopt::api::engine::fingerprint::fnv64(lines.join("\n").as_bytes());
    let path = args.out.join(format!("serve-base-{hash:016x}.soptcache"));
    if path.exists() {
        return Ok(path);
    }
    let tmp = args
        .out
        .join(format!("serve-base.{}.tmp", std::process::id()));
    let _ = std::fs::remove_file(&tmp);
    let scenarios: Vec<Scenario> = lines
        .iter()
        .map(|l| Scenario::parse(l).expect("generated specs parse"))
        .collect();
    let reports = EngineBuilder::new()
        .threads(stats::threads())
        .task(Task::Beta)
        .persist(&tmp)
        .engine(scenarios)
        .map_err(|e| e.to_string())?
        .run();
    if let Some(e) = reports.iter().find_map(|r| r.as_ref().err()) {
        return Err(format!("building the base log: {e}"));
    }
    std::fs::rename(&tmp, &path).map_err(|e| e.to_string())?;
    Ok(path)
}

/// A response as received: when, and the raw line.
type Received = (Instant, String);

/// What the open-loop phase recorded, by plan index.
struct OpenRun {
    due: Vec<Instant>,
    sent: Vec<Instant>,
    got: Vec<Received>,
}

/// Sends `plan` at evenly spaced times from now, then collects every
/// answer.
fn open_loop(d: &mut Daemon, plan: &[Planned], rate: f64) -> Result<OpenRun, String> {
    let start = Instant::now() + Duration::from_millis(20);
    let due: Vec<Instant> = (0..plan.len())
        .map(|i| start + Duration::from_secs_f64(i as f64 / rate))
        .collect();
    let mut sent = Vec::with_capacity(plan.len());
    for (p, &at) in plan.iter().zip(&due) {
        loop {
            let now = Instant::now();
            if now >= at {
                break;
            }
            let left = at - now;
            if left > Duration::from_micros(300) {
                std::thread::sleep(left - Duration::from_micros(200));
            } else {
                std::hint::spin_loop();
            }
        }
        sent.push(Instant::now());
        d.send(&p.line)?;
    }
    let mut got = Vec::with_capacity(plan.len());
    let deadline = Instant::now() + GRACE;
    while got.len() < plan.len() {
        match d
            .rx
            .recv_timeout(deadline.saturating_duration_since(Instant::now()))
        {
            Ok(r) => got.push(r),
            Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    Ok(OpenRun { due, sent, got })
}

/// Sends every request of `plan`, keeping `in_flight` of them outstanding,
/// and waits for all answers. Returns the send instants (by plan index),
/// the answers, and the seconds from the first send to the last answer.
fn saturate(
    d: &mut Daemon,
    plan: &[Planned],
    in_flight: usize,
) -> Result<(Vec<Instant>, Vec<Received>, f64), String> {
    let start = Instant::now();
    let mut sent = Vec::with_capacity(plan.len());
    let mut got = Vec::with_capacity(plan.len());
    while got.len() < plan.len() {
        if sent.len() < plan.len() && sent.len() - got.len() < in_flight {
            sent.push(Instant::now());
            d.send(&plan[sent.len() - 1].line)?;
            continue;
        }
        let r =
            d.rx.recv_timeout(GRACE)
                .map_err(|_| "saturation answer missing".to_string())?;
        got.push(r);
    }
    let elapsed = got
        .last()
        .map_or(0.0, |r| r.0.duration_since(start).as_secs_f64());
    Ok((sent, got, elapsed))
}

fn id_of(v: &Json) -> Option<u64> {
    v.get("id").and_then(Json::num).map(|n| n as u64)
}

/// The answer's payload without its id and timing fields, for the
/// byte-identity check of repeats.
fn payload(line: &str) -> &str {
    let line = line.trim_end();
    let start = line.find("\"status\"").unwrap_or(0);
    let end = line.find(", \"elapsed_us\"").unwrap_or(line.len());
    &line[start..end.max(start)]
}

/// Checks every answer of a phase: each id answered exactly once, solve
/// answers `ok` (and `beta` answers satisfying the paper's claim), control
/// answers of the right kind, repeats byte-identical to the first answer.
/// Returns the receive instant per plan index.
fn check_answers(
    plan: &[Planned],
    got: &[Received],
    first: &mut HashMap<(usize, &'static str), String>,
    tally: &mut Tally,
    betas: &mut HashMap<u64, [f64; 4]>,
) -> Vec<Option<Instant>> {
    let index: HashMap<u64, usize> = plan.iter().enumerate().map(|(i, p)| (p.id, i)).collect();
    let mut at: Vec<Option<Instant>> = vec![None; plan.len()];
    for (when, line) in got {
        let parsed = match json::parse(line.trim_end()) {
            Ok(v) => v,
            Err(e) => {
                tally.record(Err(format!("unparseable answer: {e}")));
                continue;
            }
        };
        let Some(i) = id_of(&parsed).and_then(|id| index.get(&id).copied()) else {
            tally.record(Err(format!(
                "answer with an unknown id: {}",
                &line[..line.len().min(80)]
            )));
            continue;
        };
        if at[i].is_some() {
            tally.record(Err(format!("id {} answered twice", plan[i].id)));
            continue;
        }
        at[i] = Some(*when);
        let p = &plan[i];
        let status = parsed.get("status").and_then(Json::str).unwrap_or("");
        let verdict = match p.kind {
            ReqKind::Control => {
                if status == "stats" || status == "metrics" {
                    Ok(())
                } else {
                    Err(format!("control request {} answered '{status}'", p.id))
                }
            }
            _ if status != "ok" => Err(format!(
                "request {} answered '{status}': {}",
                p.id,
                &line[..line.len().min(200)]
            )),
            _ => {
                let key = p.key.expect("solve requests carry a key");
                let body = payload(line);
                let same = match first.get(&key) {
                    Some(prev) => prev == body,
                    None => {
                        first.insert(key, body.to_string());
                        true
                    }
                };
                let report = parsed.get("report");
                let beta = if key.1 == "beta" {
                    report.map_or(Err("ok answer without a report".into()), |r| {
                        let ok = check::report_json_ok(r);
                        let num = |k: &str| r.get(k).and_then(Json::num).unwrap_or(f64::NAN);
                        betas.insert(
                            p.id,
                            [
                                num("beta"),
                                num("nash_cost"),
                                num("optimum_cost"),
                                num("induced_cost"),
                            ],
                        );
                        ok
                    })
                } else {
                    Ok(())
                };
                if same {
                    beta
                } else {
                    Err(format!("repeat {} differs from the first answer", p.id))
                }
            }
        };
        tally.record(verdict);
    }
    for (i, a) in at.iter().enumerate() {
        if a.is_none() {
            tally.record(Err(format!("request {} unanswered", plan[i].id)));
        }
    }
    at
}

struct OpenStats {
    solve_ms: Vec<f64>,
    ctl_ms: Vec<f64>,
    late_ms: Vec<f64>,
}

fn open_stats(
    plan: &[Planned],
    due: &[Instant],
    sent: &[Instant],
    at: &[Option<Instant>],
) -> OpenStats {
    let mut s = OpenStats {
        solve_ms: Vec::new(),
        ctl_ms: Vec::new(),
        late_ms: Vec::new(),
    };
    for (i, p) in plan.iter().enumerate() {
        s.late_ms
            .push(sent[i].duration_since(due[i]).as_secs_f64() * 1e3);
        if let Some(a) = at[i] {
            let ms = a.duration_since(due[i]).as_secs_f64() * 1e3;
            if p.kind == ReqKind::Control {
                s.ctl_ms.push(ms);
            } else {
                s.solve_ms.push(ms);
            }
        }
    }
    s
}

/// A per-run directory holding the log copy and the socket; its path is
/// relative to the working directory, keeping the socket path short.
fn run_dir(args: &Args) -> Result<PathBuf, String> {
    let dir = args.out.join(format!("serve-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    Ok(dir)
}

fn fresh_log(base: &Path, dir: &Path, name: &str) -> Result<PathBuf, String> {
    let log = dir.join(name);
    std::fs::copy(base, &log).map_err(|e| format!("copying the base log: {e}"))?;
    Ok(log)
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let base_lines = gen::serve_base_lines();
    let base = base_log(args, &base_lines)?;
    let dir = run_dir(args)?;
    let result = run_in(args, &base_lines, &base, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn run_in(args: &Args, base_lines: &[String], base: &Path, dir: &Path) -> Result<Outcome, String> {
    let open_secs = args.seconds * OPEN_SHARE;
    let open_count = (OPEN_RATE * open_secs).round().max(1.0) as usize;
    let plan = gen::serve_plan(args.seed, base_lines, open_count, SAT_REQUESTS);
    let in_flight = 2 * stats::threads();
    let mut tally = Tally::default();

    // Untraced saturation baseline for the obs overhead (traced runs only).
    let base_throughput = if args.trace {
        let log = fresh_log(base, dir, "baseline.soptcache")?;
        let (mut d, _) = Daemon::start(args, dir, &log, false)?;
        let (_, _, elapsed) = saturate(&mut d, &plan.saturation, in_flight)?;
        drop(d);
        Some(stats::ratio(SAT_REQUESTS as f64, elapsed))
    } else {
        None
    };

    let log = fresh_log(base, dir, "log.soptcache")?;
    let mut setup = Vec::new();
    let mut daemon = None;
    for rep in 0..SETUP_REPS {
        let (d, s) = Daemon::start(args, dir, &log, args.trace)?;
        setup.push(s);
        if rep + 1 < SETUP_REPS {
            drop(d);
        } else {
            daemon = Some(d);
        }
    }
    let mut d = daemon.expect("at least one set-up");
    let pid = d.pid();

    let cpu0 = stats::cpu_seconds(Some(pid));
    let t_phases = Instant::now();
    let OpenRun { due, sent, got } = open_loop(&mut d, &plan.open, OPEN_RATE)?;
    let mut first = HashMap::new();
    let mut betas = HashMap::new();
    let at = check_answers(&plan.open, &got, &mut first, &mut tally, &mut betas);
    let open = open_stats(&plan.open, &due, &sent, &at);

    let (sat_sent, sat_got, sat_s) = saturate(&mut d, &plan.saturation, in_flight)?;
    let sat_at = check_answers(
        &plan.saturation,
        &sat_got,
        &mut first,
        &mut tally,
        &mut betas,
    );
    let sat_rt: Vec<f64> = sat_sent
        .iter()
        .zip(&sat_at)
        .filter_map(|(s, a)| a.map(|a| a.duration_since(*s).as_secs_f64()))
        .collect();
    let throughput = stats::ratio(SAT_REQUESTS as f64, sat_s);
    let phases_wall = t_phases.elapsed().as_secs_f64();
    let daemon_cpu = stats::cpu_seconds(Some(pid)) - cpu0;

    let traced = if args.trace {
        let m = d.ask("{\"v\": 1, \"id\": -1, \"kind\": \"metrics\"}")?;
        let s = d.ask("{\"v\": 1, \"id\": -2, \"kind\": \"stats\"}")?;
        Some((m, s))
    } else {
        None
    };
    let rss = stats::peak_rss_mb(Some(pid));
    drop(d);
    tally.log();

    let Some((metrics_line, stats_line)) = traced else {
        let metrics = vec![
            metric(
                "setup_s",
                median(&setup),
                "s",
                format!("median of {SETUP_REPS} daemon starts: spawn, log replay, first answer"),
            ),
            metric(
                "solve_s",
                median(&sat_rt),
                "s",
                format!(
                    "median round trip of {} saturation solves, {in_flight} in flight",
                    sat_rt.len()
                ),
            ),
            metric(
                "throughput_per_s",
                throughput,
                "1/s",
                format!("{SAT_REQUESTS} solves in {sat_s:.2} s of saturation"),
            ),
            metric("peak_rss_mb", rss, "MB", "VmHWM of the daemon"),
        ];
        eprintln!(
            "perfbench: open loop at {OPEN_RATE}/s: p50 {:.3} ms, p99 {:.3} ms over {} solves; ctl p90 {:.3} ms over {}; loadgen late p99 {:.3} ms",
            quantile(&open.solve_ms, 0.5),
            quantile(&open.solve_ms, 0.99),
            open.solve_ms.len(),
            quantile(&open.ctl_ms, 0.9),
            open.ctl_ms.len(),
            quantile(&open.late_ms, 0.99)
        );
        return Ok(Outcome { metrics, tally });
    };

    // ---- traced run: per-layer metrics ----
    let log_mb = std::fs::metadata(&log).map_or(0.0, |m| m.len() as f64 / 1e6);
    let snap = snapshot_from_json(&metrics_line)?;
    let st = json::parse(stats_line.trim_end())
        .ok()
        .and_then(|v| v.get("stats").cloned())
        .ok_or("unreadable stats answer")?;
    let sn = |k: &str| st.get(k).and_then(Json::num).unwrap_or(0.0);
    let delta = ObsDelta {
        before: MetricsSnapshot {
            phases: Vec::new(),
            counters: Vec::new(),
        },
        after: snap.clone(),
    };
    let solved = sn("cache_misses");

    // In-process: replay time of the base log, codec and report encoding,
    // fingerprints, and a stage replay of fresh beta requests.
    let mut replay_s = Vec::new();
    for _ in 0..SETUP_REPS {
        let copy = fresh_log(base, dir, "replay.soptcache")?;
        let t = Instant::now();
        EngineBuilder::new()
            .persist(&copy)
            .build_cache()
            .map_err(|e| e.to_string())?;
        replay_s.push(t.elapsed().as_secs_f64());
    }
    let records = std::fs::read_to_string(base)
        .map(|t| t.lines().count().saturating_sub(1))
        .unwrap_or(0);

    let all: Vec<&Planned> = plan.open.iter().chain(&plan.saturation).collect();
    let t = Instant::now();
    let requests: Vec<Request> = all
        .iter()
        .map(|p| Request::parse(&p.line).map_err(|r| r.error.to_string()))
        .collect::<Result<_, _>>()?;
    let decode_us = t.elapsed().as_secs_f64() * 1e6 / all.len() as f64;

    let fresh_specs: Vec<&str> = plan
        .open
        .iter()
        .filter(|p| p.kind == ReqKind::Fresh)
        .filter_map(|p| p.key.map(|k| plan.specs[k.0].as_str()))
        .collect();
    let fresh_mb = fresh_specs.iter().map(|s| s.len()).sum::<usize>() as f64 / 1e6;
    let t = Instant::now();
    let fresh_parsed: Vec<Scenario> = fresh_specs
        .iter()
        .map(|s| Scenario::parse(s).expect("generated specs parse"))
        .collect();
    let parse_ms = t.elapsed().as_secs_f64() * 1e3;

    let server = EngineBuilder::new()
        .threads(1)
        .server()
        .map_err(|e| e.to_string())?;
    let options = SolveOptions::default();
    let mut tr = Tracer::new();
    let mut class_times: [Vec<f64>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    let mut replays = Vec::new();
    let mut mismatches = 0;
    let sample: Vec<(usize, &Request)> = requests
        .iter()
        .enumerate()
        .filter(|(i, r)| *i < plan.open.len() && matches!(r.kind, RequestKind::Solve(_)))
        .take(200)
        .collect();
    for (k, (i, req)) in sample.iter().enumerate() {
        let op = k as u64;
        let RequestKind::Solve(solve) = &req.kind else {
            continue;
        };
        let scenario = Scenario::parse(&solve.spec).map_err(|e| e.to_string())?;
        let root = tr.begin("op", op, None);
        tr.span("fingerprint", op, Some(root), || {
            Fingerprint::of(&scenario, &options)
        });
        let t = Instant::now();
        let resp = tr.span("server.handle", op, Some(root), || {
            server.handle((*req).clone())
        });
        let class = match scenario.class() {
            ScenarioClass::Parallel => 0,
            ScenarioClass::Network => 1,
            ScenarioClass::Multi => 2,
        };
        class_times[class].push(t.elapsed().as_secs_f64());
        tr.span("codec.encode", op, Some(root), || resp.to_json());
        if let ServeOutcome::Ok(report) = &resp.outcome {
            tr.span("report.json", op, Some(root), || report.to_json());
        }
        if solve.task == Some(Task::Beta) && plan.open[*i].kind == ReqKind::Fresh {
            match inproc::replay_beta(&mut tr, op, Some(root), &scenario) {
                Ok(r) => {
                    // Reports carry 12 significant digits on the wire.
                    let wire = |v: f64| format!("{v:.11e}").parse::<f64>().unwrap_or(v);
                    let daemon = betas.get(&plan.open[*i].id);
                    let same = daemon.is_some_and(|b| {
                        b[0] == wire(r.beta)
                            && b[1] == wire(r.costs[0])
                            && b[2] == wire(r.costs[1])
                            && b[3] == wire(r.costs[2])
                    });
                    if !same {
                        mismatches += 1;
                    }
                    replays.push(r);
                }
                Err(_) => mismatches += 1,
            }
        }
        tr.end(root);
    }

    let mut out = Vec::new();
    out.push(metric(
        "spec.parse_ms_per_mb",
        stats::ratio(parse_ms, fresh_mb),
        "ms/MB",
        format!("{} fresh specs, {fresh_mb:.3} MB", fresh_parsed.len()),
    ));
    inproc::model_layers(&tr, replays.len(), mismatches, &mut out);
    inproc::profile_layers(&replays, &mut out);
    inproc::solver_layers(&delta, solved, &format!("{solved} daemon solves"), &mut out);
    out.push(inproc::span_metric(
        &tr,
        "fingerprint.us",
        "fingerprint",
        "Fingerprint::of",
    ));
    let hits = sn("cache_hits");
    out.push(metric(
        "cache.report_hit_ratio",
        stats::ratio(hits, hits + solved),
        "ratio",
        format!(
            "{hits} hits of {} report lookups in the daemon",
            hits + solved
        ),
    ));
    let p_hits = sn("eq_hits") + sn("net_profile_hits");
    let p_all = p_hits + sn("eq_misses") + sn("net_profile_misses");
    out.push(metric(
        "cache.profile_hit_ratio",
        stats::ratio(p_hits, p_all),
        "ratio",
        format!("{p_hits} hits of {p_all} profile lookups in the daemon"),
    ));
    out.push(metric(
        "cache.disk_hits",
        sn("disk_hits"),
        "count",
        "daemon hits served by replayed entries",
    ));
    let (lookups, lookup_s) = delta.phase("cache_lookup");
    out.push(metric(
        "cache.lookup_us",
        stats::ratio(lookup_s * 1e6, lookups),
        "us",
        format!("mean of {lookups} daemon cache_lookup spans"),
    ));
    out.push(metric(
        "persist.replay_s",
        median(&replay_s),
        "s",
        format!("median of {SETUP_REPS} in-process replays of {records} records"),
    ));
    out.push(metric(
        "persist.records",
        records as f64,
        "count",
        "records in the base log",
    ));
    out.push(metric(
        "persist.log_mb",
        log_mb,
        "MB",
        "daemon log after the run",
    ));
    out.push(metric(
        "sched.cpu_util",
        stats::ratio(daemon_cpu, stats::threads() as f64 * phases_wall),
        "ratio",
        format!(
            "daemon {daemon_cpu:.2} CPU-s over {} threads x {phases_wall:.2} s",
            stats::threads()
        ),
    ));
    let names = [
        ("solve.parallel_us", 1e6, "us"),
        ("solve.network_ms", 1e3, "ms"),
        ("solve.multi_ms", 1e3, "ms"),
    ];
    for ((name, scale, unit), t) in names.into_iter().zip(&class_times) {
        out.push(metric(
            name,
            stats::mean(t) * scale,
            unit,
            format!("mean of {} in-process Server::handle calls", t.len()),
        ));
    }
    let ms = |phase: &str, q: f64| {
        snap.phase(phase)
            .map_or(0.0, |h| h.quantile(q) as f64 / 1e3)
    };
    let count = |phase: &str| snap.phase(phase).map_or(0, |h| h.count);
    out.push(metric(
        "serve.queue_wait_p50_ms",
        ms("queue_wait", 0.5),
        "ms",
        format!("daemon histogram, {} samples", count("queue_wait")),
    ));
    out.push(metric(
        "serve.queue_wait_p99_ms",
        ms("queue_wait", 0.99),
        "ms",
        format!("daemon histogram, {} samples", count("queue_wait")),
    ));
    out.push(metric(
        "serve.service_p50_ms",
        ms("solve_latency", 0.5),
        "ms",
        format!("daemon histogram, {} samples", count("solve_latency")),
    ));
    out.push(metric(
        "serve.service_p99_ms",
        ms("solve_latency", 0.99),
        "ms",
        format!("daemon histogram, {} samples", count("solve_latency")),
    ));
    let n = open.solve_ms.len();
    out.push(metric(
        "serve.p50_ms",
        quantile(&open.solve_ms, 0.5),
        "ms",
        format!("{n} open-loop solves at {OPEN_RATE}/s, from the scheduled send"),
    ));
    out.push(metric(
        "serve.p99_ms",
        quantile(&open.solve_ms, 0.99),
        "ms",
        format!("{n} open-loop solves, {} beyond", n / 100),
    ));
    out.push(metric(
        "serve.ctl_p90_ms",
        quantile(&open.ctl_ms, 0.9),
        "ms",
        format!("{} open-loop control requests", open.ctl_ms.len()),
    ));
    out.push(metric(
        "serve.dropped",
        sn("dropped"),
        "count",
        "daemon stats",
    ));
    out.push(metric(
        "codec.decode_us",
        decode_us,
        "us",
        format!("mean Request::parse over {} lines", all.len()),
    ));
    out.push(inproc::span_metric(
        &tr,
        "codec.encode_us",
        "codec.encode",
        "Response::to_json",
    ));
    out.push(inproc::span_metric(
        &tr,
        "report.json_us",
        "report.json",
        "Report::to_json",
    ));
    let base_thr = base_throughput.unwrap_or(0.0);
    out.push(metric(
        "obs.overhead_pct",
        100.0 * stats::ratio(base_thr - throughput, base_thr),
        "%",
        format!("saturation: {throughput:.1}/s with --metrics vs {base_thr:.1}/s without"),
    ));
    out.push(metric(
        "loadgen.late_p99_ms",
        quantile(&open.late_ms, 0.99),
        "ms",
        format!("{} scheduled sends", open.late_ms.len()),
    ));
    out.push(metric(
        "fail_pct",
        tally.fail_pct(),
        "%",
        format!("{} of {} checks failed", tally.failed, tally.attempted),
    ));
    crate::write_trace(args, &tr, &snap);
    Ok(Outcome {
        metrics: out,
        tally,
    })
}

/// Rebuilds a [`MetricsSnapshot`] from a daemon's `metrics` answer.
fn snapshot_from_json(line: &str) -> Result<MetricsSnapshot, String> {
    let v = json::parse(line.trim_end())?;
    let m = v.get("metrics").ok_or("metrics answer without metrics")?;
    let n = |j: Option<&Json>| j.and_then(Json::num).unwrap_or(0.0) as u64;
    let phases = Phase::ALL
        .iter()
        .map(|p| {
            let h = m.get("phases").and_then(|ps| ps.get(p.name()));
            let buckets = match h.and_then(|h| h.get("buckets")) {
                Some(Json::Arr(bs)) => bs
                    .iter()
                    .filter_map(|b| match b {
                        Json::Arr(pair) if pair.len() == 2 => {
                            Some((n(pair.first()), n(pair.get(1))))
                        }
                        _ => None,
                    })
                    .collect(),
                _ => Vec::new(),
            };
            (
                p.name(),
                HistogramSnapshot {
                    count: n(h.and_then(|h| h.get("count"))),
                    sum: n(h.and_then(|h| h.get("sum_us"))),
                    min: n(h.and_then(|h| h.get("min_us"))),
                    max: n(h.and_then(|h| h.get("max_us"))),
                    buckets,
                },
            )
        })
        .collect();
    let counters = Counter::ALL
        .iter()
        .map(|c| {
            (
                c.name(),
                n(m.get("counters").and_then(|cs| cs.get(c.name()))),
            )
        })
        .collect();
    Ok(MetricsSnapshot { phases, counters })
}
