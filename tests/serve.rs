//! Integration tests for `sopt serve`: the disk-backed second-level
//! cache (warm across restarts, bit-identical), the request/response
//! codec under adversarial input, and the scheduling semantics
//! (priorities, deadline shedding, exactly-once responses).

use proptest::prelude::*;
use stackopt::api::{
    AonMode, CurveStrategy, EngineBuilder, Outcome, Request, RequestId, RequestKind, Response,
    ShedPolicy, SolveRequest, Task,
};

/// A unique temp path per test (no tempfile dependency; the process id
/// plus a per-test tag keeps parallel test binaries apart).
struct TempPath(std::path::PathBuf);

impl TempPath {
    fn new(tag: &str) -> Self {
        let path = std::env::temp_dir().join(format!("sopt-serve-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        TempPath(path)
    }
}

impl Drop for TempPath {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn solve_req(id: i64, spec: &str) -> Request {
    Request::solve(
        id,
        SolveRequest {
            spec: spec.into(),
            ..SolveRequest::default()
        },
    )
}

/// The fleet the restart tests solve: every scenario class, several tasks'
/// worth of report shapes, so the disk log round-trips each payload kind.
fn fleet_requests() -> Vec<Request> {
    let mut reqs = vec![
        solve_req(0, "x, 1.0"),
        solve_req(1, "x, 2x, 0.9"),
        solve_req(2, "nodes=2; 0->1: x; 0->1: 1.0; demand 0->1: 1.0"),
        solve_req(
            3,
            "nodes=4; 0->1: x; 0->1: 1.0; 2->3: x; 2->3: 1.0; demand 0->1: 1.0; demand 2->3: 2.0",
        ),
    ];
    for (i, task) in [Task::Curve, Task::Equilib, Task::Tolls, Task::Llf]
        .into_iter()
        .enumerate()
    {
        let mut r = solve_req(10 + i as i64, "x, 1.0");
        let RequestKind::Solve(s) = &mut r.kind else {
            unreachable!()
        };
        s.task = Some(task);
        if task == Task::Llf {
            s.alpha = Some(0.5);
        }
        reqs.push(r);
    }
    reqs
}

fn collect_ok(server: &stackopt::api::Server, requests: Vec<Request>) -> Vec<(RequestId, String)> {
    let mut out = Vec::new();
    server.run_requests(requests, |resp| {
        let Outcome::Ok(report) = &resp.outcome else {
            panic!("expected ok, got {:?}", resp.outcome)
        };
        out.push((resp.id.clone().unwrap(), report.to_json()));
    });
    out.sort_by(|a, b| format!("{:?}", a.0).cmp(&format!("{:?}", b.0)));
    out
}

#[test]
fn warm_across_restart_is_bit_identical_and_counts_disk_hits() {
    let cache_file = TempPath::new("warm-restart");
    let builder = EngineBuilder::new().threads(1).persist(&cache_file.0);

    // Cold process: everything is computed and written through to disk.
    let first = {
        let server = builder.server().unwrap();
        let reports = collect_ok(&server, fleet_requests());
        let stats = server.stats();
        assert_eq!(stats.cache_misses, reports.len() as u64);
        assert_eq!(stats.disk_hits, 0, "a cold cache cannot hit disk entries");
        reports
    }; // server (and its file handle) dropped here — the "restart"

    // The log exists, is versioned, and holds one record per unique solve.
    let log = std::fs::read_to_string(&cache_file.0).unwrap();
    assert!(log.starts_with("soptcache 2\n"), "missing header: {log}");
    assert!(log.lines().skip(1).count() >= first.len());

    // Warm process: the same requests replay from the log — report-table
    // hits, no recomputation, byte-identical JSON, nonzero disk hits.
    let server = builder.server().unwrap();
    let second = collect_ok(&server, fleet_requests());
    let stats = server.stats();
    assert_eq!(stats.cache_misses, 0, "warm restart recomputed: {stats:?}");
    assert_eq!(stats.cache_hits, second.len() as u64);
    assert!(stats.disk_hits > 0, "no disk hits counted: {stats:?}");
    assert_eq!(first, second, "restart changed a report byte");
}

#[test]
fn restarted_server_extends_the_log_rather_than_clobbering_it() {
    let cache_file = TempPath::new("extend-log");
    let builder = EngineBuilder::new().threads(1).persist(&cache_file.0);
    {
        let server = builder.server().unwrap();
        collect_ok(&server, vec![solve_req(0, "x, 1.0")]);
    }
    let len_after_first = std::fs::read_to_string(&cache_file.0).unwrap().len();
    {
        // Restart, solve something new: the old record must survive.
        let server = builder.server().unwrap();
        collect_ok(&server, vec![solve_req(1, "x, 2x, 0.9")]);
    }
    let log = std::fs::read_to_string(&cache_file.0).unwrap();
    assert!(log.len() > len_after_first, "log did not grow");
    // Third process sees both entries warm.
    let server = builder.server().unwrap();
    collect_ok(
        &server,
        vec![solve_req(0, "x, 1.0"), solve_req(1, "x, 2x, 0.9")],
    );
    let stats = server.stats();
    assert_eq!((stats.cache_hits, stats.cache_misses), (2, 0));
    assert_eq!(stats.disk_hits, 2);
}

#[test]
fn foreign_cache_files_are_refused_with_a_typed_error() {
    let cache_file = TempPath::new("foreign");
    std::fs::write(&cache_file.0, "definitely not a soptcache\n").unwrap();
    let err = EngineBuilder::new()
        .persist(&cache_file.0)
        .server()
        .unwrap_err();
    assert!(err.to_string().contains("soptcache"), "{err}");
}

#[test]
fn torn_final_record_is_skipped_on_replay() {
    let cache_file = TempPath::new("torn");
    let builder = EngineBuilder::new().threads(1).persist(&cache_file.0);
    {
        let server = builder.server().unwrap();
        collect_ok(
            &server,
            vec![solve_req(0, "x, 1.0"), solve_req(1, "x, 2x, 0.9")],
        );
    }
    // Simulate a crash mid-append: truncate the last record in half.
    let log = std::fs::read_to_string(&cache_file.0).unwrap();
    let keep = log.len() - log.len() / 4;
    std::fs::write(&cache_file.0, &log[..keep]).unwrap();
    // Replay must survive and keep every intact record.
    let server = builder.server().unwrap();
    collect_ok(
        &server,
        vec![solve_req(0, "x, 1.0"), solve_req(1, "x, 2x, 0.9")],
    );
    let stats = server.stats();
    assert_eq!(
        stats.cache_hits + stats.cache_misses,
        2,
        "every request answered: {stats:?}"
    );
    assert!(
        stats.cache_hits >= 1,
        "intact record did not replay: {stats:?}"
    );
}

#[test]
fn metrics_requests_return_populated_histograms_after_a_mixed_workload() {
    // A metrics-enabled server: network solves (cold + warm), a parallel
    // solve, a curve sweep (induced solves), a stats probe — then a
    // `metrics` request must show nonzero per-phase histograms and every
    // ok response must carry telemetry.
    let server = EngineBuilder::new()
        .threads(1)
        .metrics(true)
        .server()
        .unwrap();
    let mut reqs = fleet_requests();
    // A repeat solve: a cache hit.
    reqs.push(solve_req(20, "x, 1.0"));
    // A *network* curve: its α-sweep runs one induced solve per α, which
    // is what populates the `induced` phase (the parallel-links curve is
    // closed-form).
    let mut curve = solve_req(21, "nodes=2; 0->1: x; 0->1: 1.0; demand 0->1: 1.0");
    let RequestKind::Solve(s) = &mut curve.kind else {
        unreachable!()
    };
    s.task = Some(Task::Curve);
    s.steps = Some(4);
    reqs.push(curve);
    let mut ok = 0;
    server.run_requests(reqs, |resp| {
        if let Outcome::Ok(_) = &resp.outcome {
            ok += 1;
            let t = resp.telemetry.expect("metrics server attaches telemetry");
            // elapsed_us can legitimately be 0 on a sub-microsecond cache
            // hit; fw_iters can be 0 on warm solves. Presence is the
            // contract; magnitudes are asserted on the histograms below.
            let _ = t.elapsed_us;
        }
    });
    assert!(ok >= 8, "{ok}");
    let resp = server.handle(Request::metrics("m"));
    let Outcome::Metrics(snap) = &resp.outcome else {
        panic!("{:?}", resp.outcome)
    };
    for phase in ["solve_latency", "queue_wait", "cache_lookup", "induced"] {
        let h = snap.phase(phase).unwrap();
        assert!(h.count > 0, "phase {phase} recorded nothing");
    }
    assert!(snap.counter("cold_starts").unwrap() > 0);
    assert!(snap.counter("fw_iterations").unwrap() > 0);
    // The stats envelope satellite: uptime and queue depth are live.
    let stats = server.stats();
    assert_eq!(stats.queue_depth, 0, "queue drained");
    let line = server.handle(Request::stats("s")).to_json();
    assert!(line.contains("\"uptime_ms\": "), "{line}");
    assert!(line.contains("\"queue_depth\": 0"), "{line}");
    // And the serialized metrics envelope carries the histogram fields
    // the scrape path greps for (full JSON validity is asserted in the
    // codec's own unit tests).
    let line = resp.to_json();
    assert!(line.contains("\"status\": \"metrics\""), "{line}");
    assert!(line.contains("\"solve_latency\": {\"count\": "), "{line}");
    assert!(line.contains("\"p99_us\": "), "{line}");
    assert!(line.contains("\"buckets\": [["), "{line}");
}

#[test]
fn multicommodity_solves_populate_the_aon_metrics() {
    // Two demands sharing one origin: the origin-grouped AON path answers
    // both from a single one-to-many query, and the `aon` phase plus the
    // grouping counters must show up in the metrics surface.
    let server = EngineBuilder::new()
        .threads(1)
        .metrics(true)
        .server()
        .unwrap();
    let mut req = solve_req(
        1,
        "nodes=4; 0->1: x; 0->2: x; 1->3: x; 2->3: 1.0; demand 0->3: 1.0; demand 0->2: 0.5",
    );
    let RequestKind::Solve(s) = &mut req.kind else {
        unreachable!()
    };
    s.task = Some(Task::Equilib);
    let resp = server.handle(req);
    assert!(matches!(resp.outcome, Outcome::Ok(_)), "{:?}", resp.outcome);
    let resp = server.handle(Request::metrics("m"));
    let Outcome::Metrics(snap) = &resp.outcome else {
        panic!("{:?}", resp.outcome)
    };
    assert!(
        snap.phase("aon").unwrap().count > 0,
        "aon phase never recorded"
    );
    // One origin serves two commodities: one group, one query saved.
    assert!(snap.counter("aon_groups").unwrap() >= 1);
    assert!(snap.counter("aon_queries_saved").unwrap() >= 1);
    // The text exposition (--metrics-text) carries the same series.
    let text = snap.to_text();
    assert!(text.contains("sopt_aon_us_count"), "{text}");
    assert!(text.contains("sopt_aon_groups"), "{text}");
    assert!(text.contains("sopt_aon_queries_saved"), "{text}");
}

#[test]
fn metrics_off_servers_answer_metrics_with_an_empty_snapshot() {
    let server = EngineBuilder::new().threads(1).server().unwrap();
    let resp = server.handle(solve_req(1, "x, 1.0"));
    assert!(matches!(resp.outcome, Outcome::Ok(_)));
    assert!(
        resp.telemetry.is_none(),
        "metrics-off servers must not attach telemetry"
    );
    let resp = server.handle(Request::metrics("m"));
    let Outcome::Metrics(snap) = &resp.outcome else {
        panic!("{:?}", resp.outcome)
    };
    assert_eq!(snap.phase("solve_latency").unwrap().count, 0);
}

#[test]
fn expired_deadlines_drop_exactly_once_with_a_typed_response() {
    let server = EngineBuilder::new().threads(2).server().unwrap();
    let mut requests = fleet_requests();
    let mut doomed = solve_req(99, "x, 1.0");
    doomed.deadline_ms = Some(0); // expired on arrival, deterministically
    requests.push(doomed);
    let total = requests.len();
    let mut responses: Vec<Response> = Vec::new();
    server.run_requests(requests, |r| responses.push(r));
    assert_eq!(responses.len(), total, "a response went missing");
    let dropped: Vec<&Response> = responses
        .iter()
        .filter(|r| matches!(r.outcome, Outcome::Dropped { .. }))
        .collect();
    assert_eq!(dropped.len(), 1);
    assert_eq!(dropped[0].id, Some(RequestId::Num(99)));
    assert_eq!(server.stats().dropped, 1);
    // The line a client sees is valid JSON with the dropped status.
    let line = dropped[0].to_json();
    assert!(line.contains("\"status\": \"dropped\""), "{line}");
    // Under ShedPolicy::Never the same request solves.
    let lenient = EngineBuilder::new()
        .threads(1)
        .shed(ShedPolicy::Never)
        .server()
        .unwrap();
    let mut doomed = solve_req(99, "x, 1.0");
    doomed.deadline_ms = Some(0);
    assert!(matches!(lenient.handle(doomed).outcome, Outcome::Ok(_)));
}

#[test]
fn a_line_that_is_not_utf8_gets_a_typed_error_and_the_session_goes_on() {
    let server = EngineBuilder::new().threads(1).server().unwrap();
    let input: &[u8] = b"{\"v\": 1, \"id\": 1, \"kind\": \"stats\"}\n\xff\xfe\n\
                         {\"v\": 1, \"id\": 2, \"kind\": \"stats\"}\n";
    let mut out = Vec::new();
    server.serve(input, &mut out).unwrap();
    let out = String::from_utf8(out).unwrap();
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(lines.len(), 3, "{out}");
    let errs: Vec<&&str> = lines
        .iter()
        .filter(|l| l.contains("\"status\": \"err\""))
        .collect();
    assert_eq!(errs.len(), 1, "{out}");
    assert!(
        errs[0].starts_with("{\"v\": 1, \"id\": null, "),
        "{}",
        errs[0]
    );
    assert!(errs[0].contains("UTF-8"), "{}", errs[0]);
    for id in ["1", "2"] {
        let tag = format!("\"id\": {id}, \"status\": \"stats\"");
        assert!(out.contains(&tag), "no stats answer for id {id}: {out}");
    }
}

#[test]
fn queue_depth_never_reads_below_zero_under_load() {
    // A worker can pop a request the moment it is pushed. Were the gauge
    // counted after the push, the worker's decrement could land first and
    // a `stats` answer would read 2^64 - 1.
    const LINES: usize = 20_000;
    let server = EngineBuilder::new().threads(2).server().unwrap();
    let mut input = String::new();
    for i in 0..LINES / 2 {
        input.push_str(&format!(
            "{{\"v\": 1, \"id\": {}, \"spec\": \"x, 1.0\"}}\n",
            2 * i
        ));
        input.push_str(&format!(
            "{{\"v\": 1, \"id\": {}, \"kind\": \"stats\"}}\n",
            2 * i + 1
        ));
    }
    let mut out = Vec::new();
    server.serve(input.as_bytes(), &mut out).unwrap();
    let out = String::from_utf8(out).unwrap();
    assert_eq!(out.lines().count(), LINES);
    let depths: Vec<u64> = out
        .lines()
        .filter_map(|line| {
            let rest = &line[line.find("\"queue_depth\": ")? + "\"queue_depth\": ".len()..];
            Some(rest[..rest.find('}')?].parse().unwrap())
        })
        .collect();
    assert_eq!(depths.len(), LINES / 2);
    let worst = depths.iter().max().copied().unwrap_or(0);
    assert!(worst <= LINES as u64, "queue_depth read {worst}");
}

/// Deterministic xorshift, as in `spec_roundtrip.rs` — the vendored
/// proptest stub favours scalar strategies, so each case derives a whole
/// request from one seed.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn next_usize(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }

    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn maybe<T>(&mut self, draw: impl FnOnce(&mut Self) -> T) -> Option<T> {
        if self.next_usize(2) == 1 {
            Some(draw(self))
        } else {
            None
        }
    }
}

fn random_request(rng: &mut Rng) -> Request {
    let id = if rng.next_usize(2) == 0 {
        // Shift ≥ 11 keeps ids within ±2^53: the wire format is a JSON
        // number, so integer fidelity ends at the f64 mantissa.
        RequestId::Num(rng.next_u64() as i64 >> (11 + rng.next_usize(40)))
    } else {
        // Ids exercise JSON string escaping: quotes, backslashes, unicode.
        let pool = [
            "plain",
            "with \"quotes\"",
            "back\\slash",
            "uni\u{2603}code",
            "new\nline",
        ];
        RequestId::Str(pool[rng.next_usize(pool.len())].to_string())
    };
    let kind = if rng.next_usize(8) == 0 {
        RequestKind::Stats
    } else {
        let tasks = [
            Task::Beta,
            Task::Curve,
            Task::Equilib,
            Task::Tolls,
            Task::Llf,
        ];
        RequestKind::Solve(SolveRequest {
            spec: [
                "x, 1.0",
                "x, 2x+0.3, 0.9",
                "nodes=2; 0->1: x; demand 0->1: 1",
            ][rng.next_usize(3)]
            .to_string(),
            task: rng.maybe(|r| tasks[r.next_usize(tasks.len())]),
            rate: rng.maybe(|r| 0.25 + r.next_f64()),
            alpha: rng.maybe(|r| r.next_f64()),
            steps: rng.maybe(|r| r.next_usize(100)),
            tolerance: rng.maybe(|r| 10f64.powi(-(r.next_usize(12) as i32))),
            max_iters: rng.maybe(|r| 1 + r.next_usize(5000)),
            strategy: rng.maybe(|r| {
                if r.next_usize(2) == 0 {
                    CurveStrategy::Strong
                } else {
                    CurveStrategy::Weak
                }
            }),
            price_steps: rng.maybe(|r| 2 + r.next_usize(100)),
            price_rounds: rng.maybe(|r| 1 + r.next_usize(500)),
            aon: rng.maybe(|r| {
                [
                    AonMode::Auto,
                    AonMode::Sequential,
                    AonMode::Grouped,
                    AonMode::Parallel,
                ][r.next_usize(4)]
            }),
        })
    };
    let mut req = Request {
        id,
        kind,
        priority: (rng.next_u64() as i64) >> 40,
        deadline_ms: rng.maybe(|r| r.next_u64() >> 20),
        index: rng.maybe(|r| r.next_usize(1 << 20)),
    };
    if let RequestKind::Stats = req.kind {
        // keep stats requests schema-valid (no solve knobs attach anyway)
        req.index = None;
    }
    req
}

/// Random mutations that corrupt a valid line: truncation, byte flips,
/// injected tokens. None may panic; every rejection must be typed.
fn corrupt(line: &str, rng: &mut Rng) -> String {
    match rng.next_usize(5) {
        0 => {
            let mut end = rng.next_usize(line.len().max(1));
            while !line.is_char_boundary(end) {
                end -= 1;
            }
            line[..end].to_string()
        }
        1 => line.replace('{', "["),
        2 => format!("{line}{{"),
        3 => {
            let mut s = line.to_string();
            let mut at = rng.next_usize(s.len() + 1);
            while !s.is_char_boundary(at) {
                at -= 1;
            }
            s.insert(at, '\u{0}');
            s
        }
        _ => line.replace("\"v\": 1", &format!("\"v\": {}", rng.next_usize(100))),
    }
}

/// One line of arbitrary bytes other than `\n`: mostly high bytes that are
/// not UTF-8, some ASCII and whitespace, sometimes empty.
fn random_bytes(rng: &mut Rng) -> Vec<u8> {
    let len = rng.next_usize(24);
    (0..len)
        .map(|_| match rng.next_usize(4) {
            0 => b" \t\r"[rng.next_usize(3)],
            1 => 0x20 + rng.next_usize(0x5f) as u8,
            _ => loop {
                let b = rng.next_u64() as u8;
                if b != b'\n' {
                    break b;
                }
            },
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Well-formed requests survive serialize → parse unchanged.
    #[test]
    fn request_codec_round_trips(seed in 0u64..1_000_000) {
        let mut rng = Rng::new(seed);
        let req = random_request(&mut rng);
        let line = req.to_json();
        let back = Request::parse(&line)
            .unwrap_or_else(|r| panic!("round trip rejected '{line}': {:?}", r.error));
        prop_assert_eq!(back, req);
    }

    /// Corrupted lines never panic, never succeed silently with altered
    /// meaning, and — when an id survives the corruption — echo it.
    #[test]
    fn corrupted_requests_reject_without_panicking(seed in 0u64..1_000_000) {
        let mut rng = Rng::new(seed);
        let req = random_request(&mut rng);
        let line = corrupt(&req.to_json(), &mut rng);
        match Request::parse(&line) {
            Ok(parsed) => {
                // A corruption that still parses must parse to a valid
                // envelope (e.g. truncation landed on a field boundary is
                // impossible — trailing '}' is required — but byte-equal
                // lines pass through).
                prop_assert_eq!(parsed.to_json().is_empty(), false);
            }
            Err(rejection) => {
                // Typed error, never a panic; display form is non-empty.
                prop_assert!(!rejection.error.to_string().is_empty());
            }
        }
    }

    /// The serve loop answers one line per input line (minus blanks),
    /// whatever the input — arbitrary-byte lines spliced between requests
    /// included: the exactly-once response contract.
    #[test]
    fn serve_loop_never_skips_an_id(seed in 0u64..100_000) {
        let mut rng = Rng::new(seed);
        let server = EngineBuilder::new().threads(1).server().unwrap();
        let mut input: Vec<u8> = Vec::new();
        let mut expected = 0usize;
        for _ in 0..4 {
            if rng.next_usize(2) == 0 {
                let line = random_bytes(&mut rng);
                if !String::from_utf8_lossy(&line).trim().is_empty() {
                    expected += 1;
                }
                input.extend_from_slice(&line);
                input.push(b'\n');
            }
            let req = random_request(&mut rng);
            let line = if rng.next_usize(3) == 0 {
                corrupt(&req.to_json(), &mut rng)
            } else {
                req.to_json()
            };
            if !line.trim().is_empty() {
                expected += 1;
            }
            input.extend_from_slice(line.as_bytes());
            input.push(b'\n');
        }
        let mut out = Vec::new();
        server.serve(input.as_slice(), &mut out).unwrap();
        let out = String::from_utf8(out).unwrap();
        prop_assert_eq!(out.lines().count(), expected);
        for line in out.lines() {
            prop_assert!(line.starts_with("{\"v\": 1, \"id\": "), "{}", line);
        }
    }
}
