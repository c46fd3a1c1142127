//! `sopt serve` — the persistent solve daemon behind one typed
//! [`Request`]/[`Response`] envelope.
//!
//! A fleet run knows its whole workload up front. A daemon's workload
//! arrives over time, with per-request priorities and deadlines, so this
//! module adds a [`Server`] that owns a warm [`SolveCache`] (optionally
//! disk-backed, so warmth survives restarts), feeds requests into the same
//! worker pool as fleet runs ([`super::engine::scheduler`]) at their own
//! priorities, and answers every line it reads — solved, typed error, or
//! typed `dropped`.
//!
//! The wire format lives in [`codec`]; the disk log in the private
//! `persist` module. Both `sopt serve` (socket or stdin/stdout pipe) and
//! `sopt batch --stream` are thin clients of this module, and the typed
//! structs are the public submission API ([`Server::handle`],
//! [`Server::run_requests`]).
//!
//! ## Scheduling semantics
//!
//! * Higher [`Request::priority`] pops first; equal priorities are FIFO,
//!   so a steady stream of urgent work can delay but never reorder or
//!   starve the backlog.
//! * [`Request::deadline_ms`] is a time budget measured from *receipt*.
//!   The check runs when a worker dequeues the request: a request that
//!   waited out its budget in the queue is answered
//!   `{"status": "dropped", …}` under [`ShedPolicy::DropExpired`] (the
//!   default) instead of burning a worker on an answer nobody is waiting
//!   for. [`ShedPolicy::Never`] disables shedding. A deadline of `0`
//!   always sheds — useful as a liveness probe that exercises the drop
//!   path without solving anything.
//! * `kind: "stats"` requests ride the same queue (priority them ahead if
//!   needed) and answer with the server's cumulative [`EngineStats`],
//!   including `disk_hits` — cache hits served by entries that were
//!   replayed from the persistence log rather than computed this process —
//!   and `rejected_records`, the log records dropped as damaged.
//! * `kind: "metrics"` requests answer with the full
//!   [`MetricsSnapshot`](sopt_obs::MetricsSnapshot) of the server's
//!   recorder (per-phase latency histograms as bucket arrays plus solver
//!   counters). The recorder is off — and the snapshot empty — unless the
//!   server was built with [`EngineBuilder::metrics`]; when it is on,
//!   every `ok` solve response additionally carries `elapsed_us` and
//!   `fw_iters`.
//! * `kind: "cancel"` requests withdraw a queued solve by id
//!   (`"target"`). The cancel is acked with `{"status": "cancelled"}` as
//!   soon as a worker pops it; the targeted solve, when it is later
//!   dequeued, is answered `{"status": "dropped"}` without solving and
//!   counted in `EngineStats::cancelled`. Cancels obey the same priority
//!   order as everything else — submit them at a higher priority to
//!   overtake the work they withdraw. A cancel whose target was already
//!   solved (or never submitted) still acks; the mark waits for a future
//!   solve with that id.

pub mod codec;
pub(crate) mod persist;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Instant;

use super::engine::cache::CacheCounters;
use super::engine::scheduler::{cached_solve, run_pool, PriorityQueue, RunCounters};
use super::engine::{EngineBuilder, EngineStats, SolveCache};
use super::error::SoptError;
use super::report::Report;
use super::scenario::Scenario;
use super::solve::SolveOptions;

pub use codec::{
    Outcome, Rejection, Request, RequestId, RequestKind, Response, SolveRequest, SolveTelemetry,
};

/// Parsed requests waiting for a worker, each with its receipt instant.
type RequestQueue = PriorityQueue<(Request, Instant)>;

/// One-shot compaction of a `soptcache` log at `path` (`sopt cache
/// compact`): drops torn or undecodable records, keeps only the newest
/// record per cache key, and atomically replaces the file. Returns
/// `(before, after)` record counts.
///
/// Offline maintenance: run it while no server has the log attached — an
/// append racing the snapshot is lost at the rename.
pub fn compact_cache(path: &std::path::Path) -> Result<(usize, usize), SoptError> {
    persist::compact(path)
}

/// What the scheduler does with a request whose deadline expired while it
/// waited in the queue.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ShedPolicy {
    /// Answer it with a typed `dropped` response without solving
    /// (the default).
    #[default]
    DropExpired,
    /// Ignore deadlines and solve everything.
    Never,
}

impl ShedPolicy {
    /// The CLI name (`--shed <name>`).
    pub fn name(self) -> &'static str {
        match self {
            ShedPolicy::DropExpired => "drop",
            ShedPolicy::Never => "never",
        }
    }

    /// Parses a CLI name.
    pub fn from_name(s: &str) -> Option<Self> {
        match s {
            "drop" | "drop-expired" => Some(ShedPolicy::DropExpired),
            "never" => Some(ShedPolicy::Never),
            _ => None,
        }
    }
}

/// A persistent solve server: one warm cache, a worker pool, and the
/// typed envelope in front of both. Built from an [`EngineBuilder`]
/// ([`EngineBuilder::server`]); the builder's solve knobs become the
/// per-request defaults.
///
/// ```
/// use stackopt::api::{EngineBuilder, Request, SolveRequest, Outcome};
///
/// let server = EngineBuilder::new().threads(1).server()?;
/// let req = Request::solve("r1", SolveRequest {
///     spec: "x, 1.0".into(),
///     ..SolveRequest::default()
/// });
/// let resp = server.handle(req);
/// assert!(matches!(resp.outcome, Outcome::Ok(_)));
/// # Ok::<(), stackopt::api::SoptError>(())
/// ```
pub struct Server {
    cache: Arc<SolveCache>,
    threads: usize,
    shed: ShedPolicy,
    options: SolveOptions,
    /// Cache counters at construction — [`Server::stats`] reports deltas,
    /// so a shared/persisted cache's prior traffic is not attributed to
    /// this server.
    base: CacheCounters,
    counters: RunCounters,
    scenarios: AtomicU64,
    delivered: AtomicU64,
    dropped: AtomicU64,
    cancelled: AtomicU64,
    /// Construction instant — `stats` reports the difference as
    /// `uptime_ms`.
    started: Instant,
    /// Requests pushed but not yet popped, across every entry point that
    /// routes through the queue (a live gauge, not a counter).
    queue_depth: AtomicU64,
    /// This server's handle on the process-global recorder: enabled when
    /// the builder asked for metrics, otherwise a free no-op. Response
    /// telemetry is gated on this handle (not on the global directly) so
    /// one metrics-enabled server does not change the envelopes of
    /// another in the same process.
    recorder: sopt_obs::Recorder,
    /// Ids withdrawn by a `cancel` request but not yet matched against a
    /// dequeued solve. Insert-on-cancel, remove-on-match: a cancel that
    /// arrives before its solve still wins, and each cancel withdraws at
    /// most one solve.
    withdrawn: std::sync::Mutex<std::collections::HashSet<codec::RequestId>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("threads", &self.threads)
            .field("shed", &self.shed)
            .field("options", &self.options)
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl EngineBuilder {
    /// A [`Server`] over this builder's cache (replayed from disk when
    /// [`persist`](EngineBuilder::persist) is set), thread count, shed
    /// policy, and default solve knobs.
    pub fn server(&self) -> Result<Server, SoptError> {
        let cache = self.build_cache()?;
        let base = cache.counters();
        Ok(Server {
            threads: self.threads.unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(std::num::NonZeroUsize::get)
                    .unwrap_or(1)
            }),
            shed: self.shed,
            options: self.options.clone(),
            base,
            counters: RunCounters::default(),
            scenarios: AtomicU64::new(0),
            delivered: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            cancelled: AtomicU64::new(0),
            started: Instant::now(),
            queue_depth: AtomicU64::new(0),
            recorder: if self.metrics {
                sopt_obs::enable().clone()
            } else {
                sopt_obs::Recorder::disabled()
            },
            withdrawn: std::sync::Mutex::new(std::collections::HashSet::new()),
            cache,
        })
    }
}

impl Server {
    /// Answers one request synchronously on the calling thread (receipt
    /// and dequeue coincide, so only a `deadline_ms` of 0 can shed).
    pub fn handle(&self, request: Request) -> Response {
        self.process(request, Instant::now())
    }

    /// The server's cumulative [`EngineStats`]: request counts and
    /// report-table traffic since construction, profile-table and
    /// disk-hit deltas against the cache's state at construction, and the
    /// disk-log records rejected since the log's replay.
    pub fn stats(&self) -> EngineStats {
        let after = self.cache.counters();
        EngineStats {
            scenarios: self.scenarios.load(Ordering::Relaxed) as usize,
            delivered: self.delivered.load(Ordering::Relaxed) as usize,
            cache_hits: self.counters.hits.load(Ordering::Relaxed),
            cache_misses: self.counters.misses.load(Ordering::Relaxed),
            eq_hits: after.eq_hits - self.base.eq_hits,
            eq_misses: after.eq_misses - self.base.eq_misses,
            net_profile_hits: after.net_hits - self.base.net_hits,
            net_profile_misses: after.net_misses - self.base.net_misses,
            disk_hits: after.disk_hits - self.base.disk_hits,
            // The server opened its cache, so its replay counts too.
            rejected_records: after.rejected_records,
            profile_evictions: after.profile_evictions - self.base.profile_evictions,
            report_evictions: after.report_evictions - self.base.report_evictions,
            dropped: self.dropped.load(Ordering::Relaxed),
            cancelled: self.cancelled.load(Ordering::Relaxed),
            uptime_ms: self.started.elapsed().as_millis() as u64,
            queue_depth: self.queue_depth.load(Ordering::Relaxed),
        }
    }

    /// A point-in-time [`MetricsSnapshot`](sopt_obs::MetricsSnapshot) of
    /// this server's recorder — the same payload a `kind: "metrics"`
    /// request returns. Empty (all counts zero) unless the server was
    /// built with [`EngineBuilder::metrics`].
    pub fn metrics(&self) -> sopt_obs::MetricsSnapshot {
        self.recorder.snapshot()
    }

    /// Runs a batch of requests through the priority scheduler, delivering
    /// each [`Response`] to `sink` on the calling thread as it completes
    /// (completion order; echo [`Request::index`] to reorder). All
    /// requests share one receipt instant — they are "received" together.
    pub fn run_requests<F>(&self, requests: Vec<Request>, sink: F)
    where
        F: FnMut(Response),
    {
        let queue = RequestQueue::new();
        let arrival = Instant::now();
        for request in requests {
            self.enqueue(&queue, request, arrival);
        }
        queue.close();
        self.run_workers(&queue, mpsc::channel(), |rx| rx.into_iter().for_each(sink));
    }

    /// The daemon session loop: reads JSONL requests from `reader` until
    /// EOF, writes one JSONL response per request to `writer` (flushed per
    /// line, completion order). A reader thread parses and enqueues;
    /// worker threads solve; the calling thread is the single writer.
    /// Unparseable lines, including lines that are not UTF-8, are answered
    /// immediately with a typed error response — they never enter the
    /// queue, never panic the server and never end the session.
    pub fn serve<R, W>(&self, reader: R, mut writer: W) -> Result<(), SoptError>
    where
        R: std::io::BufRead + Send,
        W: std::io::Write,
    {
        let queue = RequestQueue::new();
        let (tx, rx) = mpsc::channel::<Response>();
        let write_err = crossbeam::thread::scope(|s| {
            let rejections = tx.clone();
            let queue = &queue;
            s.spawn(move |_| {
                let mut reader = reader;
                // Bytes, so that a line that is not UTF-8 gets a typed
                // rejection like any other bad line: `read_line` fails on
                // it, which would end the session.
                let mut line = Vec::new();
                loop {
                    line.clear();
                    match reader.read_until(b'\n', &mut line) {
                        Ok(0) | Err(_) => break,
                        Ok(_) => {}
                    }
                    let parsed = match std::str::from_utf8(&line) {
                        Ok(text) if text.trim().is_empty() => continue,
                        Ok(text) => Request::parse(text.trim()),
                        Err(e) => Err(Rejection::not_utf8(&line, e)),
                    };
                    match parsed {
                        Ok(request) => self.enqueue(queue, request, Instant::now()),
                        Err(rejection) => {
                            if rejections.send(Response::rejection(rejection)).is_err() {
                                break;
                            }
                        }
                    }
                }
                queue.close();
            });
            self.run_workers(queue, (tx, rx), |rx| {
                for response in rx {
                    let wrote =
                        writeln!(writer, "{}", response.to_json()).and_then(|()| writer.flush());
                    if let Err(e) = wrote {
                        // Dropping the receiver makes the workers' sends
                        // fail, so they stop; the reader runs on to EOF.
                        return Some(e);
                    }
                }
                None
            })
        })
        .expect("serve threads contain panics per request");
        match write_err {
            None => Ok(()),
            Some(e) => Err(SoptError::Io {
                context: format!("writing response: {e}"),
            }),
        }
    }

    /// Counts `request` in the `queue_depth` gauge, then pushes it — in
    /// that order, so a worker that pops it at once cannot take the gauge
    /// below zero. Both serve loops enqueue through here. `Relaxed` is
    /// enough: the push releases the queue's mutex and the pop acquires
    /// it, so the worker's decrement follows this increment.
    fn enqueue(&self, queue: &RequestQueue, request: Request, arrival: Instant) {
        self.queue_depth.fetch_add(1, Ordering::Relaxed);
        queue.push(request.priority, (request, arrival));
    }

    /// Runs this server's workers over `queue` on the engine's pool: each
    /// dequeued request leaves the `queue_depth` gauge and is answered by
    /// [`Server::process`]; `consume` receives the responses on the calling
    /// thread. The channel is unbounded, so a slow consumer never blocks
    /// the serve reader's rejections.
    fn run_workers<C>(
        &self,
        queue: &RequestQueue,
        channel: (mpsc::Sender<Response>, mpsc::Receiver<Response>),
        consume: impl FnOnce(mpsc::Receiver<Response>) -> C,
    ) -> C {
        run_pool(
            self.threads,
            queue,
            channel,
            |(request, arrival)| {
                self.queue_depth.fetch_sub(1, Ordering::Relaxed);
                self.process(request, arrival)
            },
            |tx, response| tx.send(response).is_ok(),
            consume,
        )
    }

    /// Binds a Unix socket at `path` (replacing a stale file) and serves
    /// connections sequentially, each through [`Server::serve`] — the
    /// cache stays warm across connections. Runs until the process exits.
    #[cfg(unix)]
    pub fn serve_socket(&self, path: &std::path::Path) -> Result<(), SoptError> {
        let io_err = |what: &str, e: std::io::Error| SoptError::Io {
            context: format!("{what} '{}': {e}", path.display()),
        };
        match std::fs::remove_file(path) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(io_err("cannot replace stale socket", e)),
        }
        let listener =
            std::os::unix::net::UnixListener::bind(path).map_err(|e| io_err("cannot bind", e))?;
        for stream in listener.incoming() {
            let stream = stream.map_err(|e| io_err("accept failed on", e))?;
            let reader = std::io::BufReader::new(
                stream
                    .try_clone()
                    .map_err(|e| io_err("cannot clone connection on", e))?,
            );
            // A client that vanishes mid-solve is that connection's
            // problem, not the daemon's: keep listening.
            let _ = self.serve(reader, stream);
        }
        Ok(())
    }

    /// Answers one request whose queue-residency clock started at
    /// `arrival` (the shed check compares the elapsed wait to the budget).
    fn process(&self, request: Request, arrival: Instant) -> Response {
        self.recorder.record_duration(
            sopt_obs::Phase::QueueWait,
            arrival.elapsed().as_micros() as u64,
        );
        let Request {
            id,
            kind,
            deadline_ms,
            index,
            ..
        } = request;
        let solve = match kind {
            RequestKind::Stats => {
                return Response {
                    id: Some(id),
                    index,
                    outcome: Outcome::Stats(self.stats()),
                    telemetry: None,
                }
            }
            RequestKind::Metrics => {
                return Response {
                    id: Some(id),
                    index,
                    outcome: Outcome::Metrics(self.metrics()),
                    telemetry: None,
                }
            }
            RequestKind::Cancel { target } => {
                self.withdrawn
                    .lock()
                    .expect("withdrawn-set lock poisoned")
                    .insert(target.clone());
                return Response {
                    id: Some(id),
                    index,
                    outcome: Outcome::Cancelled { target },
                    telemetry: None,
                };
            }
            RequestKind::Solve(solve) => solve,
        };
        self.scenarios.fetch_add(1, Ordering::Relaxed);
        if self
            .withdrawn
            .lock()
            .expect("withdrawn-set lock poisoned")
            .remove(&id)
        {
            self.cancelled.fetch_add(1, Ordering::Relaxed);
            return Response {
                id: Some(id),
                index,
                outcome: Outcome::Dropped {
                    reason: "withdrawn by a cancel request".into(),
                },
                telemetry: None,
            };
        }
        if self.shed == ShedPolicy::DropExpired {
            if let Some(budget) = deadline_ms {
                let waited = arrival.elapsed().as_millis() as u64;
                if waited >= budget {
                    self.dropped.fetch_add(1, Ordering::Relaxed);
                    return Response {
                        id: Some(id),
                        index,
                        outcome: Outcome::Dropped {
                            reason: format!(
                                "deadline of {budget} ms expired after {waited} ms in queue"
                            ),
                        },
                        telemetry: None,
                    };
                }
            }
        }
        // A request is solved start to finish on this thread, so the
        // solver's thread-local notes (FW iteration counts) belong to this
        // request; drain any residue first, time the whole service, and
        // attach both to the envelope on success.
        let solve_started = self.recorder.is_enabled().then(|| {
            let _ = sopt_obs::take_solve_notes();
            Instant::now()
        });
        let result =
            catch_unwind(AssertUnwindSafe(|| self.solve_scenario(&solve))).unwrap_or_else(|_| {
                Err(SoptError::WorkerPanic {
                    index: index.unwrap_or(0),
                })
            });
        self.delivered.fetch_add(1, Ordering::Relaxed);
        let telemetry = solve_started.map(|started| {
            let elapsed_us = started.elapsed().as_micros() as u64;
            self.recorder
                .record_duration(sopt_obs::Phase::SolveLatency, elapsed_us);
            codec::SolveTelemetry {
                elapsed_us,
                fw_iters: sopt_obs::take_solve_notes().fw_iters,
            }
        });
        match result {
            Ok(report) => Response {
                id: Some(id),
                index,
                outcome: Outcome::Ok(report),
                telemetry,
            },
            Err(e) => Response {
                id: Some(id),
                index,
                outcome: Outcome::Err(e),
                telemetry: None,
            },
        }
    }

    /// Parses, applies knob overrides, and solves through the same cached
    /// path as the fleet engine — one memo table, one disk log, both
    /// entry points.
    fn solve_scenario(&self, solve: &SolveRequest) -> Result<Report, SoptError> {
        let mut scenario = Scenario::parse(&solve.spec)?;
        if let Some(rate) = solve.rate {
            scenario = scenario.with_rate(rate)?;
        }
        let options = solve.options_over(&self.options);
        cached_solve(scenario, &options, Some(&self.cache), &self.counters)
    }
}

#[cfg(test)]
mod tests {
    use super::super::solve::Task;
    use super::*;

    fn server() -> Server {
        EngineBuilder::new().threads(1).server().unwrap()
    }

    fn solve_req(id: &str, spec: &str) -> Request {
        Request::solve(
            id,
            SolveRequest {
                spec: spec.into(),
                ..SolveRequest::default()
            },
        )
    }

    #[test]
    fn handle_solves_and_memoizes() {
        let server = server();
        let first = server.handle(solve_req("a", "x, 1.0"));
        let Outcome::Ok(report) = &first.outcome else {
            panic!("{:?}", first.outcome)
        };
        assert!((report.data.as_beta().unwrap().beta - 0.5).abs() < 1e-9);
        let second = server.handle(solve_req("b", "x, 1.0"));
        assert!(matches!(second.outcome, Outcome::Ok(_)));
        let stats = server.stats();
        assert_eq!(stats.scenarios, 2);
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.cache_misses, 1);
    }

    #[test]
    fn zero_deadline_is_always_shed_and_counted() {
        let server = server();
        let mut req = solve_req("probe", "x, 1.0");
        req.deadline_ms = Some(0);
        let resp = server.handle(req.clone());
        assert!(
            matches!(&resp.outcome, Outcome::Dropped { reason } if reason.contains("deadline")),
            "{:?}",
            resp.outcome
        );
        assert_eq!(server.stats().dropped, 1);
        // ShedPolicy::Never solves it anyway.
        let lenient = EngineBuilder::new()
            .threads(1)
            .shed(ShedPolicy::Never)
            .server()
            .unwrap();
        let resp = lenient.handle(req);
        assert!(matches!(resp.outcome, Outcome::Ok(_)));
        assert_eq!(lenient.stats().dropped, 0);
    }

    #[test]
    fn run_requests_pops_by_priority_then_fifo() {
        let server = server();
        let mut reqs = Vec::new();
        for (id, priority) in [("low", -1), ("first", 0), ("second", 0), ("urgent", 7)] {
            let mut r = solve_req(id, "x, 1.0");
            r.priority = priority;
            reqs.push(r);
        }
        let mut order = Vec::new();
        server.run_requests(reqs, |resp| {
            let Some(RequestId::Str(id)) = resp.id else {
                panic!()
            };
            order.push(id);
        });
        assert_eq!(order, ["urgent", "first", "second", "low"]);
    }

    #[test]
    fn cancel_withdraws_a_queued_solve_and_is_counted() {
        let server = server();
        // Cancel-before-solve: the mark waits for the matching id.
        let ack = server.handle(Request::cancel("c1", "victim"));
        let Outcome::Cancelled { target } = &ack.outcome else {
            panic!("{:?}", ack.outcome)
        };
        assert_eq!(*target, RequestId::Str("victim".into()));
        let resp = server.handle(solve_req("victim", "x, 1.0"));
        assert!(
            matches!(&resp.outcome, Outcome::Dropped { reason } if reason.contains("cancel")),
            "{:?}",
            resp.outcome
        );
        let stats = server.stats();
        assert_eq!(stats.cancelled, 1);
        assert_eq!(stats.dropped, 0, "cancel is not a deadline shed");
        // The mark is consumed: resubmitting the same id solves normally.
        let resp = server.handle(solve_req("victim", "x, 1.0"));
        assert!(matches!(resp.outcome, Outcome::Ok(_)));
        assert_eq!(server.stats().cancelled, 1);
        // In the priority queue, a high-priority cancel overtakes the
        // low-priority solve it withdraws.
        let mut solve = solve_req("slow", "x, 1.0");
        solve.priority = -5;
        let mut cancel = Request::cancel("c2", "slow");
        cancel.priority = 5;
        let mut outcomes = Vec::new();
        server.run_requests(vec![solve, cancel], |resp| {
            outcomes.push(resp.outcome);
        });
        assert!(matches!(outcomes[0], Outcome::Cancelled { .. }));
        assert!(matches!(outcomes[1], Outcome::Dropped { .. }));
        assert_eq!(server.stats().cancelled, 2);
    }

    #[test]
    fn errors_are_typed_not_fatal() {
        let server = server();
        let resp = server.handle(solve_req("bad", "not a spec ("));
        assert!(matches!(resp.outcome, Outcome::Err(_)));
        // The server keeps serving after an error.
        let resp = server.handle(solve_req("ok", "x, 1.0"));
        assert!(matches!(resp.outcome, Outcome::Ok(_)));
    }

    #[test]
    fn serve_loop_answers_every_line() {
        let server = server();
        let input = "\
            {\"v\": 1, \"id\": \"a\", \"spec\": \"x, 1.0\"}\n\
            not json at all\n\
            \n\
            {\"v\": 1, \"id\": \"b\", \"spec\": \"x, 1.0\", \"task\": \"equilib\"}\n\
            {\"v\": 1, \"id\": \"s\", \"kind\": \"stats\"}\n";
        let mut out = Vec::new();
        server.serve(input.as_bytes(), &mut out).unwrap();
        let out = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4, "{out}");
        for line in &lines {
            assert!(codec::parse_json(line).is_ok(), "unparseable: {line}");
        }
        assert_eq!(out.matches("\"status\": \"ok\"").count(), 2, "{out}");
        assert_eq!(out.matches("\"status\": \"err\"").count(), 1, "{out}");
        assert_eq!(out.matches("\"status\": \"stats\"").count(), 1, "{out}");
        // With one worker the stats line reflects both prior solves.
        let stats_line = lines.iter().find(|l| l.contains("\"stats\"")).unwrap();
        assert!(stats_line.contains("\"scenarios\": 2"), "{stats_line}");
    }

    #[test]
    fn per_request_knobs_override_server_defaults() {
        let server = EngineBuilder::new()
            .threads(1)
            .task(Task::Equilib)
            .server()
            .unwrap();
        let resp = server.handle(solve_req("default", "x, 1.0"));
        let Outcome::Ok(report) = &resp.outcome else {
            panic!()
        };
        assert!(report.data.as_equilib().is_some());
        let mut req = solve_req("override", "x, 1.0");
        let RequestKind::Solve(s) = &mut req.kind else {
            panic!()
        };
        s.task = Some(Task::Beta);
        let resp = server.handle(req);
        let Outcome::Ok(report) = &resp.outcome else {
            panic!()
        };
        assert!(report.data.as_beta().is_some());
    }
}
