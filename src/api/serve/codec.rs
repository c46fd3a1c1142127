//! The serve wire codec: one typed [`Request`]/[`Response`] envelope.
//!
//! This is the *single* JSONL schema of the project — `sopt serve` speaks
//! it on its socket/pipe, `sopt batch --stream` emits its response side,
//! and the public submission API ([`Server`](super::Server),
//! [`Server::run_requests`](super::Server::run_requests)) consumes the
//! typed structs directly. Before this module, CLI flags, `Batch` fields
//! and the ad-hoc stream JSONL each declared their own knob set; now they
//! are all views of [`Request`].
//!
//! ## Request schema (one JSON object per line)
//!
//! ```json
//! {"v": 1, "id": "r1", "kind": "solve", "spec": "x, 1.0", "task": "beta",
//!  "rate": 2.0, "alpha": 0.5, "steps": 10, "tolerance": 1e-9,
//!  "max_iters": 2000, "strategy": "strong",
//!  "priority": 5, "deadline_ms": 1000, "index": 0}
//! ```
//!
//! * `v` (required) — protocol version, must be `1`.
//! * `id` (required) — string or integer, echoed verbatim in the response.
//! * `kind` — `"solve"` (default), `"stats"`, `"metrics"`, or `"cancel"`.
//! * `spec` — scenario spec (required for `solve`; both grammars).
//! * `task`/`rate`/`alpha`/`steps`/`tolerance`/`max_iters`/`strategy`/
//!   `price_steps`/`price_rounds`/`aon` — per-request solve knobs
//!   overriding the server's defaults.
//! * `target` — the id of the solve a `cancel` withdraws (required for
//!   `cancel`, invalid elsewhere). The cancel is acked immediately with
//!   `{"status": "cancelled", "target": …}`; the withdrawn solve, if
//!   still queued when a worker reaches it, is answered
//!   `{"status": "dropped", …}` and counted in the `cancelled` stat.
//! * `priority` — integer, higher pops first (default 0; FIFO within ties).
//! * `deadline_ms` — budget from receipt; a request still queued when it
//!   expires is answered `dropped`, never silently lost.
//! * `index` — optional input position, echoed back (the `batch --stream`
//!   alias).
//!
//! Unknown keys are rejected (typed error response), so client typos fail
//! loudly instead of silently solving with default knobs.
//!
//! ## Response schema
//!
//! ```json
//! {"v": 1, "id": "r1", "index": 0, "status": "ok", "report": {…}}
//! {"v": 1, "id": "r1", "status": "err", "error": "cannot parse …"}
//! {"v": 1, "id": "r1", "status": "dropped", "reason": "deadline …"}
//! {"v": 1, "id": "c1", "status": "cancelled", "target": "r1"}
//! {"v": 1, "id": "s", "status": "stats", "stats": {…, "disk_hits": 2,
//!  "uptime_ms": 1234, "queue_depth": 0}}
//! {"v": 1, "id": "m", "status": "metrics", "metrics": {"phases":
//!  {"solve_latency": {"count": 9, "p50_us": 180, …, "buckets": [[160, 5],
//!  [192, 4]]}, …}, "counters": {"fw_iterations": 120, …}}}
//! ```
//!
//! An `ok` response from a metrics-enabled server additionally carries
//! `"elapsed_us"` and `"fw_iters"` (see
//! [`EngineBuilder::metrics`](super::super::engine::EngineBuilder::metrics)).
//!
//! Malformed input never panics and never skips an id: a line that parses
//! as JSON but fails validation echoes its `id` back in the error
//! response; a line that is not JSON at all gets `"id": null`.

use sopt_core::curve::CurveStrategy;
use sopt_solver::AonMode;

use super::super::engine::EngineStats;
use super::super::error::SoptError;
use super::super::report::{json_str, Report};
use super::super::solve::{SolveOptions, Task};

// ---------------------------------------------------------------------------
// A minimal JSON value parser (no serde — the project is offline-safe).

/// A parsed JSON value. Only what the envelope needs: numbers are `f64`
/// (ids keep integer fidelity via [`RequestId`]), objects preserve key
/// order for error messages.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Self {
        Parser {
            bytes: s.as_bytes(),
            pos: 0,
        }
    }

    fn fail<T>(&self, reason: &str) -> Result<T, SoptError> {
        Err(SoptError::Parse {
            token: format!("byte {}", self.pos),
            reason: format!("json: {reason}"),
        })
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\r' || b == b'\n' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.peek() == Some(b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_lit(&mut self, lit: &str) -> Result<(), SoptError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            self.fail(&format!("expected '{lit}'"))
        }
    }

    fn value(&mut self) -> Result<Json, SoptError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => {
                self.expect_lit("true")?;
                Ok(Json::Bool(true))
            }
            Some(b'f') => {
                self.expect_lit("false")?;
                Ok(Json::Bool(false))
            }
            Some(b'n') => {
                self.expect_lit("null")?;
                Ok(Json::Null)
            }
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(_) => self.fail("unexpected character"),
            None => self.fail("unexpected end of input"),
        }
    }

    fn object(&mut self) -> Result<Json, SoptError> {
        self.pos += 1; // '{'
        let mut fields = Vec::new();
        self.skip_ws();
        if self.eat(b'}') {
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            if !self.eat(b':') {
                return self.fail("expected ':' after object key");
            }
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            if self.eat(b',') {
                continue;
            }
            if self.eat(b'}') {
                return Ok(Json::Obj(fields));
            }
            return self.fail("expected ',' or '}' in object");
        }
    }

    fn array(&mut self) -> Result<Json, SoptError> {
        self.pos += 1; // '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(b']') {
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            if self.eat(b',') {
                continue;
            }
            if self.eat(b']') {
                return Ok(Json::Arr(items));
            }
            return self.fail("expected ',' or ']' in array");
        }
    }

    fn string(&mut self) -> Result<String, SoptError> {
        if !self.eat(b'"') {
            return self.fail("expected string");
        }
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return self.fail("unterminated string");
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return self.fail("unterminated escape");
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok());
                            let Some(code) = hex else {
                                return self.fail("bad \\u escape");
                            };
                            self.pos += 4;
                            // Surrogate pairs are rejected rather than
                            // combined — the envelope never emits them.
                            let Some(c) = char::from_u32(code) else {
                                return self.fail("\\u escape is not a scalar value");
                            };
                            out.push(c);
                        }
                        _ => return self.fail("unknown escape"),
                    }
                }
                _ => {
                    // Re-decode the UTF-8 sequence starting at b.
                    let start = self.pos - 1;
                    let width = utf8_width(b);
                    if width == 0 || start + width > self.bytes.len() {
                        return self.fail("invalid utf-8 in string");
                    }
                    self.pos = start + width;
                    match std::str::from_utf8(&self.bytes[start..self.pos]) {
                        Ok(s) => out.push_str(s),
                        Err(_) => return self.fail("invalid utf-8 in string"),
                    }
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, SoptError> {
        let start = self.pos;
        self.eat(b'-');
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || b == b'.' || b == b'e' || b == b'E' || b == b'+' || b == b'-' {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii slice");
        match text.parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(Json::Num(v)),
            _ => self.fail("invalid number"),
        }
    }
}

const fn utf8_width(b: u8) -> usize {
    match b {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        0xf0..=0xf7 => 4,
        _ => 0,
    }
}

/// Parses one JSON value; trailing non-whitespace is an error.
pub(crate) fn parse_json(s: &str) -> Result<Json, SoptError> {
    let mut p = Parser::new(s);
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return p.fail("trailing characters after value");
    }
    Ok(v)
}

// ---------------------------------------------------------------------------
// Request side.

/// A request id: a JSON string or integer, echoed verbatim.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum RequestId {
    /// A string id.
    Str(String),
    /// An integer id.
    Num(i64),
}

impl RequestId {
    fn to_json(&self) -> String {
        match self {
            RequestId::Str(s) => json_str(s),
            RequestId::Num(n) => n.to_string(),
        }
    }
}

impl From<&str> for RequestId {
    fn from(s: &str) -> Self {
        RequestId::Str(s.to_string())
    }
}

impl From<i64> for RequestId {
    fn from(n: i64) -> Self {
        RequestId::Num(n)
    }
}

/// The solve payload of a [`Request`]: a spec plus per-request knob
/// overrides (unset knobs inherit the server's defaults).
#[derive(Clone, Debug, PartialEq, Default)]
pub struct SolveRequest {
    /// Scenario spec (either grammar).
    pub spec: String,
    /// Task override.
    pub task: Option<Task>,
    /// Routed-rate override (applied via `Scenario::with_rate`).
    pub rate: Option<f64>,
    /// Leader portion (LLF).
    pub alpha: Option<f64>,
    /// Curve sample count.
    pub steps: Option<usize>,
    /// Convergence target.
    pub tolerance: Option<f64>,
    /// Iteration cap.
    pub max_iters: Option<usize>,
    /// Weak/strong curve split.
    pub strategy: Option<CurveStrategy>,
    /// Pricing grid resolution (candidate count / best-response grid).
    pub price_steps: Option<usize>,
    /// Pricing best-response round budget.
    pub price_rounds: Option<usize>,
    /// Multi-commodity all-or-nothing strategy.
    pub aon: Option<AonMode>,
}

impl SolveRequest {
    /// The request's effective knob set: the server defaults with every
    /// set field overridden.
    pub(crate) fn options_over(&self, base: &SolveOptions) -> SolveOptions {
        let mut o = base.clone();
        if let Some(t) = self.task {
            o.task = t;
        }
        if let Some(a) = self.alpha {
            o.alpha = Some(a);
        }
        if let Some(s) = self.steps {
            o.steps = s;
        }
        if let Some(t) = self.tolerance {
            o.tolerance = t;
        }
        if let Some(k) = self.max_iters {
            o.max_iters = k;
        }
        if let Some(st) = self.strategy {
            o.strategy = st;
        }
        if let Some(p) = self.price_steps {
            o.price_steps = p;
        }
        if let Some(p) = self.price_rounds {
            o.price_rounds = p;
        }
        if let Some(a) = self.aon {
            o.aon = a;
        }
        o
    }
}

/// What a request asks for.
#[derive(Clone, Debug, PartialEq)]
pub enum RequestKind {
    /// Solve one scenario.
    Solve(SolveRequest),
    /// Report the server's [`EngineStats`] snapshot.
    Stats,
    /// Report the server's metrics recorder snapshot: per-phase latency
    /// histograms (bucket arrays plus p50/p90/p99) and solver counters.
    /// Empty unless the server was built with metrics enabled.
    Metrics,
    /// Withdraw a queued solve by its id. The ack answers immediately;
    /// the withdrawn solve (if it is still queued when a worker reaches
    /// it) is answered `dropped` and counted in `cancelled`. Cancels ride
    /// the same priority queue as solves — submit them at a higher
    /// priority to overtake the work they withdraw.
    Cancel {
        /// The id of the solve to withdraw.
        target: RequestId,
    },
}

/// One line of the serve protocol: the typed request envelope.
#[derive(Clone, Debug, PartialEq)]
pub struct Request {
    /// Client-chosen id, echoed in the response.
    pub id: RequestId,
    /// Solve or stats.
    pub kind: RequestKind,
    /// Scheduling priority: higher pops first, FIFO within ties
    /// (default 0).
    pub priority: i64,
    /// Time budget in milliseconds from receipt; expired requests are
    /// answered `dropped` (under the default shed policy).
    pub deadline_ms: Option<u64>,
    /// Optional input position, echoed back (`batch --stream` sets it).
    pub index: Option<usize>,
}

impl Request {
    /// A solve request with default scheduling fields.
    pub fn solve(id: impl Into<RequestId>, solve: SolveRequest) -> Self {
        Request {
            id: id.into(),
            kind: RequestKind::Solve(solve),
            priority: 0,
            deadline_ms: None,
            index: None,
        }
    }

    /// A stats request.
    pub fn stats(id: impl Into<RequestId>) -> Self {
        Request {
            id: id.into(),
            kind: RequestKind::Stats,
            priority: 0,
            deadline_ms: None,
            index: None,
        }
    }

    /// A metrics request.
    pub fn metrics(id: impl Into<RequestId>) -> Self {
        Request {
            id: id.into(),
            kind: RequestKind::Metrics,
            priority: 0,
            deadline_ms: None,
            index: None,
        }
    }

    /// A cancel request withdrawing the solve whose id is `target`.
    pub fn cancel(id: impl Into<RequestId>, target: impl Into<RequestId>) -> Self {
        Request {
            id: id.into(),
            kind: RequestKind::Cancel {
                target: target.into(),
            },
            priority: 0,
            deadline_ms: None,
            index: None,
        }
    }

    /// Serializes to one JSONL line (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut fields = vec![
            "\"v\": 1".to_string(),
            format!("\"id\": {}", self.id.to_json()),
        ];
        match &self.kind {
            RequestKind::Stats => fields.push("\"kind\": \"stats\"".to_string()),
            RequestKind::Metrics => fields.push("\"kind\": \"metrics\"".to_string()),
            RequestKind::Cancel { target } => {
                fields.push("\"kind\": \"cancel\"".to_string());
                fields.push(format!("\"target\": {}", target.to_json()));
            }
            RequestKind::Solve(s) => {
                fields.push("\"kind\": \"solve\"".to_string());
                fields.push(format!("\"spec\": {}", json_str(&s.spec)));
                if let Some(t) = s.task {
                    fields.push(format!("\"task\": {}", json_str(t.name())));
                }
                if let Some(r) = s.rate {
                    fields.push(format!("\"rate\": {}", fmt_f64(r)));
                }
                if let Some(a) = s.alpha {
                    fields.push(format!("\"alpha\": {}", fmt_f64(a)));
                }
                if let Some(n) = s.steps {
                    fields.push(format!("\"steps\": {n}"));
                }
                if let Some(t) = s.tolerance {
                    fields.push(format!("\"tolerance\": {}", fmt_f64(t)));
                }
                if let Some(k) = s.max_iters {
                    fields.push(format!("\"max_iters\": {k}"));
                }
                if let Some(st) = s.strategy {
                    fields.push(format!("\"strategy\": {}", json_str(st.name())));
                }
                if let Some(p) = s.price_steps {
                    fields.push(format!("\"price_steps\": {p}"));
                }
                if let Some(p) = s.price_rounds {
                    fields.push(format!("\"price_rounds\": {p}"));
                }
                if let Some(a) = s.aon {
                    fields.push(format!("\"aon\": {}", json_str(a.name())));
                }
            }
        }
        if self.priority != 0 {
            fields.push(format!("\"priority\": {}", self.priority));
        }
        if let Some(d) = self.deadline_ms {
            fields.push(format!("\"deadline_ms\": {d}"));
        }
        if let Some(i) = self.index {
            fields.push(format!("\"index\": {i}"));
        }
        format!("{{{}}}", fields.join(", "))
    }

    /// Parses one JSONL line. On failure the rejection carries the id when
    /// it could be recovered from the line, so the error response still
    /// echoes it — no id is ever silently skipped.
    pub fn parse(line: &str) -> Result<Request, Rejection> {
        let json = parse_json(line).map_err(|error| Rejection { id: None, error })?;
        let Json::Obj(fields) = json else {
            return Err(Rejection {
                id: None,
                error: SoptError::Parse {
                    token: truncate(line),
                    reason: "request must be a JSON object".into(),
                },
            });
        };
        // Recover the id first so every later rejection can echo it.
        let id = fields
            .iter()
            .find(|(k, _)| k == "id")
            .and_then(|(_, v)| id_of(v));
        let reject = |reason: String| Rejection {
            id: id.clone(),
            error: SoptError::Parse {
                token: truncate(line),
                reason,
            },
        };

        let mut v = None;
        let mut kind_name: Option<String> = None;
        let mut solve = SolveRequest::default();
        let mut spec_set = false;
        let mut target: Option<RequestId> = None;
        let mut priority = 0i64;
        let mut deadline_ms = None;
        let mut index = None;
        let mut id_field = None;
        for (key, val) in &fields {
            match key.as_str() {
                "v" => {
                    v = Some(int_of(val).ok_or_else(|| reject("'v' must be an integer".into()))?)
                }
                "id" => {
                    id_field = Some(
                        id_of(val)
                            .ok_or_else(|| reject("'id' must be a string or integer".into()))?,
                    )
                }
                "kind" => {
                    kind_name = Some(
                        str_of(val)
                            .ok_or_else(|| reject("'kind' must be a string".into()))?
                            .to_string(),
                    )
                }
                "spec" => {
                    solve.spec = str_of(val)
                        .ok_or_else(|| reject("'spec' must be a string".into()))?
                        .to_string();
                    spec_set = true;
                }
                "task" => {
                    let name =
                        str_of(val).ok_or_else(|| reject("'task' must be a string".into()))?;
                    solve.task = Some(name.parse::<Task>().map_err(|e| reject(e.to_string()))?);
                }
                "rate" => {
                    solve.rate =
                        Some(num_of(val).ok_or_else(|| reject("'rate' must be a number".into()))?)
                }
                "alpha" => {
                    solve.alpha =
                        Some(num_of(val).ok_or_else(|| reject("'alpha' must be a number".into()))?)
                }
                "steps" => {
                    solve.steps =
                        Some(uint_of(val).ok_or_else(|| {
                            reject("'steps' must be a non-negative integer".into())
                        })? as usize)
                }
                "tolerance" => {
                    solve.tolerance = Some(
                        num_of(val).ok_or_else(|| reject("'tolerance' must be a number".into()))?,
                    )
                }
                "max_iters" => {
                    solve.max_iters = Some(uint_of(val).ok_or_else(|| {
                        reject("'max_iters' must be a non-negative integer".into())
                    })? as usize)
                }
                "strategy" => {
                    let name =
                        str_of(val).ok_or_else(|| reject("'strategy' must be a string".into()))?;
                    solve.strategy = Some(
                        CurveStrategy::from_name(name)
                            .ok_or_else(|| reject(format!("unknown strategy '{name}'")))?,
                    );
                }
                "price_steps" => {
                    solve.price_steps = Some(uint_of(val).ok_or_else(|| {
                        reject("'price_steps' must be a non-negative integer".into())
                    })? as usize)
                }
                "price_rounds" => {
                    solve.price_rounds = Some(uint_of(val).ok_or_else(|| {
                        reject("'price_rounds' must be a non-negative integer".into())
                    })? as usize)
                }
                "aon" => {
                    let name =
                        str_of(val).ok_or_else(|| reject("'aon' must be a string".into()))?;
                    solve.aon = Some(
                        AonMode::from_name(name)
                            .ok_or_else(|| reject(format!("unknown aon mode '{name}'")))?,
                    );
                }
                "target" => {
                    target = Some(
                        id_of(val)
                            .ok_or_else(|| reject("'target' must be a string or integer".into()))?,
                    )
                }
                "priority" => {
                    priority =
                        int_of(val).ok_or_else(|| reject("'priority' must be an integer".into()))?
                }
                "deadline_ms" => {
                    deadline_ms = Some(uint_of(val).ok_or_else(|| {
                        reject("'deadline_ms' must be a non-negative integer".into())
                    })?)
                }
                "index" => {
                    index =
                        Some(uint_of(val).ok_or_else(|| {
                            reject("'index' must be a non-negative integer".into())
                        })? as usize)
                }
                other => return Err(reject(format!("unknown key '{other}'"))),
            }
        }
        match v {
            Some(1) => {}
            Some(other) => return Err(reject(format!("unsupported protocol version {other}"))),
            None => return Err(reject("missing required key 'v'".into())),
        }
        let Some(id) = id_field else {
            return Err(reject("missing required key 'id'".into()));
        };
        if target.is_some() && kind_name.as_deref() != Some("cancel") {
            return Err(reject("'target' is only valid on a cancel request".into()));
        }
        let kind = match kind_name.as_deref() {
            Some("stats") => {
                if spec_set {
                    return Err(reject("'spec' is not valid on a stats request".into()));
                }
                RequestKind::Stats
            }
            Some("metrics") => {
                if spec_set {
                    return Err(reject("'spec' is not valid on a metrics request".into()));
                }
                RequestKind::Metrics
            }
            Some("cancel") => {
                if spec_set {
                    return Err(reject("'spec' is not valid on a cancel request".into()));
                }
                let Some(target) = target else {
                    return Err(reject("missing required key 'target'".into()));
                };
                RequestKind::Cancel { target }
            }
            Some("solve") | None => {
                if !spec_set {
                    return Err(reject("missing required key 'spec'".into()));
                }
                RequestKind::Solve(solve)
            }
            Some(other) => {
                return Err(reject(format!(
                    "unknown kind '{other}' (solve|stats|metrics|cancel)"
                )))
            }
        };
        Ok(Request {
            id,
            kind,
            priority,
            deadline_ms,
            index,
        })
    }
}

/// A request line that could not become a [`Request`]: the typed error,
/// plus the id when the line yielded one (echoed in the error response).
#[derive(Clone, Debug, PartialEq)]
pub struct Rejection {
    /// The recovered id, if any.
    pub id: Option<RequestId>,
    /// What was wrong.
    pub error: SoptError,
}

impl Rejection {
    /// The rejection of a request line that is not UTF-8. No JSON can be
    /// read from it, so no id is recoverable.
    pub(crate) fn not_utf8(line: &[u8], err: std::str::Utf8Error) -> Self {
        Rejection {
            id: None,
            error: SoptError::Parse {
                token: truncate(String::from_utf8_lossy(line).trim()),
                reason: format!(
                    "request line is not valid UTF-8 (bad byte at offset {})",
                    err.valid_up_to()
                ),
            },
        }
    }
}

fn truncate(line: &str) -> String {
    const MAX: usize = 80;
    if line.len() <= MAX {
        line.to_string()
    } else {
        let mut end = MAX;
        while !line.is_char_boundary(end) {
            end -= 1;
        }
        format!("{}…", &line[..end])
    }
}

fn id_of(v: &Json) -> Option<RequestId> {
    match v {
        Json::Str(s) => Some(RequestId::Str(s.clone())),
        Json::Num(n) if n.fract() == 0.0 && n.abs() <= i64::MAX as f64 => {
            Some(RequestId::Num(*n as i64))
        }
        _ => None,
    }
}

fn str_of(v: &Json) -> Option<&str> {
    match v {
        Json::Str(s) => Some(s),
        _ => None,
    }
}

fn num_of(v: &Json) -> Option<f64> {
    match v {
        Json::Num(n) => Some(*n),
        _ => None,
    }
}

fn int_of(v: &Json) -> Option<i64> {
    match v {
        Json::Num(n) if n.fract() == 0.0 && n.abs() <= i64::MAX as f64 => Some(*n as i64),
        _ => None,
    }
}

fn uint_of(v: &Json) -> Option<u64> {
    match v {
        Json::Num(n) if n.fract() == 0.0 && *n >= 0.0 && *n <= u64::MAX as f64 => Some(*n as u64),
        _ => None,
    }
}

/// `f64` → shortest JSON number round-tripping exactly (requests carry
/// user knobs, which must not be rounded the way report values are).
fn fmt_f64(v: f64) -> String {
    format!("{v}")
}

// ---------------------------------------------------------------------------
// Response side.

/// What happened to a request.
#[derive(Clone, Debug)]
pub enum Outcome {
    /// The solve succeeded.
    Ok(Report),
    /// The solve (or the request itself) failed; the error is typed.
    Err(SoptError),
    /// The scheduler shed the request (deadline expired before solving,
    /// or it was withdrawn by a cancel).
    Dropped {
        /// Why it was shed.
        reason: String,
    },
    /// A cancel request's acknowledgement: the target id is now marked
    /// withdrawn (whether or not a matching solve is queued).
    Cancelled {
        /// The id the cancel targeted.
        target: RequestId,
    },
    /// A stats snapshot.
    Stats(EngineStats),
    /// A metrics snapshot: per-phase latency histograms and counters.
    Metrics(sopt_obs::MetricsSnapshot),
}

/// Per-solve timing attached to an `ok` response when the server was
/// built with metrics enabled.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SolveTelemetry {
    /// End-to-end service time of the solve in microseconds (cache hits
    /// included — they are the fast mode of the same distribution).
    pub elapsed_us: u64,
    /// Frank–Wolfe iterations this request cost (0 for a cache hit or a
    /// warm-seeded solve that went straight to the polish).
    pub fw_iters: u64,
}

/// One line of the serve protocol: the typed response envelope.
#[derive(Clone, Debug)]
pub struct Response {
    /// The request's id (`None` only when the line was not JSON and no id
    /// could be recovered — serialized as `"id": null`).
    pub id: Option<RequestId>,
    /// The request's `index`, echoed when present.
    pub index: Option<usize>,
    /// What happened.
    pub outcome: Outcome,
    /// Per-solve timing, present only on `ok` outcomes from a
    /// metrics-enabled server (serialized as top-level `elapsed_us` /
    /// `fw_iters` fields).
    pub telemetry: Option<SolveTelemetry>,
}

impl Response {
    /// The error response for a rejected request line.
    pub fn rejection(r: Rejection) -> Self {
        Response {
            id: r.id,
            index: None,
            outcome: Outcome::Err(r.error),
            telemetry: None,
        }
    }

    /// Serializes to one JSONL line (no trailing newline).
    pub fn to_json(&self) -> String {
        let id = match &self.id {
            Some(id) => id.to_json(),
            None => "null".to_string(),
        };
        let mut fields = vec!["\"v\": 1".to_string(), format!("\"id\": {id}")];
        if let Some(i) = self.index {
            fields.push(format!("\"index\": {i}"));
        }
        match &self.outcome {
            Outcome::Ok(report) => {
                fields.push("\"status\": \"ok\"".to_string());
                fields.push(format!("\"report\": {}", report.to_json()));
                if let Some(t) = &self.telemetry {
                    fields.push(format!("\"elapsed_us\": {}", t.elapsed_us));
                    fields.push(format!("\"fw_iters\": {}", t.fw_iters));
                }
            }
            Outcome::Err(e) => {
                fields.push("\"status\": \"err\"".to_string());
                fields.push(format!("\"error\": {}", json_str(&e.to_string())));
            }
            Outcome::Dropped { reason } => {
                fields.push("\"status\": \"dropped\"".to_string());
                fields.push(format!("\"reason\": {}", json_str(reason)));
            }
            Outcome::Cancelled { target } => {
                fields.push("\"status\": \"cancelled\"".to_string());
                fields.push(format!("\"target\": {}", target.to_json()));
            }
            Outcome::Stats(stats) => {
                fields.push("\"status\": \"stats\"".to_string());
                fields.push(format!("\"stats\": {}", stats_json(stats)));
            }
            Outcome::Metrics(snapshot) => {
                fields.push("\"status\": \"metrics\"".to_string());
                fields.push(format!("\"metrics\": {}", snapshot.to_json()));
            }
        }
        format!("{{{}}}", fields.join(", "))
    }
}

/// Serializes an [`EngineStats`] snapshot (the `stats` response payload).
pub(crate) fn stats_json(s: &EngineStats) -> String {
    format!(
        "{{\"scenarios\": {}, \"delivered\": {}, \"cache_hits\": {}, \
         \"cache_misses\": {}, \"eq_hits\": {}, \"eq_misses\": {}, \
         \"net_profile_hits\": {}, \"net_profile_misses\": {}, \
         \"disk_hits\": {}, \"rejected_records\": {}, \"profile_evictions\": {}, \
         \"report_evictions\": {}, \"dropped\": {}, \"cancelled\": {}, \
         \"uptime_ms\": {}, \"queue_depth\": {}}}",
        s.scenarios,
        s.delivered,
        s.cache_hits,
        s.cache_misses,
        s.eq_hits,
        s.eq_misses,
        s.net_profile_hits,
        s.net_profile_misses,
        s.disk_hits,
        s.rejected_records,
        s.profile_evictions,
        s.report_evictions,
        s.dropped,
        s.cancelled,
        s.uptime_ms,
        s.queue_depth
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_parser_handles_the_envelope_shapes() {
        let v =
            parse_json(r#"{"v": 1, "id": "a\nb", "nums": [1, -2.5, 1e-9], "t": true}"#).unwrap();
        let Json::Obj(fields) = v else { panic!() };
        assert_eq!(fields[0], ("v".into(), Json::Num(1.0)));
        assert_eq!(fields[1], ("id".into(), Json::Str("a\nb".into())));
        assert_eq!(
            fields[2].1,
            Json::Arr(vec![Json::Num(1.0), Json::Num(-2.5), Json::Num(1e-9)])
        );
        assert_eq!(fields[3].1, Json::Bool(true));
    }

    #[test]
    fn json_parser_rejects_garbage_without_panicking() {
        for bad in [
            "",
            "{",
            "}",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "nul",
            "{\"a\": 1} extra",
            "\"unterminated",
            "{\"a\": +1}",
            "{\"a\": 1e999}",
            "\u{1}",
            "{\"\\q\": 1}",
        ] {
            assert!(parse_json(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn request_round_trips_through_json() {
        let req = Request {
            id: RequestId::Str("r-1".into()),
            kind: RequestKind::Solve(SolveRequest {
                spec: "x, 1.0".into(),
                task: Some(Task::Curve),
                rate: Some(2.0),
                alpha: Some(0.25),
                steps: Some(12),
                tolerance: Some(1e-9),
                max_iters: Some(500),
                strategy: Some(CurveStrategy::Weak),
                price_steps: Some(24),
                price_rounds: Some(80),
                aon: Some(AonMode::Parallel),
            }),
            priority: -3,
            deadline_ms: Some(1500),
            index: Some(7),
        };
        let back = Request::parse(&req.to_json()).unwrap();
        assert_eq!(back, req);
        let stats = Request::stats(9);
        assert_eq!(Request::parse(&stats.to_json()).unwrap(), stats);
        let cancel = Request::cancel("c1", 42);
        assert_eq!(Request::parse(&cancel.to_json()).unwrap(), cancel);
    }

    #[test]
    fn cancel_requests_validate_their_target() {
        // target is required on cancel…
        let r = Request::parse(r#"{"v": 1, "id": "c", "kind": "cancel"}"#).unwrap_err();
        assert!(r.error.to_string().contains("'target'"), "{}", r.error);
        // …and invalid anywhere else.
        let r =
            Request::parse(r#"{"v": 1, "id": "s", "spec": "x, 1.0", "target": 3}"#).unwrap_err();
        assert!(
            r.error.to_string().contains("only valid on a cancel"),
            "{}",
            r.error
        );
        // A cancel cannot smuggle a spec.
        let r =
            Request::parse(r#"{"v": 1, "id": "c", "kind": "cancel", "target": 3, "spec": "x"}"#)
                .unwrap_err();
        assert!(r.error.to_string().contains("'spec'"), "{}", r.error);
        // The ack echoes the target.
        let resp = Response {
            id: Some(RequestId::Str("c".into())),
            index: None,
            outcome: Outcome::Cancelled {
                target: RequestId::Num(42),
            },
            telemetry: None,
        };
        let line = resp.to_json();
        assert!(line.contains("\"status\": \"cancelled\""), "{line}");
        assert!(line.contains("\"target\": 42"), "{line}");
    }

    #[test]
    fn rejections_echo_a_recoverable_id() {
        // Valid JSON, bad request: the id survives into the rejection.
        let r = Request::parse(r#"{"v": 1, "id": "keep-me", "bogus": 3}"#).unwrap_err();
        assert_eq!(r.id, Some(RequestId::Str("keep-me".into())));
        assert!(r.error.to_string().contains("bogus"));
        // Not JSON at all: no id to recover.
        let r = Request::parse("not json").unwrap_err();
        assert_eq!(r.id, None);
        // Wrong version is rejected even with everything else valid.
        let r = Request::parse(r#"{"v": 2, "id": 1, "spec": "x, 1.0"}"#).unwrap_err();
        assert!(r.error.to_string().contains("version"));
        // Missing v.
        let r = Request::parse(r#"{"id": 1, "spec": "x, 1.0"}"#).unwrap_err();
        assert!(r.error.to_string().contains("'v'"));
    }

    #[test]
    fn response_json_has_the_envelope_fields() {
        let resp = Response {
            id: Some(RequestId::Num(4)),
            index: Some(0),
            outcome: Outcome::Dropped {
                reason: "deadline expired".into(),
            },
            telemetry: None,
        };
        let line = resp.to_json();
        assert!(line.contains("\"v\": 1"), "{line}");
        assert!(line.contains("\"id\": 4"), "{line}");
        assert!(line.contains("\"index\": 0"), "{line}");
        assert!(line.contains("\"status\": \"dropped\""), "{line}");
        let err = Response::rejection(Rejection {
            id: None,
            error: SoptError::EmptyScenario,
        });
        assert!(err.to_json().contains("\"id\": null"));
        assert!(err.to_json().contains("\"status\": \"err\""));
    }

    #[test]
    fn stats_serialize_every_counter() {
        let s = EngineStats {
            disk_hits: 2,
            rejected_records: 4,
            dropped: 1,
            cancelled: 3,
            uptime_ms: 1234,
            queue_depth: 5,
            ..EngineStats::default()
        };
        let j = stats_json(&s);
        assert!(j.contains("\"disk_hits\": 2"), "{j}");
        assert!(j.contains("\"rejected_records\": 4"), "{j}");
        assert!(j.contains("\"dropped\": 1"), "{j}");
        assert!(j.contains("\"cancelled\": 3"), "{j}");
        assert!(j.contains("\"uptime_ms\": 1234"), "{j}");
        assert!(j.contains("\"queue_depth\": 5"), "{j}");
        assert!(parse_json(&j).is_ok(), "{j}");
    }

    #[test]
    fn metrics_requests_round_trip_and_validate() {
        let req = Request::metrics("m1");
        assert_eq!(req.to_json(), r#"{"v": 1, "id": "m1", "kind": "metrics"}"#);
        assert_eq!(Request::parse(&req.to_json()).unwrap(), req);
        // A metrics request cannot smuggle a spec…
        let r =
            Request::parse(r#"{"v": 1, "id": "m", "kind": "metrics", "spec": "x"}"#).unwrap_err();
        assert!(r.error.to_string().contains("'spec'"), "{}", r.error);
        // …or a target.
        let r =
            Request::parse(r#"{"v": 1, "id": "m", "kind": "metrics", "target": 3}"#).unwrap_err();
        assert!(r.error.to_string().contains("'target'"), "{}", r.error);
    }

    #[test]
    fn metrics_response_serializes_the_snapshot_as_json() {
        let rec = sopt_obs::Recorder::enabled();
        rec.record_duration(sopt_obs::Phase::SolveLatency, 180);
        rec.record_duration(sopt_obs::Phase::QueueWait, 12);
        rec.add(sopt_obs::Counter::ColdStarts, 1);
        let resp = Response {
            id: Some(RequestId::Str("m".into())),
            index: None,
            outcome: Outcome::Metrics(rec.snapshot()),
            telemetry: None,
        };
        let line = resp.to_json();
        assert!(line.contains("\"status\": \"metrics\""), "{line}");
        assert!(line.contains("\"solve_latency\": {\"count\": 1"), "{line}");
        assert!(line.contains("\"p50_us\": "), "{line}");
        assert!(line.contains("\"cold_starts\": 1"), "{line}");
        // The whole envelope stays parseable by the codec's own parser.
        assert!(parse_json(&line).is_ok(), "{line}");
    }

    #[test]
    fn ok_responses_carry_telemetry_when_present() {
        let report = crate::api::Scenario::parse("x, 1.0")
            .unwrap()
            .solve()
            .run()
            .unwrap();
        let mut resp = Response {
            id: Some(RequestId::Num(1)),
            index: None,
            outcome: Outcome::Ok(report),
            telemetry: Some(SolveTelemetry {
                elapsed_us: 321,
                fw_iters: 9,
            }),
        };
        let line = resp.to_json();
        assert!(line.contains("\"elapsed_us\": 321"), "{line}");
        assert!(line.contains("\"fw_iters\": 9"), "{line}");
        assert!(parse_json(&line).is_ok(), "{line}");
        // Without telemetry the fields are absent entirely.
        resp.telemetry = None;
        let line = resp.to_json();
        assert!(!line.contains("elapsed_us"), "{line}");
    }
}
