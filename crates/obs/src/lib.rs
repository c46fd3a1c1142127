//! Low-overhead instrumentation for the stackopt solve paths.
//!
//! The crate is deliberately tiny and std-only. It provides three
//! primitives and one aggregate:
//!
//! - [`Histogram`] — a log-bucketed streaming histogram of `u64` samples
//!   (microseconds by convention). Buckets are *deterministic* — the bucket
//!   boundaries depend only on the value, never on the data seen so far —
//!   so two histograms can be merged *exactly* (bucket-wise addition) and
//!   the merged quantiles equal the quantiles of the concatenated stream.
//! - [`Recorder`] — a handle that is either **disabled** (the default: a
//!   `None` niche, no allocation, no clock reads) or **enabled** (an `Arc`
//!   of per-phase histograms and counters shared across threads).
//! - [`Span`] — an RAII phase timer. A span from a disabled recorder never
//!   calls [`Instant::now`]; dropping it is a no-op.
//! - [`MetricsSnapshot`] — a point-in-time copy of every phase histogram
//!   and counter, serializable as JSON (for the serve `metrics` envelope)
//!   or Prometheus-style text exposition (for scraping).
//!
//! A process-global recorder ([`global`]) is disabled until [`enable`] is
//! called; once enabled it stays enabled for the life of the process. Deep
//! layers (the Frank–Wolfe solver, the solve cache, the α-sweep) record
//! through [`global`] so the fleet engine and the serve daemon need not
//! thread a handle through every signature.
//!
//! Per-solve telemetry (`fw_iters` on an `ok` serve response) flows through
//! a thread-local side channel — [`note_solve`] / [`take_solve_notes`] —
//! which works because a request is solved start-to-finish on one worker
//! thread.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Number of sub-buckets per octave (power of two) in [`Histogram`].
const SUB: usize = 8;

/// Total bucket count: values `0..8` get exact buckets, then 61 octaves
/// (`2^3..=2^63`) of 8 sub-buckets each.
pub const BUCKETS: usize = 8 + 61 * SUB;

/// Bucket index for a sample. Values below 8 are exact; larger values map
/// to one of 8 logarithmically spaced sub-buckets per octave, giving a
/// worst-case relative bucket width of 12.5%.
fn bucket_index(v: u64) -> usize {
    if v < 8 {
        v as usize
    } else {
        let k = (63 - v.leading_zeros()) as usize; // k >= 3
        let sub = ((v >> (k - 3)) & 7) as usize;
        8 + (k - 3) * SUB + sub
    }
}

/// Inclusive lower bound of bucket `idx` — the value reported for any
/// quantile that lands in the bucket.
fn bucket_floor(idx: usize) -> u64 {
    if idx < 8 {
        idx as u64
    } else {
        let k = 3 + (idx - 8) / SUB;
        let sub = ((idx - 8) % SUB) as u64;
        (1u64 << k) + sub * (1u64 << (k - 3))
    }
}

/// A lock-free streaming histogram with logarithmic buckets.
///
/// `record` is wait-free (a handful of relaxed atomic adds) and safe to
/// call from any number of threads. Bucket boundaries are fixed at compile
/// time, so [`Histogram::merge_from`] is exact: merging shards and then
/// querying quantiles gives the same answer as querying one histogram fed
/// the whole stream.
pub struct Histogram {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Record one sample.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Add every sample of `other` into `self`. Exact: bucket boundaries
    /// are shared, so this is plain bucket-wise addition.
    pub fn merge_from(&self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter().zip(other.buckets.iter()) {
            let n = theirs.load(Ordering::Relaxed);
            if n > 0 {
                mine.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.count
            .fetch_add(other.count.load(Ordering::Relaxed), Ordering::Relaxed);
        self.sum
            .fetch_add(other.sum.load(Ordering::Relaxed), Ordering::Relaxed);
        self.min
            .fetch_min(other.min.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max
            .fetch_max(other.max.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// A point-in-time copy of the histogram. Concurrent `record` calls
    /// may or may not be included; the snapshot is internally consistent
    /// enough for quantile queries (bucket totals are re-summed).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<(u64, u64)> = self
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let n = b.load(Ordering::Relaxed);
                (n > 0).then_some((bucket_floor(i), n))
            })
            .collect();
        let count: u64 = buckets.iter().map(|&(_, n)| n).sum();
        HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 {
                0
            } else {
                self.min.load(Ordering::Relaxed)
            },
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// Immutable copy of a [`Histogram`]: non-empty buckets as
/// `(bucket_floor, count)` pairs plus summary statistics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total samples.
    pub count: u64,
    /// Sum of all samples (saturating only at `u64` overflow).
    pub sum: u64,
    /// Smallest sample, or 0 when empty.
    pub min: u64,
    /// Largest sample, or 0 when empty.
    pub max: u64,
    /// Non-empty buckets as `(inclusive lower bound, count)`, ascending.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// The `q`-quantile (`0.0..=1.0`), reported as the lower bound of the
    /// bucket containing the sample of that rank. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for &(floor, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return floor;
            }
        }
        self.buckets.last().map_or(0, |&(floor, _)| floor)
    }

    /// Median (p50) bucket floor.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th percentile bucket floor.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th percentile bucket floor.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
}

/// The instrumented phases. Each phase owns one latency histogram
/// (microseconds) on an enabled [`Recorder`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Fingerprint lookup in the solve cache (hit or miss).
    CacheLookup,
    /// A cold Frank–Wolfe solve: all-or-nothing bootstrap plus CFW loop.
    ColdSolve,
    /// The path-polish tail of a solve (the whole solve, when warm-seeded).
    WarmPolish,
    /// One warm-chained induced-equilibrium solve inside an α-sweep.
    Induced,
    /// One candidate evaluation inside the auction / pricing search.
    AuctionCandidate,
    /// Time a serve request waited in the queue before a worker picked it up.
    QueueWait,
    /// End-to-end service time of one serve solve request.
    SolveLatency,
    /// One shortest-path search from an origin towards its group's sinks
    /// (all-or-nothing linearization, cold start, warm-seed check, polish
    /// column generation).
    SpQuery,
    /// One multi-commodity all-or-nothing assignment pass (all commodities,
    /// whatever the `AonMode` — grouped/parallel wins show up as shorter
    /// spans at the same count).
    Aon,
}

impl Phase {
    /// Every phase, in display order.
    pub const ALL: [Phase; 9] = [
        Phase::CacheLookup,
        Phase::ColdSolve,
        Phase::WarmPolish,
        Phase::Induced,
        Phase::AuctionCandidate,
        Phase::QueueWait,
        Phase::SolveLatency,
        Phase::SpQuery,
        Phase::Aon,
    ];

    /// Stable snake_case name used in the JSON and text expositions.
    pub fn name(self) -> &'static str {
        match self {
            Phase::CacheLookup => "cache_lookup",
            Phase::ColdSolve => "cold_solve",
            Phase::WarmPolish => "warm_polish",
            Phase::Induced => "induced",
            Phase::AuctionCandidate => "auction_candidate",
            Phase::QueueWait => "queue_wait",
            Phase::SolveLatency => "solve_latency",
            Phase::SpQuery => "sp_query",
            Phase::Aon => "aon",
        }
    }
}

/// Monotonic counters on an enabled [`Recorder`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Counter {
    /// Frank–Wolfe iterations across all solves.
    FwIterations,
    /// Path-polish rounds across all solves.
    PolishRounds,
    /// Solves that accepted a warm seed (skipped the FW loop).
    WarmStarts,
    /// Solves that bootstrapped cold.
    ColdStarts,
    /// Warm seeds the solver rejected (wrong shape, no s→t value, broken
    /// conservation, or a load at an M/M/1 pole). Each such solve started
    /// cold instead, so `ColdStarts` counts it too.
    SeedsRejected,
    /// Validated warm seeds whose gap, measured before any path
    /// decomposition, missed the solve's target, so the seed was decomposed
    /// and polished. A seed that meets the target returns as it is.
    SeedChecksFailed,
    /// Cold solves whose Frank–Wolfe loop handed over to the path polish
    /// because its gap stopped improving for a stall window, not because
    /// it met the target or ran out of iterations.
    StallHandovers,
    /// Solves that returned unconverged: neither the Frank–Wolfe loop nor
    /// the polish met the gap target within the iteration budget. The
    /// caller sees `converged: false` (the session layer turns it into a
    /// `NotConverged` error); this counts each such solve once.
    UnconvergedSolves,
    /// Nodes settled across all shortest-path searches (the work a
    /// search saves by stopping once its targets are settled shows up
    /// here).
    SpSettledNodes,
    /// Origin groups traversed by grouped/parallel all-or-nothing passes
    /// (each group is one one-to-many Dijkstra).
    AonGroups,
    /// Shortest-path queries *not* issued because commodities shared an
    /// origin group (`k − G` per grouped pass) — the grouping win as a
    /// number.
    AonQueriesSaved,
}

impl Counter {
    /// Every counter, in display order.
    pub const ALL: [Counter; 11] = [
        Counter::FwIterations,
        Counter::PolishRounds,
        Counter::WarmStarts,
        Counter::ColdStarts,
        Counter::SeedsRejected,
        Counter::SeedChecksFailed,
        Counter::StallHandovers,
        Counter::UnconvergedSolves,
        Counter::SpSettledNodes,
        Counter::AonGroups,
        Counter::AonQueriesSaved,
    ];

    /// Stable snake_case name used in the JSON and text expositions.
    pub fn name(self) -> &'static str {
        match self {
            Counter::FwIterations => "fw_iterations",
            Counter::PolishRounds => "polish_rounds",
            Counter::WarmStarts => "warm_starts",
            Counter::ColdStarts => "cold_starts",
            Counter::SeedsRejected => "seeds_rejected",
            Counter::SeedChecksFailed => "seed_checks_failed",
            Counter::StallHandovers => "stall_handovers",
            Counter::UnconvergedSolves => "unconverged_solves",
            Counter::SpSettledNodes => "sp_settled_nodes",
            Counter::AonGroups => "aon_groups",
            Counter::AonQueriesSaved => "aon_queries_saved",
        }
    }
}

struct RecorderInner {
    phases: [Histogram; Phase::ALL.len()],
    counters: [AtomicU64; Counter::ALL.len()],
}

/// A handle to (possibly) record metrics through.
///
/// Disabled recorders carry no allocation (`Option<Arc<_>>` has a niche,
/// so the handle is pointer-sized) and every method short-circuits without
/// touching the clock. Enabled recorders share one set of histograms and
/// counters across clones.
#[derive(Clone)]
pub struct Recorder {
    inner: Option<Arc<RecorderInner>>,
}

/// The process-global recorder storage.
static GLOBAL: OnceLock<Recorder> = OnceLock::new();
/// Fallback handle returned by [`global`] before [`enable`] is called.
static DISABLED: Recorder = Recorder { inner: None };

/// The process-global recorder: disabled until [`enable`] is called.
pub fn global() -> &'static Recorder {
    GLOBAL.get().unwrap_or(&DISABLED)
}

/// Enable the process-global recorder (idempotent, irreversible) and
/// return it.
pub fn enable() -> &'static Recorder {
    GLOBAL.get_or_init(Recorder::enabled)
}

impl Recorder {
    /// A recorder that drops everything. Free: no allocation, no clock.
    pub const fn disabled() -> Self {
        Recorder { inner: None }
    }

    /// A fresh recorder with zeroed histograms and counters.
    pub fn enabled() -> Self {
        Recorder {
            inner: Some(Arc::new(RecorderInner {
                phases: std::array::from_fn(|_| Histogram::new()),
                counters: std::array::from_fn(|_| AtomicU64::new(0)),
            })),
        }
    }

    /// Whether samples sent to this handle are kept.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Start timing `phase`. The returned [`Span`] records the elapsed
    /// microseconds into the phase histogram when dropped. On a disabled
    /// recorder this neither reads the clock nor allocates.
    #[must_use = "a span records on drop; binding it to _ ends it immediately"]
    pub fn span(&self, phase: Phase) -> Span<'_> {
        Span {
            target: self
                .inner
                .as_deref()
                .map(|inner| (&inner.phases[phase_idx(phase)], Instant::now())),
        }
    }

    /// Record a pre-measured duration (microseconds) into `phase`.
    pub fn record_duration(&self, phase: Phase, micros: u64) {
        if let Some(inner) = self.inner.as_deref() {
            inner.phases[phase_idx(phase)].record(micros);
        }
    }

    /// Add `n` to `counter`.
    pub fn add(&self, counter: Counter, n: u64) {
        if let Some(inner) = self.inner.as_deref() {
            inner.counters[counter_idx(counter)].fetch_add(n, Ordering::Relaxed);
        }
    }

    /// The live histogram behind `phase`, if enabled. Mainly for tests and
    /// benches that want to assert on raw counts.
    pub fn phase(&self, phase: Phase) -> Option<&Histogram> {
        self.inner
            .as_deref()
            .map(|inner| &inner.phases[phase_idx(phase)])
    }

    /// Snapshot every phase histogram and counter. A disabled recorder
    /// yields an empty snapshot (all counts zero).
    pub fn snapshot(&self) -> MetricsSnapshot {
        let phases = Phase::ALL
            .iter()
            .map(|&p| {
                let hist = match self.inner.as_deref() {
                    Some(inner) => inner.phases[phase_idx(p)].snapshot(),
                    None => Histogram::new().snapshot(),
                };
                (p.name(), hist)
            })
            .collect();
        let counters = Counter::ALL
            .iter()
            .map(|&c| {
                let n = self.inner.as_deref().map_or(0, |inner| {
                    inner.counters[counter_idx(c)].load(Ordering::Relaxed)
                });
                (c.name(), n)
            })
            .collect();
        MetricsSnapshot { phases, counters }
    }
}

fn phase_idx(p: Phase) -> usize {
    Phase::ALL
        .iter()
        .position(|&q| q == p)
        .expect("phase listed")
}

fn counter_idx(c: Counter) -> usize {
    Counter::ALL
        .iter()
        .position(|&q| q == c)
        .expect("counter listed")
}

/// RAII phase timer returned by [`Recorder::span`]. Records the elapsed
/// microseconds on drop; a span from a disabled recorder does nothing.
pub struct Span<'a> {
    target: Option<(&'a Histogram, Instant)>,
}

impl Span<'_> {
    /// Whether this span will record anything on drop.
    pub fn is_recording(&self) -> bool {
        self.target.is_some()
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some((hist, started)) = self.target.take() {
            hist.record(started.elapsed().as_micros() as u64);
        }
    }
}

/// Per-solve telemetry accumulated by the solver on its worker thread and
/// drained by the serve loop around each request.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolveNotes {
    /// Frank–Wolfe iterations contributed by solves since the last drain.
    pub fw_iters: u64,
    /// Path-polish rounds contributed by solves since the last drain.
    pub polish_rounds: u64,
}

thread_local! {
    static SOLVE_NOTES: Cell<SolveNotes> = const { Cell::new(SolveNotes { fw_iters: 0, polish_rounds: 0 }) };
}

/// Called by the solver after each solve when the global recorder is
/// enabled: accumulates iteration counts into the thread-local notes so
/// the serving layer can attach them to the response envelope.
pub fn note_solve(fw_iters: u64, polish_rounds: u64) {
    if !global().is_enabled() {
        return;
    }
    SOLVE_NOTES.with(|c| {
        let mut n = c.get();
        n.fw_iters += fw_iters;
        n.polish_rounds += polish_rounds;
        c.set(n);
    });
}

/// Drain (and reset) this thread's accumulated [`SolveNotes`].
pub fn take_solve_notes() -> SolveNotes {
    SOLVE_NOTES.with(|c| c.replace(SolveNotes::default()))
}

/// Point-in-time copy of every phase histogram and counter, with JSON and
/// Prometheus-style text serializers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// `(phase name, histogram)` in [`Phase::ALL`] order.
    pub phases: Vec<(&'static str, HistogramSnapshot)>,
    /// `(counter name, value)` in [`Counter::ALL`] order.
    pub counters: Vec<(&'static str, u64)>,
}

impl MetricsSnapshot {
    /// Look up a phase histogram by its snake_case name.
    pub fn phase(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.phases
            .iter()
            .find_map(|(n, h)| (*n == name).then_some(h))
    }

    /// Look up a counter by its snake_case name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find_map(|&(n, v)| (n == name).then_some(v))
    }

    /// True when no phase has recorded a single sample and every counter
    /// is zero.
    pub fn is_empty(&self) -> bool {
        self.phases.iter().all(|(_, h)| h.count == 0) && self.counters.iter().all(|&(_, v)| v == 0)
    }

    /// JSON object:
    /// `{"phases": {<name>: {"count": N, "sum_us": N, "min_us": N,
    /// "max_us": N, "p50_us": N, "p90_us": N, "p99_us": N,
    /// "buckets": [[floor_us, count], ...]}, ...}, "counters": {<name>: N, ...}}`.
    /// All numbers are unsigned integers; empty phases serialize with
    /// `"count": 0` and an empty bucket array.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\"phases\": {");
        for (i, (name, h)) in self.phases.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "\"{name}\": {{\"count\": {}, \"sum_us\": {}, \"min_us\": {}, \"max_us\": {}, \
                 \"p50_us\": {}, \"p90_us\": {}, \"p99_us\": {}, \"buckets\": [",
                h.count,
                h.sum,
                h.min,
                h.max,
                h.p50(),
                h.p90(),
                h.p99()
            ));
            for (j, &(floor, n)) in h.buckets.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("[{floor}, {n}]"));
            }
            out.push_str("]}");
        }
        out.push_str("}, \"counters\": {");
        for (i, &(name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{name}\": {v}"));
        }
        out.push_str("}}");
        out
    }

    /// Prometheus-style text exposition. Each phase emits
    /// `sopt_<name>_us_count`, `sopt_<name>_us_sum`, and
    /// `sopt_<name>_us{quantile="..."}` lines; each counter emits
    /// `sopt_<name>_total`.
    pub fn to_text(&self) -> String {
        let mut out = String::with_capacity(1024);
        for (name, h) in &self.phases {
            out.push_str(&format!("# TYPE sopt_{name}_us summary\n"));
            out.push_str(&format!("sopt_{name}_us_count {}\n", h.count));
            out.push_str(&format!("sopt_{name}_us_sum {}\n", h.sum));
            for (q, v) in [("0.5", h.p50()), ("0.9", h.p90()), ("0.99", h.p99())] {
                out.push_str(&format!("sopt_{name}_us{{quantile=\"{q}\"}} {v}\n"));
            }
        }
        for &(name, v) in &self.counters {
            out.push_str(&format!("# TYPE sopt_{name}_total counter\n"));
            out.push_str(&format!("sopt_{name}_total {v}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn buckets_cover_u64_without_gaps() {
        // Floors invert the mapping, every bucket's floor is below the
        // values it holds, and the final bucket is the last one.
        for k in 0..64u32 {
            for v in [1u64 << k, (1u64 << k) + 1, (1u64 << k) | (1u64 << k) >> 1] {
                let idx = bucket_index(v);
                assert!(idx < BUCKETS, "v={v} idx={idx}");
                assert!(bucket_floor(idx) <= v, "floor exceeds value for {v}");
            }
        }
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
        for idx in 0..BUCKETS {
            assert_eq!(
                bucket_index(bucket_floor(idx)),
                idx,
                "floor of {idx} maps back"
            );
        }
    }

    #[test]
    fn small_values_are_exact() {
        let h = Histogram::new();
        for v in 0..8u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 8);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 7);
        assert_eq!(s.sum, 28);
        assert_eq!(s.buckets.len(), 8);
        assert_eq!(s.quantile(0.0), 0);
        assert_eq!(s.quantile(1.0), 7);
    }

    #[test]
    fn empty_snapshot_is_all_zero() {
        let s = Histogram::new().snapshot();
        assert_eq!((s.count, s.sum, s.min, s.max), (0, 0, 0, 0));
        assert_eq!(s.p50(), 0);
        assert!(s.buckets.is_empty());
    }

    #[test]
    fn quantiles_land_within_one_bucket_of_truth() {
        let h = Histogram::new();
        let mut values: Vec<u64> = (0..1000).map(|i| i * i % 7919 + 1).collect();
        for &v in &values {
            h.record(v);
        }
        values.sort_unstable();
        let s = h.snapshot();
        for q in [0.5, 0.9, 0.99] {
            let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
            let truth = values[rank - 1];
            let got = s.quantile(q);
            // The reported floor is <= truth and within one sub-bucket
            // (12.5% relative) below it.
            assert!(got <= truth, "q={q}: got {got} > truth {truth}");
            assert!(
                (truth - got) as f64 <= (truth as f64) * 0.125 + 1.0,
                "q={q}: got {got}, truth {truth}"
            );
        }
    }

    #[test]
    fn disabled_recorder_is_free() {
        // A disabled handle is a niche-packed None: pointer-sized, no heap.
        assert_eq!(
            std::mem::size_of::<Recorder>(),
            std::mem::size_of::<usize>()
        );
        let r = Recorder::disabled();
        assert!(!r.is_enabled());
        // Spans from it never arm a clock and drop without recording.
        let span = r.span(Phase::ColdSolve);
        assert!(!span.is_recording());
        drop(span);
        r.record_duration(Phase::ColdSolve, 123);
        r.add(Counter::FwIterations, 42);
        assert!(r.snapshot().is_empty());
        assert!(r.phase(Phase::ColdSolve).is_none());
    }

    #[test]
    fn enabled_recorder_records_spans_and_counters() {
        let r = Recorder::enabled();
        {
            let _s = r.span(Phase::SolveLatency);
            std::hint::black_box(1 + 1);
        }
        r.record_duration(Phase::QueueWait, 250);
        r.add(Counter::ColdStarts, 1);
        r.add(Counter::FwIterations, 17);
        let snap = r.snapshot();
        assert_eq!(snap.phase("solve_latency").unwrap().count, 1);
        assert_eq!(snap.phase("queue_wait").unwrap().count, 1);
        assert_eq!(snap.phase("queue_wait").unwrap().min, 250);
        assert_eq!(snap.counter("fw_iterations"), Some(17));
        assert_eq!(snap.counter("cold_starts"), Some(1));
        assert!(!snap.is_empty());
    }

    #[test]
    fn clones_share_state() {
        let r = Recorder::enabled();
        let r2 = r.clone();
        r2.record_duration(Phase::Induced, 9);
        assert_eq!(r.snapshot().phase("induced").unwrap().count, 1);
    }

    #[test]
    fn solve_notes_accumulate_and_drain() {
        // note_solve gates on the *global* recorder; drive the TLS cell
        // directly through the pair used by the serve loop.
        let before = take_solve_notes();
        assert_eq!(before, take_solve_notes()); // draining twice is stable
        enable();
        note_solve(5, 2);
        note_solve(3, 0);
        let notes = take_solve_notes();
        assert!(notes.fw_iters >= 8);
        assert!(notes.polish_rounds >= 2);
        assert_eq!(take_solve_notes(), SolveNotes::default());
    }

    #[test]
    fn snapshot_serializes_to_json_and_text() {
        let r = Recorder::enabled();
        r.record_duration(Phase::SolveLatency, 100);
        r.record_duration(Phase::SolveLatency, 200);
        r.add(Counter::WarmStarts, 3);
        let snap = r.snapshot();
        let json = snap.to_json();
        assert!(json.contains("\"solve_latency\": {\"count\": 2"));
        assert!(json.contains("\"p50_us\": "));
        assert!(json.contains("\"warm_starts\": 3"));
        assert!(json.starts_with('{') && json.ends_with('}'));
        let text = snap.to_text();
        assert!(text.contains("sopt_solve_latency_us_count 2"));
        assert!(text.contains("sopt_solve_latency_us{quantile=\"0.5\"}"));
        assert!(text.contains("sopt_warm_starts_total 3"));
    }

    #[test]
    fn every_counter_is_exposed_under_its_own_name() {
        let r = Recorder::enabled();
        for (i, &c) in Counter::ALL.iter().enumerate() {
            r.add(c, i as u64 + 1);
        }
        let snap = r.snapshot();
        let (json, text) = (snap.to_json(), snap.to_text());
        for (i, &c) in Counter::ALL.iter().enumerate() {
            let (name, n) = (c.name(), i as u64 + 1);
            assert_eq!(counter_idx(c), i);
            assert_eq!(snap.counter(name), Some(n), "{name}");
            assert!(json.contains(&format!("\"{name}\": {n}")), "{name}: {json}");
            assert!(
                text.contains(&format!("sopt_{name}_total {n}")),
                "{name}: {text}"
            );
        }
        let mut names: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Counter::ALL.len());
        assert!(names.contains(&"seed_checks_failed"));
        assert!(names.contains(&"stall_handovers"));
        assert!(names.contains(&"unconverged_solves"));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Exact merge: sharding a stream across histograms and merging
        /// yields *identical* quantiles to one histogram fed everything —
        /// stronger than the "within one bucket" bound the bucketing
        /// itself guarantees against the raw stream.
        #[test]
        fn merged_shard_quantiles_match_whole_stream(
            values in proptest::collection::vec(0u64..2_000_000, 1..300),
            split in 0usize..300,
        ) {
            let whole = Histogram::new();
            let a = Histogram::new();
            let b = Histogram::new();
            let cut = split % values.len().max(1);
            for (i, &v) in values.iter().enumerate() {
                whole.record(v);
                if i < cut { a.record(v) } else { b.record(v) }
            }
            let merged = Histogram::new();
            merged.merge_from(&a);
            merged.merge_from(&b);
            let ms = merged.snapshot();
            let ws = whole.snapshot();
            prop_assert_eq!(ms.count, ws.count);
            prop_assert_eq!(ms.sum, ws.sum);
            prop_assert_eq!(&ms.buckets, &ws.buckets);
            for q in [0.5, 0.9, 0.99] {
                prop_assert_eq!(ms.quantile(q), ws.quantile(q));
            }
        }
    }
}
