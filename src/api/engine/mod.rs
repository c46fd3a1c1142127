//! [`Engine`] — the streaming, memoizing execution engine for scenario
//! fleets.
//!
//! A fleet run keeps one contract — one result per input, panics contained
//! per scenario — and streams results out as they complete:
//!
//! * **[`scheduler`]** — the one worker pool: every scenario waits in one
//!   priority queue at its estimated cost (edge count × solver class ×
//!   task), and each idle worker pops the costliest one left. One 500-edge
//!   network among ten thousand Pigou instances starts first instead of
//!   pinning a thread at the end. The serve daemon runs on the same pool.
//! * **[`cache`]** — a sharded memo table keyed by the canonical spec
//!   round-trip ([`fingerprint`]): identical scenarios solve once, warm
//!   re-runs replay bit-identical reports, and the Nash/optimum profiles
//!   shared by the `equilib`/`curve`/`llf`/`tolls` tasks hit a
//!   class-polymorphic profile sub-table (generic over
//!   [`ScenarioModel`](super::model::ScenarioModel)) instead of
//!   re-solving.
//! * **[`stream`]** — results leave the engine as they complete, through a
//!   callback sink ([`Engine::run_streamed`]), an input-order reorder
//!   adapter ([`Ordered`] / [`Engine::run_ordered`]), or a pull-based
//!   iterator over a bounded channel ([`Engine::stream`]). A
//!   million-scenario batch never holds more than the in-flight window.
//!
//! ```
//! use stackopt::api::{Engine, Scenario, Task};
//!
//! let fleet = vec![
//!     Scenario::parse("x, 1.0")?,
//!     Scenario::parse("x, 2x, 0.9")?,
//!     Scenario::parse("x, 1.0")?, // duplicate: served from the memo table
//! ];
//! let (reports, stats) = Engine::new(fleet).task(Task::Beta).threads(1).run_stats();
//! assert_eq!(reports.len(), 3);
//! assert_eq!(stats.cache_hits, 1);
//! assert_eq!(
//!     reports[0].as_ref().unwrap().to_json(),
//!     reports[2].as_ref().unwrap().to_json()
//! );
//! # Ok::<(), stackopt::api::SoptError>(())
//! ```

pub mod cache;
pub mod fingerprint;
pub mod scheduler;
pub mod stream;

use std::sync::Arc;

use super::error::SoptError;
use super::report::Report;
use super::scenario::Scenario;
use super::solve::{impl_solve_knobs, SolveOptions, Task};

pub use cache::{CacheCounters, SolveCache, DEFAULT_PROFILE_CAPACITY, DEFAULT_REPORT_CAPACITY};
pub use fingerprint::Fingerprint;
pub use scheduler::scenario_cost;
pub use stream::{EngineStream, Ordered, StreamItem};

/// What one engine run did: delivery counts and cache traffic.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Scenarios in the fleet.
    pub scenarios: usize,
    /// Results delivered to the sink (equals `scenarios` barring
    /// cancellation).
    pub delivered: usize,
    /// Whole solves served from the report memo table.
    pub cache_hits: u64,
    /// Whole solves that missed the report table (and were then computed
    /// and inserted).
    pub cache_misses: u64,
    /// Parallel-link equilibrium sub-solves served from the memo table.
    pub eq_hits: u64,
    /// Parallel-link equilibrium sub-solves computed fresh.
    pub eq_misses: u64,
    /// Network/multicommodity Nash+optimum profiles served from the memo
    /// table.
    pub net_profile_hits: u64,
    /// Network/multicommodity profiles computed fresh (cold Frank–Wolfe).
    pub net_profile_misses: u64,
    /// Hits served from entries that were replayed out of the disk log
    /// (reports and profiles combined) — work that survived a restart.
    /// Always 0 on a cache without a persistence path.
    pub disk_hits: u64,
    /// Profile-table entries evicted by the capacity bound.
    pub profile_evictions: u64,
    /// Report-table entries evicted by the capacity bound.
    pub report_evictions: u64,
    /// Serve requests shed for an unmeetable deadline (each answered with a
    /// typed `dropped` response). Always 0 on the fleet entry points.
    pub dropped: u64,
    /// Serve solves withdrawn by a `cancel` request before a worker
    /// reached them. Always 0 on the fleet entry points.
    pub cancelled: u64,
    /// Milliseconds since the serve daemon was constructed. Always 0 on
    /// the fleet entry points (a fleet run reports when it is finished).
    pub uptime_ms: u64,
    /// Requests sitting in the serve queue when this snapshot was taken.
    /// Always 0 on the fleet entry points.
    pub queue_depth: u64,
}

impl EngineStats {
    /// Report-table hit rate in `[0, 1]` (`0` when the cache saw no
    /// traffic, e.g. a cache-off run).
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            return 0.0;
        }
        self.cache_hits as f64 / total as f64
    }
}

/// How an engine run obtains its memo table.
#[derive(Clone, Debug, Default)]
enum CacheMode {
    /// A fresh private cache per run (deduplicates within the fleet).
    #[default]
    PerRun,
    /// A caller-owned cache, shared and kept warm across runs.
    Shared(Arc<SolveCache>),
    /// No memoization at all (benchmark baselines, memory-tight runs).
    Off,
}

/// A configured fleet run: scenarios, shared solve knobs and engine knobs
/// (thread count, cache control via [`Engine::cache`] and
/// [`Engine::no_cache`]), with buffered and streaming entry points.
#[derive(Clone, Debug)]
pub struct Engine {
    scenarios: Vec<Scenario>,
    options: SolveOptions,
    threads: Option<usize>,
    cache_mode: CacheMode,
}

impl Engine {
    /// An engine over the given fleet with default knobs and a fresh
    /// per-run cache.
    pub fn new(scenarios: Vec<Scenario>) -> Self {
        Engine {
            scenarios,
            options: SolveOptions::default(),
            threads: None,
            cache_mode: CacheMode::PerRun,
        }
    }

    /// Worker thread count (default: available parallelism, capped at the
    /// fleet size).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    /// Same as [`Engine::threads`] but tolerating an unset value — the
    /// bridge for builders that hold `Option<usize>`.
    pub(crate) fn threads_opt(mut self, threads: Option<usize>) -> Self {
        self.threads = threads.map(|t| t.max(1)).or(self.threads);
        self
    }

    /// Memoize into (and out of) a caller-owned cache, keeping it warm
    /// across runs. [`EngineStats`] reports exact per-run report-table
    /// traffic; the equilibrium-table numbers are deltas of the cache's
    /// cumulative counters, so runs executing *concurrently* on the same
    /// cache see each other's equilibrium traffic in their deltas.
    pub fn cache(mut self, cache: Arc<SolveCache>) -> Self {
        self.cache_mode = CacheMode::Shared(cache);
        self
    }

    /// Disable memoization entirely.
    pub fn no_cache(mut self) -> Self {
        self.cache_mode = CacheMode::Off;
        self
    }

    fn resolved_threads(&self) -> usize {
        self.threads.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        })
    }

    fn with_cache<R>(mode: &CacheMode, f: impl FnOnce(Option<&SolveCache>) -> R) -> R {
        match mode {
            CacheMode::PerRun => f(Some(&SolveCache::new())),
            CacheMode::Shared(cache) => f(Some(cache)),
            CacheMode::Off => f(None),
        }
    }

    /// Solves the fleet, returning exactly one result per input, in input
    /// order, whatever the thread interleaving.
    pub fn run(self) -> Vec<Result<Report, SoptError>> {
        self.run_stats().0
    }

    /// [`Engine::run`] plus the run's [`EngineStats`].
    pub fn run_stats(self) -> (Vec<Result<Report, SoptError>>, EngineStats) {
        let threads = self.resolved_threads();
        let Engine {
            scenarios,
            options,
            cache_mode,
            ..
        } = self;
        let n = scenarios.len();
        let mut slots: Vec<Option<Result<Report, SoptError>>> = (0..n).map(|_| None).collect();
        let stats = Self::with_cache(&cache_mode, |cache| {
            scheduler::execute(
                scenarios,
                &options,
                threads,
                cache,
                None,
                |index, result| slots[index] = Some(result),
            )
        });
        let results = slots
            .into_iter()
            .map(|slot| slot.expect("an uncancelled run delivers every index"))
            .collect();
        (results, stats)
    }

    /// Solves the fleet, delivering each `(input index, result)` to `sink`
    /// **as it completes** (completion order, calling thread). Nothing is
    /// buffered; every index is delivered exactly once.
    pub fn run_streamed<F>(self, sink: F) -> EngineStats
    where
        F: FnMut(usize, Result<Report, SoptError>),
    {
        let threads = self.resolved_threads();
        let Engine {
            scenarios,
            options,
            cache_mode,
            ..
        } = self;
        Self::with_cache(&cache_mode, |cache| {
            scheduler::execute(scenarios, &options, threads, cache, None, sink)
        })
    }

    /// Like [`Engine::run_streamed`], but `sink` observes results in input
    /// order (an [`Ordered`] adapter buffers only the out-of-order window).
    pub fn run_ordered<F>(self, sink: F) -> EngineStats
    where
        F: FnMut(usize, Result<Report, SoptError>),
    {
        let mut ordered = Ordered::new(sink);
        self.run_streamed(move |index, result| ordered.deliver(index, result))
    }

    /// Runs the fleet on a background thread and returns a pull-based,
    /// input-ordered iterator over the results. Backpressure is a bounded
    /// channel; dropping the iterator cancels the run. Call
    /// [`EngineStream::stats`] to drain and retrieve the run statistics.
    pub fn stream(self) -> EngineStream {
        let total = self.scenarios.len();
        EngineStream::spawn(total, move |tx, cancel| {
            let threads = self.resolved_threads();
            let Engine {
                scenarios,
                options,
                cache_mode,
                ..
            } = self;
            Self::with_cache(&cache_mode, |cache| {
                scheduler::execute(
                    scenarios,
                    &options,
                    threads,
                    cache,
                    Some(cancel.as_ref()),
                    move |index, result| {
                        let _ = tx.send((index, result));
                    },
                )
            })
        })
    }
}

impl_solve_knobs!(Engine);

/// One builder for every way the engine runs — fleet batches, single
/// solves, and the serve daemon. It gathers the knobs that would otherwise
/// be re-declared per entry point: worker threads, the two cache
/// capacities, the optional disk-persistence path, the serve shed policy,
/// and the full solve knob set (task/tolerance/α/steps/max_iters/strategy
/// via the same `impl_solve_knobs!` surface as [`Engine`] and
/// [`Solve`](super::Solve)).
///
/// ```no_run
/// use stackopt::api::{EngineBuilder, Scenario, Task};
///
/// let builder = EngineBuilder::new()
///     .threads(4)
///     .report_capacity(10_000)
///     .persist("/var/cache/sopt.cache")
///     .task(Task::Beta);
/// let cache = builder.build_cache()?; // replayed from disk, write-through
/// let fleet = vec![Scenario::parse("x, 1.0")?];
/// let reports = builder.engine(fleet)?.run();
/// # assert_eq!(reports.len(), 1);
/// # Ok::<(), stackopt::api::SoptError>(())
/// ```
#[derive(Clone, Debug)]
pub struct EngineBuilder {
    pub(crate) threads: Option<usize>,
    pub(crate) report_cap: usize,
    pub(crate) profile_cap: usize,
    pub(crate) persist: Option<std::path::PathBuf>,
    pub(crate) shed: super::serve::ShedPolicy,
    pub(crate) options: SolveOptions,
    pub(crate) metrics: bool,
}

impl Default for EngineBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl EngineBuilder {
    /// Default knobs: auto thread count, default cache capacities, no
    /// persistence, expired deadlines shed.
    pub fn new() -> Self {
        EngineBuilder {
            threads: None,
            report_cap: DEFAULT_REPORT_CAPACITY,
            profile_cap: DEFAULT_PROFILE_CAPACITY,
            persist: None,
            shed: super::serve::ShedPolicy::DropExpired,
            options: SolveOptions::default(),
            metrics: false,
        }
    }

    /// Worker thread count (default: available parallelism).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    /// Report-table capacity in entries (0 disables that table).
    pub fn report_capacity(mut self, entries: usize) -> Self {
        self.report_cap = entries;
        self
    }

    /// Profile-table capacity in entries (0 disables that table).
    pub fn profile_capacity(mut self, entries: usize) -> Self {
        self.profile_cap = entries;
        self
    }

    /// Back the cache with an append-only log at `path`: replayed on
    /// [`EngineBuilder::build_cache`], written through afterwards, so a
    /// restarted process replays earlier solves bit-identically.
    pub fn persist(mut self, path: impl Into<std::path::PathBuf>) -> Self {
        self.persist = Some(path.into());
        self
    }

    /// What the serve scheduler does with requests whose deadline already
    /// passed (default: [`ShedPolicy::DropExpired`](super::serve::ShedPolicy)).
    pub fn shed(mut self, policy: super::serve::ShedPolicy) -> Self {
        self.shed = policy;
        self
    }

    /// Turn on the process-global metrics recorder for servers built from
    /// these knobs (see [`crate::obs`]). `ok` responses then carry
    /// `elapsed_us`/`fw_iters`, and the `metrics` request kind returns
    /// populated histograms. Enabling is process-wide and irreversible;
    /// the default (off) keeps every solve path free of clock reads.
    pub fn metrics(mut self, on: bool) -> Self {
        self.metrics = on;
        self
    }

    /// Builds the cache these knobs describe. Without a persistence path
    /// this is infallible in practice; with one, the log is opened (created
    /// if missing), replayed entry by entry, and attached for write-through
    /// — an unreadable file or a foreign header is a typed
    /// [`SoptError::Io`].
    pub fn build_cache(&self) -> Result<Arc<SolveCache>, SoptError> {
        let cache = Arc::new(SolveCache::bounded(self.report_cap, self.profile_cap));
        if let Some(path) = &self.persist {
            super::serve::persist::attach(path, &cache)?;
        }
        Ok(cache)
    }

    /// An [`Engine`] over `scenarios` carrying this builder's threads,
    /// solve knobs, and cache (building the cache first — the only
    /// fallible part, and only when persistence is on).
    pub fn engine(&self, scenarios: Vec<Scenario>) -> Result<Engine, SoptError> {
        Ok(Engine::new(scenarios)
            .options(self.options.clone())
            .threads_opt(self.threads)
            .cache(self.build_cache()?))
    }
}

impl_solve_knobs!(EngineBuilder);

#[cfg(test)]
mod tests {
    use super::super::solve::Task;
    use super::*;

    fn fleet() -> Vec<Scenario> {
        [
            "x, 1.0",
            "x, 0.5x",
            "nodes=2; 0->1: x; 0->1: 1.0; demand 0->1: 1.0",
            "x, 1.0 @ 2",
            "x, 1.0", // duplicate of 0
        ]
        .iter()
        .map(|s| Scenario::parse(s).unwrap())
        .collect()
    }

    #[test]
    fn run_matches_the_batch_contract() {
        let (reports, stats) = Engine::new(fleet()).task(Task::Beta).threads(3).run_stats();
        assert_eq!(reports.len(), 5);
        assert_eq!(stats.delivered, 5);
        // Concurrent workers may race the duplicate pair past the memo
        // lookup, so the hit count is 0 or 1 here; single-thread dedup is
        // asserted deterministically below.
        assert!(stats.cache_hits <= 1);
        let betas: Vec<f64> = reports
            .iter()
            .map(|r| r.as_ref().unwrap().data.as_beta().unwrap().beta)
            .collect();
        assert!((betas[0] - 0.5).abs() < 1e-9, "{betas:?}");
        // No constant link: β = 0.
        assert!(betas[1].abs() < 1e-9, "{betas:?}");
        // Pigou as a network, through MOP.
        assert!((betas[2] - 0.5).abs() < 1e-4, "{betas:?}");
        // Rate-2 Pigou has a different β than rate-1 (the Leader freezes
        // the constant link at o₂ = 3/2 of r = 2) — slot order is observable.
        assert!((betas[3] - 0.75).abs() < 1e-9, "{betas:?}");
        assert_eq!(betas[0], betas[4]);
    }

    #[test]
    fn single_thread_dedups_in_fleet_duplicates() {
        let (_, stats) = Engine::new(fleet()).threads(1).run_stats();
        assert_eq!(stats.cache_hits, 1); // the duplicate Pigou
        assert_eq!(stats.cache_misses, 4);
    }

    #[test]
    fn shared_cache_stays_warm_across_runs() {
        let cache = Arc::new(SolveCache::new());
        let (cold, s1) = Engine::new(fleet())
            .cache(Arc::clone(&cache))
            .threads(2)
            .run_stats();
        // 5 scenarios, 1 in-fleet duplicate (which threads may race past
        // the lookup — then it counts as a 5th miss instead of a hit).
        assert_eq!(s1.cache_hits + s1.cache_misses, 5);
        assert!(s1.cache_misses >= 4);
        let (warm, s2) = Engine::new(fleet())
            .cache(Arc::clone(&cache))
            .threads(2)
            .run_stats();
        assert_eq!(s2.cache_hits, 5);
        assert_eq!(s2.cache_misses, 0);
        assert!((s2.hit_rate() - 1.0).abs() < 1e-12);
        for (a, b) in cold.iter().zip(&warm) {
            assert_eq!(a.as_ref().unwrap().to_json(), b.as_ref().unwrap().to_json());
        }
    }

    #[test]
    fn no_cache_disables_memoization() {
        let (_, stats) = Engine::new(fleet()).no_cache().threads(2).run_stats();
        assert_eq!(stats.cache_hits + stats.cache_misses, 0);
    }

    #[test]
    fn hit_rate_is_zero_without_traffic() {
        // Regression: 0/0 must read as 0.0, not NaN — serialized stats
        // must always be valid JSON numbers.
        let stats = EngineStats::default();
        assert_eq!(stats.hit_rate(), 0.0);
        let (_, stats) = Engine::new(fleet()).no_cache().threads(2).run_stats();
        assert_eq!(stats.hit_rate(), 0.0);
        assert!(stats.hit_rate().is_finite());
    }

    #[test]
    fn streamed_delivery_is_exactly_once() {
        let mut seen = vec![0usize; 5];
        let stats = Engine::new(fleet())
            .threads(3)
            .run_streamed(|i, _| seen[i] += 1);
        assert_eq!(seen, vec![1; 5]);
        assert_eq!(stats.delivered, 5);
    }

    #[test]
    fn ordered_sink_observes_input_order() {
        let mut order = Vec::new();
        Engine::new(fleet())
            .threads(3)
            .run_ordered(|i, _| order.push(i));
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn stream_iterator_is_input_ordered() {
        let items: Vec<usize> = Engine::new(fleet())
            .threads(2)
            .stream()
            .map(|(i, r)| {
                assert!(r.is_ok());
                i
            })
            .collect();
        assert_eq!(items, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn empty_fleet_is_empty() {
        let (reports, stats) = Engine::new(vec![]).run_stats();
        assert!(reports.is_empty());
        assert_eq!(stats.scenarios, 0);
    }
}
