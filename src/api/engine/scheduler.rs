//! The engine's one worker pool.
//!
//! Every executor in stackopt is the same pool (`run_pool`): work waits in
//! one closable `PriorityQueue`, and each of `threads` workers runs one
//! loop — pop the highest-priority item left, work it, send the result to
//! the calling thread — until the queue is closed and drained or a send
//! fails. Fleet runs ([`Engine`](super::Engine)),
//! [`Server::run_requests`](super::super::Server::run_requests) and
//! [`Server::serve`](super::super::Server::serve) differ only in what they
//! push and where the results go.
//!
//! ## Fleets: longest first
//!
//! Real fleets are *skewed* — a handful of 500-edge networks among
//! thousands of 2-link Pigou instances — so equal-count chunks leave
//! whichever thread drew the big scenarios running long after the others
//! went idle. A fleet therefore pushes every scenario at priority
//! [`scenario_cost`], an a-priori estimate from its size, class and task:
//! the parallel-link equalizer is near-linear in links, Frank–Wolfe
//! networks pay per edge per iteration, curve tasks multiply by their α
//! samples. Each idle worker pops the costliest job left. That is LPT
//! (longest-processing-time-first) list scheduling on actual finish times:
//! the long jobs start first, and the short ones fill in around them.
//!
//! Results are pushed to the caller's sink **on the calling thread** as
//! they complete, so sinks need neither `Send` nor locking, and the
//! bounded channel means a million-scenario run holds at most the
//! in-flight window of reports in memory. Barring cancellation, the sink is invoked
//! exactly once per input index; a scenario whose solve panics is
//! delivered as [`SoptError::WorkerPanic`], and its worker goes on to the
//! next job.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;

use super::super::error::SoptError;
use super::super::report::Report;
use super::super::scenario::{Scenario, ScenarioClass};
use super::super::solve::{run_with, run_with_memo, SolveOptions, Task};
use super::cache::{SolveCache, SubMemo};
use super::fingerprint::Fingerprint;
use super::EngineStats;

/// Per-worker bound of the worker→sink channel: the largest number of
/// completed-but-undelivered reports the engine holds for a slow sink.
const SINK_WINDOW: usize = 64;

/// Estimated solve cost of one scenario under the engine's cost model:
/// `size × class weight × task weight`, in arbitrary units. Only relative
/// magnitudes matter — a fleet run pops its costliest scenarios first.
pub fn scenario_cost(scenario: &Scenario, options: &SolveOptions) -> u64 {
    let m = scenario.size().max(1) as u64;
    // Class weight: the parallel-link equalizer bisects in ~linear work per
    // solve; network classes run Frank–Wolfe, whose per-iteration shortest
    // paths and line searches scale superlinearly with edges.
    let class = match scenario.class() {
        ScenarioClass::Parallel => m,
        ScenarioClass::Network => m.saturating_mul(m),
        ScenarioClass::Multi => 2u64.saturating_mul(m).saturating_mul(m),
    };
    // Task weight: how many equilibrium-grade solves the task performs.
    let task = match options.task {
        Task::Beta => 4,
        Task::Curve => 2 * (options.steps as u64 + 1),
        Task::Equilib => 2,
        Task::Tolls => 3,
        Task::Llf => 2,
        // Candidate/grid evaluations plus the revenue-vs-β sweep, each an
        // equilibrium-grade induced solve.
        Task::Pricing => (options.price_steps as u64).saturating_add(options.steps as u64) + 2,
    };
    class.saturating_mul(task).max(1)
}

/// Per-run report-table traffic, counted by the scheduler itself so the
/// numbers stay exact even when several concurrent runs share one
/// [`SolveCache`] (whose own counters are cumulative across runs).
#[derive(Default)]
pub(crate) struct RunCounters {
    pub(crate) hits: AtomicU64,
    pub(crate) misses: AtomicU64,
}

/// Solves one scenario, consulting and feeding the memo cache. Shared by
/// fleet runs and the serve daemon ([`super::super::serve`]), so both
/// paths hit (and persist through) the same first- and second-level
/// caches.
pub(crate) fn cached_solve(
    scenario: Scenario,
    options: &SolveOptions,
    cache: Option<&SolveCache>,
    counters: &RunCounters,
) -> Result<Report, SoptError> {
    let fp = cache.and_then(|_| Fingerprint::of(&scenario, options));
    if let (Some(cache), Some(fp)) = (cache, &fp) {
        if let Some(found) = cache.get_report(fp, scenario.model()) {
            counters.hits.fetch_add(1, Ordering::Relaxed);
            return found;
        }
        counters.misses.fetch_add(1, Ordering::Relaxed);
        let memo = SubMemo {
            cache,
            spec: &fp.spec,
        };
        let result = run_with_memo(scenario, options, Some(&memo));
        cache.put_report(fp.clone(), result.clone());
        return result;
    }
    run_with(scenario, options)
}

/// The one worker pool. Runs `threads` workers over `queue` until it is
/// closed and drained, while `consume` takes the channel's receiving end
/// on the calling thread; returns what `consume` returns.
///
/// Every worker runs the same loop: pop the highest-priority item left,
/// `work` it, `send` the result over its own clone of the channel's
/// sender, and stop once a send fails — the consumer is gone, or the
/// caller's `send` refused (a cancelled fleet run). The caller picks the
/// channel: bounded for fleets, so a stalled sink blocks the workers
/// instead of buffering reports; unbounded for serve, so its reader never
/// blocks while answering a bad line.
pub(crate) fn run_pool<T, R, S, C>(
    threads: usize,
    queue: &PriorityQueue<T>,
    (tx, rx): (S, mpsc::Receiver<R>),
    work: impl Fn(T) -> R + Sync,
    send: impl Fn(&S, R) -> bool + Sync,
    consume: impl FnOnce(mpsc::Receiver<R>) -> C,
) -> C
where
    T: Send,
    S: Clone + Send,
{
    crossbeam::thread::scope(|s| {
        for _ in 0..threads {
            let tx = tx.clone();
            let (work, send) = (&work, &send);
            s.spawn(move |_| {
                while let Some(item) = queue.pop() {
                    if !send(&tx, work(item)) {
                        break;
                    }
                }
            });
        }
        drop(tx); // the workers hold the remaining senders
        consume(rx)
    })
    .expect("pool workers contain panics per job")
}

/// Runs a fleet through the pool, delivering every result to `sink` as
/// `(input index, result)` in completion order on the calling thread.
///
/// `cancel` (when provided) is tested before each result is sent: once
/// set, every worker stops after its in-flight job and the run winds down
/// without delivering the remainder. Absent cancellation, every index in
/// `0..scenarios.len()` is delivered exactly once.
pub(crate) fn execute<F>(
    scenarios: Vec<Scenario>,
    options: &SolveOptions,
    threads: usize,
    cache: Option<&SolveCache>,
    cancel: Option<&AtomicBool>,
    mut sink: F,
) -> EngineStats
where
    F: FnMut(usize, Result<Report, SoptError>),
{
    let n = scenarios.len();
    let mut stats = EngineStats {
        scenarios: n,
        ..EngineStats::default()
    };
    if n == 0 {
        return stats;
    }
    let before = cache.map(|c| c.counters()).unwrap_or_default();
    let threads = threads.clamp(1, n);
    let counters = RunCounters::default();
    let queue = PriorityQueue::new();
    for (index, scenario) in scenarios.into_iter().enumerate() {
        let cost = scenario_cost(&scenario, options);
        queue.push(i64::try_from(cost).unwrap_or(i64::MAX), (index, scenario));
    }
    queue.close();
    stats.delivered = run_pool(
        threads,
        &queue,
        mpsc::sync_channel(threads * SINK_WINDOW),
        |(index, scenario)| {
            let result = catch_unwind(AssertUnwindSafe(|| {
                cached_solve(scenario, options, cache, &counters)
            }))
            .unwrap_or(Err(SoptError::WorkerPanic { index }));
            (index, result)
        },
        |tx, done| !cancel.is_some_and(|c| c.load(Ordering::Relaxed)) && tx.send(done).is_ok(),
        |rx| {
            let mut delivered = 0;
            for (index, result) in rx {
                delivered += 1;
                sink(index, result);
            }
            delivered
        },
    );

    // Report-table traffic is counted per run (exact under concurrent
    // sharing); the equilibrium numbers are before/after deltas of the
    // cache's cumulative counters, so they include any traffic a
    // concurrently-running engine put on the same shared cache.
    stats.cache_hits = counters.hits.load(Ordering::Relaxed);
    stats.cache_misses = counters.misses.load(Ordering::Relaxed);
    if let Some(c) = cache {
        let after = c.counters();
        stats.eq_hits = after.eq_hits - before.eq_hits;
        stats.eq_misses = after.eq_misses - before.eq_misses;
        stats.net_profile_hits = after.net_hits - before.net_hits;
        stats.net_profile_misses = after.net_misses - before.net_misses;
        stats.disk_hits = after.disk_hits - before.disk_hits;
        stats.rejected_records = after.rejected_records - before.rejected_records;
        stats.profile_evictions = after.profile_evictions - before.profile_evictions;
        stats.report_evictions = after.report_evictions - before.report_evictions;
    }
    stats
}

/// A closable, blocking max-priority queue — the pool's one work source.
/// Higher [`priority`](PriorityQueue::push) pops first; ties pop in
/// arrival order (FIFO), so equal-priority work is never starved or
/// reordered.
pub(crate) struct PriorityQueue<T> {
    inner: std::sync::Mutex<QueueInner<T>>,
    cv: std::sync::Condvar,
}

struct QueueInner<T> {
    heap: std::collections::BinaryHeap<QueueEntry<T>>,
    seq: u64,
    closed: bool,
}

struct QueueEntry<T> {
    priority: i64,
    seq: u64,
    item: T,
}

impl<T> PartialEq for QueueEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.priority == other.priority && self.seq == other.seq
    }
}
impl<T> Eq for QueueEntry<T> {}
impl<T> PartialOrd for QueueEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for QueueEntry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Max-heap: highest priority first, then lowest sequence (FIFO).
        self.priority
            .cmp(&other.priority)
            .then(other.seq.cmp(&self.seq))
    }
}

impl<T> PriorityQueue<T> {
    pub(crate) fn new() -> Self {
        PriorityQueue {
            inner: std::sync::Mutex::new(QueueInner {
                heap: std::collections::BinaryHeap::new(),
                seq: 0,
                closed: false,
            }),
            cv: std::sync::Condvar::new(),
        }
    }

    /// Enqueues `item`. Pushing to a closed queue is a no-op (the item is
    /// dropped) — callers close only after the last push.
    pub(crate) fn push(&self, priority: i64, item: T) {
        let mut q = self.inner.lock().expect("queue lock poisoned");
        if q.closed {
            return;
        }
        let seq = q.seq;
        q.seq += 1;
        q.heap.push(QueueEntry {
            priority,
            seq,
            item,
        });
        drop(q);
        self.cv.notify_one();
    }

    /// Blocks until an item is available or the queue is closed *and*
    /// drained; `None` means no item will ever arrive again.
    pub(crate) fn pop(&self) -> Option<T> {
        let mut q = self.inner.lock().expect("queue lock poisoned");
        loop {
            if let Some(entry) = q.heap.pop() {
                return Some(entry.item);
            }
            if q.closed {
                return None;
            }
            q = self.cv.wait(q).expect("queue lock poisoned");
        }
    }

    /// Marks the queue closed: pending items still pop; blocked and future
    /// `pop`s return `None` once the heap drains.
    pub(crate) fn close(&self) {
        self.inner.lock().expect("queue lock poisoned").closed = true;
        self.cv.notify_all();
    }

    /// Items currently queued (diagnostic; racy by nature).
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.inner.lock().expect("queue lock poisoned").heap.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_model_orders_classes_and_sizes() {
        let opts = SolveOptions::default();
        let tiny = Scenario::parse("x, 1.0").unwrap();
        let big = Scenario::parse(&vec!["x"; 64].join(", ")).unwrap();
        let net = Scenario::parse("nodes=2; 0->1: x; 0->1: 1.0; demand 0->1: 1.0").unwrap();
        assert!(scenario_cost(&big, &opts) > scenario_cost(&tiny, &opts));
        assert!(scenario_cost(&net, &opts) > scenario_cost(&tiny, &opts));
        let curve = SolveOptions {
            task: Task::Curve,
            steps: 100,
            ..SolveOptions::default()
        };
        assert!(scenario_cost(&tiny, &curve) > scenario_cost(&tiny, &opts));
    }

    #[test]
    fn priority_queue_orders_by_priority_then_fifo() {
        let q: PriorityQueue<&'static str> = PriorityQueue::new();
        q.push(0, "first-default");
        q.push(0, "second-default");
        q.push(5, "urgent");
        q.push(-3, "background");
        q.close();
        assert_eq!(q.len(), 4);
        assert_eq!(q.pop(), Some("urgent"));
        assert_eq!(q.pop(), Some("first-default"));
        assert_eq!(q.pop(), Some("second-default"));
        assert_eq!(q.pop(), Some("background"));
        assert_eq!(q.pop(), None);
        assert_eq!(q.pop(), None); // closed stays closed
        q.push(9, "late"); // push-after-close is dropped
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn priority_queue_unblocks_waiting_workers() {
        let q = std::sync::Arc::new(PriorityQueue::<u32>::new());
        let q2 = std::sync::Arc::clone(&q);
        let consumer = std::thread::spawn(move || {
            let mut got = Vec::new();
            while let Some(v) = q2.pop() {
                got.push(v);
            }
            got
        });
        q.push(1, 10);
        q.push(2, 20);
        q.close();
        let got = consumer.join().unwrap();
        assert_eq!(got.iter().sum::<u32>(), 30);
    }
}
