//! [`SolveCache`] — the sharded, bounded memo table behind the engine.
//!
//! Two tables, both keyed by canonical spec identity
//! ([`Fingerprint`]-based, see the sibling module):
//!
//! * the **report table** memoizes whole solves: `(spec, task, knobs) →
//!   Result<Report, SoptError>`. A fleet containing the same scenario twice
//!   solves it once; a warm cache replays an identical fleet without
//!   touching a solver, returning bit-identical reports (entries are stored
//!   once and cloned out).
//! * the **profile table** memoizes the Nash/optimum equilibrium profiles
//!   that several tasks re-derive for one scenario, generically over the
//!   class-polymorphic [`ScenarioModel`] trait: one entry point
//!   (`SolveCache::model_profile`) serves parallel links (the knob-free
//!   equalizer), s–t networks and k-commodity networks (Frank–Wolfe
//!   [`FwResult`]s, keyed additionally by the full solver knob set that
//!   shapes them — see `FwKnobs`). The key is a thin wrapper —
//!   `(class, spec, kind, knobs)` — and the stored value is the model
//!   layer's [`ModelProfile`]; the cache itself knows nothing about how a
//!   class solves. The `equilib` task's two solves, `curve`'s anchors,
//!   `beta`'s MOP optimum and `llf`/`tolls`' optimum all share entries, so
//!   an α-sweep over one scenario solves each equilibrium once.
//!
//! The optimum entry is solved **cold**; the Nash entry of a Frank–Wolfe
//! class is polished from that cold optimum (its per-commodity flows seed
//! the Wardrop solve, which skips the Frank–Wolfe phase). A task that
//! already holds the optimum passes it in (`SolveCache::model_nash_from`);
//! a plain Nash miss solves the cold optimum first. Either way an entry's
//! value depends only on its key — never on which task or fleet populated
//! it first. That is what keeps warm re-runs bit-identical.
//!
//! Both tables are sharded 16 ways by the key's FNV digest so concurrent
//! workers rarely contend on one lock, and **bounded**: each table has a
//! configurable entry capacity ([`SolveCache::bounded`]), split
//! exactly across shards, enforced by second-chance (clock) eviction — a
//! FIFO queue where an entry hit since its last pass gets one reprieve
//! before eviction. Long-lived shared caches therefore hold at most
//! `report_capacity + profile_capacity` entries; evicted entries simply
//! recompute (deterministically, to the same values) on the next miss.
//! Hit/miss/eviction counters are atomics and feed
//! [`EngineStats`](super::EngineStats). Errors are memoized like successes
//! (a saturated M/M/1 scenario is just as deterministic to re-fail), except
//! worker panics, which are positional and never cached.

use std::collections::{HashMap, VecDeque};
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;
use sopt_solver::frank_wolfe::FwOptions;

use super::super::error::SoptError;
use super::super::model::{ModelProfile, ScenarioModel};
use super::super::report::Report;
use super::super::scenario::ScenarioClass;
use super::fingerprint::{Fingerprint, Fnv64};

#[allow(unused_imports)] // FwResult appears in the module docs above.
use sopt_solver::frank_wolfe::FwResult;

pub use super::super::model::EqKind;

/// Number of lock shards per table (power of two).
const SHARDS: usize = 16;

/// Default report-table capacity (entries) of [`SolveCache::new`].
pub const DEFAULT_REPORT_CAPACITY: usize = 65_536;

/// Default profile-table capacity (entries) of [`SolveCache::new`].
pub const DEFAULT_PROFILE_CAPACITY: usize = 16_384;

/// Every [`FwOptions`] field, bit-exactly — the cached [`FwResult`] of a
/// network profile depends on all of them, so all of them key the entry.
/// [`FwKnobs::of`] destructures [`FwOptions`] exhaustively, so a field
/// added there does not compile until it is keyed here.
/// `pub(crate)` so the disk log ([`crate::api::serve::persist`]) can write
/// and replay profile keys.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) struct FwKnobs {
    pub(crate) tolerance_bits: u64,
    pub(crate) max_iters: u64,
    pub(crate) conjugate: bool,
    pub(crate) restart_period: u64,
    /// The explicit stall-window override, or `u64::MAX` for the default
    /// (`sopt_solver::frank_wolfe::DEFAULT_STALL_WINDOW`, a constant, so it
    /// needs no separate key material).
    pub(crate) stall_window: u64,
    /// The AON strategy token ([`sopt_solver::AonMode::name`]):
    /// grouped/parallel AON may break shortest-path ties differently from
    /// sequential, so the mode keys the profile.
    pub(crate) aon: &'static str,
}

impl FwKnobs {
    fn of(fw: &FwOptions) -> Self {
        let FwOptions {
            rel_gap,
            max_iters,
            conjugate,
            restart_period,
            stall_window,
            aon,
        } = *fw;
        Self {
            tolerance_bits: rel_gap.to_bits(),
            max_iters: max_iters as u64,
            conjugate,
            restart_period: restart_period as u64,
            stall_window: stall_window.map_or(u64::MAX, |w| w as u64),
            aon: aon.name(),
        }
    }
}

/// Key of the profile table — a thin wrapper over the solve's identity:
/// scenario class + canonical spec + which equilibrium + the solver knobs
/// that shape iterative profiles. Classes whose profiles are knob-free
/// (the parallel equalizer, [`ScenarioModel::fw_keyed`]` == false`) carry
/// `fw: None`; Frank–Wolfe classes fold in every [`FwOptions`] field.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub(crate) struct ProfileKey {
    pub(crate) class: ScenarioClass,
    pub(crate) spec: String,
    pub(crate) kind: EqKind,
    pub(crate) fw: Option<FwKnobs>,
}

impl ProfileKey {
    /// Shard index among `shards` (a power of two).
    fn shard(&self, shards: usize) -> usize {
        let mut h = Fnv64::default();
        h.write_u64(self.class as u64);
        h.write(self.spec.as_bytes());
        h.write_u64(self.kind as u64);
        if let Some(k) = self.fw {
            h.write_u64(1);
            h.write_u64(k.tolerance_bits);
            h.write_u64(k.max_iters);
            h.write_u64(u64::from(k.conjugate));
            h.write_u64(k.restart_period);
            h.write_u64(k.stall_window);
            h.write(k.aon.as_bytes());
        }
        (h.finish() as usize) & (shards - 1)
    }
}

/// One bounded, second-chance-evicting map shard. Keys live once in the
/// FIFO; a `get` marks the entry referenced, which buys it one reprieve
/// when the clock hand (the FIFO front) reaches it.
#[derive(Debug)]
struct BoundedShard<K, V> {
    map: HashMap<K, (V, bool)>,
    fifo: VecDeque<K>,
    cap: usize,
}

impl<K: Eq + Hash + Clone, V: Clone> BoundedShard<K, V> {
    fn new(cap: usize) -> Self {
        Self {
            map: HashMap::new(),
            fifo: VecDeque::new(),
            cap,
        }
    }

    fn get(&mut self, k: &K) -> Option<V> {
        self.map.get_mut(k).map(|(v, referenced)| {
            *referenced = true;
            v.clone()
        })
    }

    /// Inserts, evicting per second-chance until the shard fits its cap.
    /// Returns the number of entries evicted.
    fn insert(&mut self, k: K, v: V) -> u64 {
        if self.cap == 0 {
            return 0;
        }
        if let Some(entry) = self.map.get_mut(&k) {
            // Re-memoized (racing workers): refresh in place, keep position.
            entry.0 = v;
            return 0;
        }
        let mut evicted = 0;
        while self.map.len() >= self.cap {
            let Some(old) = self.fifo.pop_front() else {
                break;
            };
            match self.map.get_mut(&old) {
                Some((_, referenced)) if *referenced => {
                    *referenced = false;
                    self.fifo.push_back(old);
                }
                Some(_) => {
                    self.map.remove(&old);
                    evicted += 1;
                }
                None => {}
            }
        }
        self.fifo.push_back(k.clone());
        self.map.insert(k, (v, false));
        evicted
    }

    fn len(&self) -> usize {
        self.map.len()
    }

    fn clear(&mut self) {
        self.map.clear();
        self.fifo.clear();
    }
}

/// Number of shards a table of capacity `total` actually uses: the largest
/// power of two ≤ min(`total`, [`SHARDS`]), at least 1. Small tables
/// collapse to fewer shards so that every active shard has a nonzero cap
/// (a 16-way split of capacity 3 would leave 13 shards unable to store
/// anything).
fn table_shards(total: usize) -> usize {
    let max = total.clamp(1, SHARDS);
    1 << (usize::BITS - 1 - max.leading_zeros())
}

/// Exact per-shard slice of a total capacity over `shards` active shards:
/// shard `i` gets `total/shards` plus one of the `total % shards`
/// remainders, so the shard caps sum to exactly `total`.
fn shard_cap(total: usize, shards: usize, i: usize) -> usize {
    if i >= shards {
        return 0;
    }
    total / shards + usize::from(i < total % shards)
}

/// The disk backing of a persistent cache: the append-only log handle plus
/// the key sets that were replayed from it at open time (hits on those keys
/// are *disk* hits — work that survived a process restart).
pub(crate) struct DiskAttachment {
    /// The append-only log (new entries are written through).
    pub(crate) log: crate::api::serve::persist::DiskLog,
    /// Report keys replayed from disk at open.
    pub(crate) report_keys: std::collections::HashSet<Fingerprint>,
    /// Profile keys replayed from disk at open.
    pub(crate) profile_keys: std::collections::HashSet<ProfileKey>,
}

impl std::fmt::Debug for DiskAttachment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DiskAttachment")
            .field("report_keys", &self.report_keys.len())
            .field("profile_keys", &self.profile_keys.len())
            .finish()
    }
}

/// The engine's memo table. Cheap to share: wrap in an
/// [`Arc`](std::sync::Arc) and pass the same cache to several
/// [`Engine`](super::Engine) runs to keep it warm across fleets.
///
/// A cache opened through
/// [`EngineBuilder::persist`](super::EngineBuilder::persist) is **disk
/// backed**: entries replayed from the append-only log at open time count
/// as `disk_hits` when they are served, and fresh `Ok` entries are written
/// through to the log so the next process starts warm.
#[derive(Debug)]
pub struct SolveCache {
    reports: [Mutex<BoundedShard<Fingerprint, Result<Report, SoptError>>>; SHARDS],
    profiles: [Mutex<BoundedShard<ProfileKey, Result<ModelProfile, SoptError>>>; SHARDS],
    /// Active report shards (power of two ≤ [`SHARDS`]).
    report_shards: usize,
    /// Active profile shards (power of two ≤ [`SHARDS`]).
    profile_shards: usize,
    /// The disk log, attached once right after replay (before sharing).
    disk: std::sync::OnceLock<DiskAttachment>,
    hits: AtomicU64,
    misses: AtomicU64,
    eq_hits: AtomicU64,
    eq_misses: AtomicU64,
    net_hits: AtomicU64,
    net_misses: AtomicU64,
    disk_hits: AtomicU64,
    report_evictions: AtomicU64,
    profile_evictions: AtomicU64,
}

impl Default for SolveCache {
    fn default() -> Self {
        Self::new()
    }
}

/// A point-in-time snapshot of the cache counters, used to compute per-run
/// deltas when one cache is shared across runs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Report-table hits.
    pub hits: u64,
    /// Report-table misses.
    pub misses: u64,
    /// Parallel-link profile hits.
    pub eq_hits: u64,
    /// Parallel-link profile misses.
    pub eq_misses: u64,
    /// Network/multicommodity profile hits.
    pub net_hits: u64,
    /// Network/multicommodity profile misses.
    pub net_misses: u64,
    /// Hits served from entries replayed out of the disk log (report and
    /// profile tables combined) — work that survived a process restart.
    pub disk_hits: u64,
    /// Entries evicted from the report table.
    pub report_evictions: u64,
    /// Entries evicted from the profile table.
    pub profile_evictions: u64,
}

impl SolveCache {
    /// An empty cache with the default capacity bounds
    /// ([`DEFAULT_REPORT_CAPACITY`], [`DEFAULT_PROFILE_CAPACITY`]).
    pub fn new() -> Self {
        Self::bounded(DEFAULT_REPORT_CAPACITY, DEFAULT_PROFILE_CAPACITY)
    }

    /// An empty cache bounded to at most `report_capacity` memoized reports
    /// and `profile_capacity` memoized equilibrium profiles (each split
    /// exactly across the shards; a capacity of 0 disables that table).
    pub fn bounded(report_capacity: usize, profile_capacity: usize) -> Self {
        let report_shards = table_shards(report_capacity);
        let profile_shards = table_shards(profile_capacity);
        Self {
            reports: std::array::from_fn(|i| {
                Mutex::new(BoundedShard::new(shard_cap(
                    report_capacity,
                    report_shards,
                    i,
                )))
            }),
            profiles: std::array::from_fn(|i| {
                Mutex::new(BoundedShard::new(shard_cap(
                    profile_capacity,
                    profile_shards,
                    i,
                )))
            }),
            report_shards,
            profile_shards,
            disk: std::sync::OnceLock::new(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            eq_hits: AtomicU64::new(0),
            eq_misses: AtomicU64::new(0),
            net_hits: AtomicU64::new(0),
            net_misses: AtomicU64::new(0),
            disk_hits: AtomicU64::new(0),
            report_evictions: AtomicU64::new(0),
            profile_evictions: AtomicU64::new(0),
        }
    }

    /// Attaches the disk log after replay. Called exactly once, by
    /// [`EngineBuilder::build_cache`](super::EngineBuilder), before the
    /// cache is shared; later attempts are ignored.
    pub(crate) fn attach_disk(&self, att: DiskAttachment) {
        let _ = self.disk.set(att);
    }

    /// Replays one report entry from disk: inserted without counting a
    /// miss, without writing back to the log. Eviction counters still run —
    /// a log larger than the capacity simply keeps its newest entries.
    pub(crate) fn seed_report(&self, fp: Fingerprint, report: Report) {
        let shard = (fp.hash as usize) & (self.report_shards - 1);
        let evicted = self.reports[shard].lock().insert(fp, Ok(report));
        if evicted > 0 {
            self.report_evictions.fetch_add(evicted, Ordering::Relaxed);
        }
    }

    /// Replays one profile entry from disk (see [`Self::seed_report`]).
    pub(crate) fn seed_profile(&self, key: ProfileKey, profile: ModelProfile) {
        let shard = key.shard(self.profile_shards);
        let evicted = self.profiles[shard].lock().insert(key, Ok(profile));
        if evicted > 0 {
            self.profile_evictions.fetch_add(evicted, Ordering::Relaxed);
        }
    }

    /// Looks up a memoized report, counting the hit or miss. A hit on an
    /// entry that was replayed from disk additionally counts a disk hit.
    pub(crate) fn get_report(&self, fp: &Fingerprint) -> Option<Result<Report, SoptError>> {
        // Lookup latency (hit or miss — lock wait plus probe) lands in the
        // cache_lookup histogram; compute latency shows up as cold_solve /
        // warm_polish, so the two sides of the memoization bet are
        // separately measurable.
        let _lookup = sopt_obs::global().span(sopt_obs::Phase::CacheLookup);
        let shard = (fp.hash as usize) & (self.report_shards - 1);
        let found = self.reports[shard].lock().get(fp);
        match &found {
            Some(_) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                if let Some(att) = self.disk.get() {
                    if att.report_keys.contains(fp) {
                        self.disk_hits.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
            }
        };
        found
    }

    /// Memoizes a report. Races between workers solving the same scenario
    /// are benign: every solve is deterministic, so last-write-wins stores
    /// the same value either way. On a disk-backed cache, fresh `Ok`
    /// results are appended to the log (errors recompute deterministically,
    /// so they are not worth the bytes); entries that came *from* the log
    /// are never written back.
    pub(crate) fn put_report(&self, fp: Fingerprint, result: Result<Report, SoptError>) {
        if let (Some(att), Ok(report)) = (self.disk.get(), &result) {
            if !att.report_keys.contains(&fp) {
                att.log.append_report(&fp, report);
            }
        }
        let shard = (fp.hash as usize) & (self.report_shards - 1);
        let evicted = self.reports[shard].lock().insert(fp, result);
        if evicted > 0 {
            self.report_evictions.fetch_add(evicted, Ordering::Relaxed);
        }
    }

    /// Looks up or computes a profile under `key`, memoizing the result.
    fn profile_entry(
        &self,
        key: ProfileKey,
        hits: &AtomicU64,
        misses: &AtomicU64,
        compute: impl FnOnce() -> Result<ModelProfile, SoptError>,
    ) -> Result<ModelProfile, SoptError> {
        let shard = key.shard(self.profile_shards);
        if let Some(found) = self.profiles[shard].lock().get(&key) {
            hits.fetch_add(1, Ordering::Relaxed);
            if let Some(att) = self.disk.get() {
                if att.profile_keys.contains(&key) {
                    self.disk_hits.fetch_add(1, Ordering::Relaxed);
                }
            }
            return found;
        }
        misses.fetch_add(1, Ordering::Relaxed);
        let computed = compute();
        if let (Some(att), Ok(profile)) = (self.disk.get(), &computed) {
            if !att.profile_keys.contains(&key) {
                att.log.append_profile(&key, profile);
            }
        }
        let evicted = self.profiles[shard].lock().insert(key, computed.clone());
        if evicted > 0 {
            self.profile_evictions.fetch_add(evicted, Ordering::Relaxed);
        }
        computed
    }

    /// Looks up or computes the `kind` equilibrium of any scenario class
    /// through its [`ScenarioModel`], memoizing under the thin
    /// `(class, spec, kind, knobs)` key. Misses are solved from scratch
    /// ([`ScenarioModel::solve_profile`]: the optimum cold, the Nash
    /// profile polished from a cold optimum), so an entry's value depends
    /// only on its key — never on which task or fleet populated it first.
    pub(crate) fn model_profile(
        &self,
        spec: &str,
        kind: EqKind,
        model: &dyn ScenarioModel,
        fw: &FwOptions,
    ) -> Result<ModelProfile, SoptError> {
        self.keyed_profile(spec, kind, model, fw, || model.solve_profile(kind, fw))
    }

    /// The Nash entry of [`Self::model_profile`], computed on a miss by
    /// polishing `optimum` — this scenario's optimum entry under the same
    /// knobs, which the caller already holds — instead of solving that
    /// optimum a second time. The stored value is the one a plain miss
    /// computes, so the entry still depends only on its key.
    pub(crate) fn model_nash_from(
        &self,
        spec: &str,
        optimum: &ModelProfile,
        model: &dyn ScenarioModel,
        fw: &FwOptions,
    ) -> Result<ModelProfile, SoptError> {
        self.keyed_profile(spec, EqKind::Nash, model, fw, || {
            model.nash_from_optimum(optimum, fw)
        })
    }

    /// Builds the `(class, spec, kind, knobs)` key and looks it up,
    /// computing a miss with `compute`.
    fn keyed_profile(
        &self,
        spec: &str,
        kind: EqKind,
        model: &dyn ScenarioModel,
        fw: &FwOptions,
        compute: impl FnOnce() -> Result<ModelProfile, SoptError>,
    ) -> Result<ModelProfile, SoptError> {
        let fw_key = model.fw_keyed().then(|| FwKnobs::of(fw));
        let (hits, misses) = if fw_key.is_some() {
            (&self.net_hits, &self.net_misses)
        } else {
            (&self.eq_hits, &self.eq_misses)
        };
        let key = ProfileKey {
            class: model.class(),
            spec: spec.to_string(),
            kind,
            fw: fw_key,
        };
        self.profile_entry(key, hits, misses, compute)
    }

    /// Number of memoized reports.
    pub fn len(&self) -> usize {
        self.reports.iter().map(|s| s.lock().len()).sum()
    }

    /// Whether the report table is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of memoized equilibrium profiles (all classes).
    pub fn profile_len(&self) -> usize {
        self.profiles.iter().map(|s| s.lock().len()).sum()
    }

    /// Drops every entry (counters are kept; they are cumulative).
    pub fn clear(&self) {
        for s in &self.reports {
            s.lock().clear();
        }
        for s in &self.profiles {
            s.lock().clear();
        }
    }

    /// Snapshot of the cumulative hit/miss/eviction counters.
    pub fn counters(&self) -> CacheCounters {
        CacheCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            eq_hits: self.eq_hits.load(Ordering::Relaxed),
            eq_misses: self.eq_misses.load(Ordering::Relaxed),
            net_hits: self.net_hits.load(Ordering::Relaxed),
            net_misses: self.net_misses.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            report_evictions: self.report_evictions.load(Ordering::Relaxed),
            profile_evictions: self.profile_evictions.load(Ordering::Relaxed),
        }
    }
}

/// The sub-solve memo handle threaded into one solve: the shared cache plus
/// the solve's canonical spec (its profile-table identity).
#[derive(Clone, Copy)]
pub(crate) struct SubMemo<'a> {
    pub(crate) cache: &'a SolveCache,
    pub(crate) spec: &'a str,
}

impl SubMemo<'_> {
    /// Memoized Nash/optimum profile of any scenario class, through its
    /// [`ScenarioModel`].
    pub(crate) fn profile(
        &self,
        kind: EqKind,
        model: &dyn ScenarioModel,
        fw: &FwOptions,
    ) -> Result<ModelProfile, SoptError> {
        self.cache.model_profile(self.spec, kind, model, fw)
    }

    /// Memoized Nash profile, polished on a miss from the optimum the
    /// caller holds (see [`SolveCache::model_nash_from`]).
    pub(crate) fn nash_from(
        &self,
        optimum: &ModelProfile,
        model: &dyn ScenarioModel,
        fw: &FwOptions,
    ) -> Result<ModelProfile, SoptError> {
        self.cache.model_nash_from(self.spec, optimum, model, fw)
    }
}

#[cfg(test)]
mod tests {
    use super::super::super::scenario::Scenario;
    use super::super::super::solve::SolveOptions;
    use super::*;

    #[test]
    fn report_round_trip_counts_hits() {
        let cache = SolveCache::new();
        let sc = Scenario::parse("x, 1.0").unwrap();
        let fp = Fingerprint::of(&sc, &SolveOptions::default()).unwrap();
        assert!(cache.get_report(&fp).is_none());
        let report = sc.solve().run().unwrap();
        cache.put_report(fp.clone(), Ok(report.clone()));
        let back = cache.get_report(&fp).unwrap().unwrap();
        assert_eq!(back.to_json(), report.to_json());
        let c = cache.counters();
        assert_eq!((c.hits, c.misses), (1, 1));
        assert_eq!(cache.len(), 1);
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn eq_profile_memoizes_both_kinds() {
        let cache = SolveCache::new();
        let sc = Scenario::parse("x, 1.0").unwrap();
        let fw = FwOptions::default();
        let nash = cache
            .model_profile("x, 1", EqKind::Nash, sc.model(), &fw)
            .unwrap();
        assert!((nash.flows().iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!((nash.level().unwrap() - 1.0).abs() < 1e-9); // Pigou Nash rides the constant
        let again = cache
            .model_profile("x, 1", EqKind::Nash, sc.model(), &fw)
            .unwrap();
        assert_eq!(again.flows(), nash.flows());
        let opt = cache
            .model_profile("x, 1", EqKind::Optimum, sc.model(), &fw)
            .unwrap();
        assert!((opt.flows()[0] - 0.5).abs() < 1e-9);
        let c = cache.counters();
        assert_eq!((c.eq_hits, c.eq_misses), (1, 2));
        assert_eq!(cache.profile_len(), 2);
    }

    #[test]
    fn errors_are_memoized_too() {
        let cache = SolveCache::new();
        let sc = Scenario::parse("mm1:1.0").unwrap(); // rate 1 ≥ capacity 1
        let spec = sc.to_spec().unwrap();
        let fw = FwOptions::default();
        assert!(cache
            .model_profile(&spec, EqKind::Nash, sc.model(), &fw)
            .is_err());
        assert!(cache
            .model_profile(&spec, EqKind::Nash, sc.model(), &fw)
            .is_err());
        let c = cache.counters();
        assert_eq!((c.eq_hits, c.eq_misses), (1, 1));
    }

    #[test]
    fn network_profile_memoizes_per_knobs() {
        let cache = SolveCache::new();
        let sc = Scenario::parse("nodes=2; 0->1: x; 0->1: 1; demand 0->1: 1").unwrap();
        let spec = sc.to_spec().unwrap();
        let fw = FwOptions::default();
        let nash = cache
            .model_profile(&spec, EqKind::Nash, sc.model(), &fw)
            .unwrap();
        assert!((nash.flows()[0] - 1.0).abs() < 1e-6); // Pigou-as-network Nash
        assert!(nash.level().is_none());
        let again = cache
            .model_profile(&spec, EqKind::Nash, sc.model(), &fw)
            .unwrap();
        assert_eq!(again.flows(), nash.flows()); // bit-identical clone-out
                                                 // A different tolerance is a different entry.
        let loose = FwOptions {
            rel_gap: 1e-4,
            ..FwOptions::default()
        };
        let _ = cache
            .model_profile(&spec, EqKind::Nash, sc.model(), &loose)
            .unwrap();
        let c = cache.counters();
        assert_eq!((c.net_hits, c.net_misses), (1, 2));
        assert_eq!(cache.profile_len(), 2);
    }

    #[test]
    fn class_tags_keep_profile_keys_distinct() {
        // A 1-commodity multicommodity instance formats to the same spec
        // string as its network twin; the class tag in the key keeps their
        // profile entries separate.
        let net = Scenario::parse("nodes=2; 0->1: x; 0->1: 1; demand 0->1: 1").unwrap();
        let Scenario::Network(inst) = &net else {
            unreachable!()
        };
        let multi = Scenario::Multi(sopt_network::instance::MultiCommodityInstance::new(
            inst.graph.clone(),
            inst.latencies.clone(),
            vec![sopt_network::instance::Commodity {
                source: inst.source,
                sink: inst.sink,
                rate: inst.rate,
            }],
        ));
        let cache = SolveCache::new();
        let fw = FwOptions::default();
        let spec = net.to_spec().unwrap();
        let _ = cache
            .model_profile(&spec, EqKind::Nash, net.model(), &fw)
            .unwrap();
        let _ = cache
            .model_profile(&spec, EqKind::Nash, multi.model(), &fw)
            .unwrap();
        let c = cache.counters();
        assert_eq!((c.net_hits, c.net_misses), (0, 2));
        assert_eq!(cache.profile_len(), 2);
    }

    #[test]
    fn bounded_shard_second_chance_evicts() {
        let mut shard: BoundedShard<u32, u32> = BoundedShard::new(2);
        assert_eq!(shard.insert(1, 10), 0);
        assert_eq!(shard.insert(2, 20), 0);
        // Touch 1 so it gets a second chance; inserting 3 must evict 2.
        assert_eq!(shard.get(&1), Some(10));
        assert_eq!(shard.insert(3, 30), 1);
        assert_eq!(shard.len(), 2);
        assert_eq!(shard.get(&2), None);
        assert_eq!(shard.get(&1), Some(10));
        assert_eq!(shard.get(&3), Some(30));
    }

    #[test]
    fn zero_capacity_disables_the_table() {
        let mut shard: BoundedShard<u32, u32> = BoundedShard::new(0);
        assert_eq!(shard.insert(1, 10), 0);
        assert_eq!(shard.len(), 0);
        assert_eq!(shard.get(&1), None);
    }

    #[test]
    fn shard_caps_sum_exactly_to_total() {
        for total in [0, 1, 3, 15, 16, 17, 100, 65_536] {
            let shards = table_shards(total);
            assert!(shards.is_power_of_two() && shards <= SHARDS);
            let sum: usize = (0..SHARDS).map(|i| shard_cap(total, shards, i)).sum();
            assert_eq!(sum, total, "total {total}");
            if total > 0 {
                assert!((0..shards).all(|i| shard_cap(total, shards, i) >= 1));
            }
        }
    }

    #[test]
    fn profile_capacity_is_respected() {
        let cache = SolveCache::bounded(4, 3);
        let fw = FwOptions::default();
        for m in 2..12 {
            let spec = format!("{}x", m); // m distinct parallel scenarios
            let sc = Scenario::parse(&spec).unwrap();
            let _ = cache.model_profile(&spec, EqKind::Nash, sc.model(), &fw);
            assert!(
                cache.profile_len() <= 3,
                "profile table grew to {}",
                cache.profile_len()
            );
        }
        assert!(cache.counters().profile_evictions > 0);
    }
}
