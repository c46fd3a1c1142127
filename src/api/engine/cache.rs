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
//!
//! An entry replayed from a disk log may hold its record's payload still
//! undecoded. Its first hit decodes it outside the shard lock, checking it
//! against the scenario's model, and the decoded value replaces it; a
//! payload that fails is dropped, counted in `rejected_records`, and the
//! lookup reads as a miss. Which keys came from the log is kept as a
//! per-shard set of their FNV digests, not of cloned keys: a hit on one
//! counts a disk hit, and its fresh results are not appended again.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet, VecDeque};
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

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
    /// FNV-1a digest of the whole key: the shard selector, and the handle
    /// the replayed-key bookkeeping stores instead of a cloned key.
    fn digest(&self) -> u64 {
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
        h.finish()
    }
}

/// A table entry's value: solved (or decoded), or the payload text of a
/// record replayed from the disk log and not yet decoded. A raw payload is
/// decoded on its entry's first hit, outside the shard lock, and the
/// decoded value replaces it; one that fails to decode is dropped and the
/// lookup reads as a miss.
#[derive(Clone, Debug)]
enum Slot<V> {
    Ready(Result<V, SoptError>),
    Raw(Arc<str>),
}

type Table<K, V> = [Mutex<BoundedShard<K, Slot<V>>>; SHARDS];

/// One bounded, second-chance-evicting map shard. Keys live once in the
/// FIFO; a `get` marks the entry referenced, which buys it one reprieve
/// when the clock hand (the FIFO front) reaches it.
#[derive(Debug)]
struct BoundedShard<K, V> {
    map: HashMap<K, (V, bool)>,
    fifo: VecDeque<K>,
    cap: usize,
    /// Digests of the keys replayed from the disk log into this shard.
    /// A hit on one counts a disk hit, and a key listed here is never
    /// appended to the log again. Two keys share a digest with
    /// probability 2⁻⁶⁴; the cost would be one result left unlogged.
    replayed: HashSet<u64>,
}

impl<K: Eq + Hash + Clone, V: Clone> BoundedShard<K, V> {
    fn new(cap: usize) -> Self {
        Self {
            map: HashMap::new(),
            fifo: VecDeque::new(),
            cap,
            replayed: HashSet::new(),
        }
    }

    fn get(&mut self, k: &K) -> Option<V> {
        self.map.get_mut(k).map(|(v, referenced)| {
            *referenced = true;
            v.clone()
        })
    }

    /// Inserts, evicting per second-chance until the shard fits its cap.
    /// Returns the number of entries evicted. Below the cap the map is
    /// probed once.
    fn insert(&mut self, k: K, v: V) -> u64 {
        if self.cap == 0 {
            return 0;
        }
        let mut evicted = 0;
        if self.map.len() >= self.cap && !self.map.contains_key(&k) {
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
        }
        match self.map.entry(k) {
            // Re-memoized (racing workers): refresh in place, keep position.
            Entry::Occupied(mut e) => e.get_mut().0 = v,
            Entry::Vacant(e) => {
                self.fifo.push_back(e.key().clone());
                e.insert((v, false));
            }
        }
        evicted
    }

    /// Drops `k`'s entry (and its FIFO place) as if it had never been
    /// inserted.
    fn remove(&mut self, k: &K) {
        if self.map.remove(k).is_some() {
            self.fifo.retain(|q| q != k);
        }
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

/// The engine's memo table. Cheap to share: wrap in an
/// [`Arc`] and pass the same cache to several
/// [`Engine`](super::Engine) runs to keep it warm across fleets.
///
/// A cache opened through
/// [`EngineBuilder::persist`](super::EngineBuilder::persist) is **disk
/// backed**: entries replayed from the append-only log at open time count
/// as `disk_hits` when they are served, and fresh `Ok` entries are written
/// through to the log so the next process starts warm.
#[derive(Debug)]
pub struct SolveCache {
    reports: Table<Fingerprint, Report>,
    profiles: Table<ProfileKey, ModelProfile>,
    /// Active report shards (power of two ≤ [`SHARDS`]).
    report_shards: usize,
    /// Active profile shards (power of two ≤ [`SHARDS`]).
    profile_shards: usize,
    /// The disk log, attached once right after replay (before sharing).
    disk: std::sync::OnceLock<crate::api::serve::persist::DiskLog>,
    hits: AtomicU64,
    misses: AtomicU64,
    eq_hits: AtomicU64,
    eq_misses: AtomicU64,
    net_hits: AtomicU64,
    net_misses: AtomicU64,
    disk_hits: AtomicU64,
    report_evictions: AtomicU64,
    profile_evictions: AtomicU64,
    rejected_records: AtomicU64,
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
    /// Disk-log records dropped: at replay (a torn line, a bad key field,
    /// a payload kind that does not match its key) or at the entry's
    /// first hit (a payload that fails to decode or to fit its scenario).
    pub rejected_records: u64,
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
            rejected_records: AtomicU64::new(0),
        }
    }

    /// Attaches the disk log after replay. Called exactly once, by
    /// [`EngineBuilder::build_cache`](super::EngineBuilder), before the
    /// cache is shared; later attempts are ignored.
    pub(crate) fn attach_disk(&self, log: crate::api::serve::persist::DiskLog) {
        let _ = self.disk.set(log);
    }

    /// Sizes both tables for a replay of `reports` and `profiles` records,
    /// so the replay's inserts do not regrow the shards' maps.
    pub(crate) fn reserve(&self, reports: usize, profiles: usize) {
        fn per_shard<K: Eq + Hash, V>(table: &Table<K, V>, shards: usize, n: usize) {
            let each = n.div_ceil(shards);
            for shard in &table[..shards] {
                let mut shard = shard.lock();
                let n = shard.cap.min(each + each / 8);
                shard.map.reserve(n);
                shard.fifo.reserve(n);
                shard.replayed.reserve(n);
            }
        }
        per_shard(&self.reports, self.report_shards, reports);
        per_shard(&self.profiles, self.profile_shards, profiles);
    }

    /// Counts `n` disk-log records dropped at replay.
    pub(crate) fn count_rejected(&self, n: u64) {
        self.rejected_records.fetch_add(n, Ordering::Relaxed);
    }

    /// Replays one report record from disk, its payload undecoded: inserted
    /// without counting a miss, without writing back to the log. Eviction
    /// counters still run — a log larger than the capacity simply keeps its
    /// newest entries.
    pub(crate) fn seed_report(&self, fp: Fingerprint, payload: &str) {
        let digest = fp.hash;
        let shard = (digest as usize) & (self.report_shards - 1);
        Self::seed(
            &self.reports[shard],
            fp,
            digest,
            payload,
            &self.report_evictions,
        );
    }

    /// Replays one profile record from disk (see [`Self::seed_report`]).
    pub(crate) fn seed_profile(&self, key: ProfileKey, payload: &str) {
        let digest = key.digest();
        let shard = (digest as usize) & (self.profile_shards - 1);
        Self::seed(
            &self.profiles[shard],
            key,
            digest,
            payload,
            &self.profile_evictions,
        );
    }

    fn seed<K: Eq + Hash + Clone, V: Clone>(
        shard: &Mutex<BoundedShard<K, Slot<V>>>,
        key: K,
        digest: u64,
        payload: &str,
        evictions: &AtomicU64,
    ) {
        let mut shard = shard.lock();
        shard.replayed.insert(digest);
        let evicted = shard.insert(key, Slot::Raw(payload.into()));
        if evicted > 0 {
            evictions.fetch_add(evicted, Ordering::Relaxed);
        }
    }

    /// Looks `key` up in `shard`, counting a disk hit when its key was
    /// replayed. A raw payload is decoded by `decode` outside the lock and
    /// replaces its entry; one that fails to decode is dropped, counted in
    /// `rejected_records`, and reads as a miss, so the fresh result is
    /// written through. Returns `None` on a miss.
    fn lookup<K: Eq + Hash + Clone, V: Clone>(
        &self,
        shard: &Mutex<BoundedShard<K, Slot<V>>>,
        key: &K,
        digest: u64,
        decode: impl FnOnce(&str) -> Option<V>,
    ) -> Option<Result<V, SoptError>> {
        let disk_hit = || self.disk_hits.fetch_add(1, Ordering::Relaxed);
        let (raw, replayed) = {
            let mut shard = shard.lock();
            let replayed = shard.replayed.contains(&digest);
            match shard.get(key)? {
                Slot::Ready(value) => {
                    if replayed {
                        disk_hit();
                    }
                    return Some(value);
                }
                Slot::Raw(raw) => (raw, replayed),
            }
        };
        let decoded = decode(&raw);
        let mut shard = shard.lock();
        let still_raw =
            matches!(shard.map.get(key), Some((Slot::Raw(r), _)) if Arc::ptr_eq(r, &raw));
        match decoded {
            Some(value) => {
                if still_raw {
                    if let Some(entry) = shard.map.get_mut(key) {
                        entry.0 = Slot::Ready(Ok(value.clone()));
                    }
                }
                if replayed {
                    disk_hit();
                }
                Some(Ok(value))
            }
            None => {
                if still_raw {
                    shard.remove(key);
                    shard.replayed.remove(&digest);
                    self.rejected_records.fetch_add(1, Ordering::Relaxed);
                }
                None
            }
        }
    }

    /// Whether a fresh result under `digest` goes to the disk log: there is
    /// one, and the key was not replayed from it.
    fn log_for<K, V>(
        &self,
        shard: &Mutex<BoundedShard<K, Slot<V>>>,
        digest: u64,
    ) -> Option<&crate::api::serve::persist::DiskLog> {
        self.disk
            .get()
            .filter(|_| !shard.lock().replayed.contains(&digest))
    }

    /// Looks up a memoized report of a scenario whose model is `model`,
    /// counting the hit or miss. A hit on an entry that was replayed from
    /// disk additionally counts a disk hit.
    pub(crate) fn get_report(
        &self,
        fp: &Fingerprint,
        model: &dyn ScenarioModel,
    ) -> Option<Result<Report, SoptError>> {
        // Lookup latency (hit or miss — lock wait plus probe, and a
        // replayed payload's decode) lands in the cache_lookup histogram;
        // compute latency shows up as cold_solve / warm_polish, so the two
        // sides of the memoization bet are separately measurable.
        let _lookup = sopt_obs::global().span(sopt_obs::Phase::CacheLookup);
        let shard = (fp.hash as usize) & (self.report_shards - 1);
        let found = self.lookup(&self.reports[shard], fp, fp.hash, |payload| {
            crate::api::serve::persist::decode_report(fp, payload, Some(model))
        });
        let counter = if found.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        found
    }

    /// Memoizes a report. Races between workers solving the same scenario
    /// are benign: every solve is deterministic, so last-write-wins stores
    /// the same value either way. On a disk-backed cache, fresh `Ok`
    /// results are appended to the log (errors recompute deterministically,
    /// so they are not worth the bytes); entries that came *from* the log
    /// are never written back.
    pub(crate) fn put_report(&self, fp: Fingerprint, result: Result<Report, SoptError>) {
        let shard = (fp.hash as usize) & (self.report_shards - 1);
        if let Ok(report) = &result {
            if let Some(log) = self.log_for(&self.reports[shard], fp.hash) {
                log.append_report(&fp, report);
            }
        }
        let evicted = self.reports[shard].lock().insert(fp, Slot::Ready(result));
        if evicted > 0 {
            self.report_evictions.fetch_add(evicted, Ordering::Relaxed);
        }
    }

    /// Looks up or computes a profile under `key`, memoizing the result.
    fn profile_entry(
        &self,
        key: ProfileKey,
        model: &dyn ScenarioModel,
        hits: &AtomicU64,
        misses: &AtomicU64,
        compute: impl FnOnce() -> Result<ModelProfile, SoptError>,
    ) -> Result<ModelProfile, SoptError> {
        let digest = key.digest();
        let shard = &self.profiles[(digest as usize) & (self.profile_shards - 1)];
        let found = self.lookup(shard, &key, digest, |payload| {
            crate::api::serve::persist::decode_profile(&key, payload, Some(model))
        });
        if let Some(profile) = found {
            hits.fetch_add(1, Ordering::Relaxed);
            return profile;
        }
        misses.fetch_add(1, Ordering::Relaxed);
        let computed = compute();
        if let Ok(profile) = &computed {
            if let Some(log) = self.log_for(shard, digest) {
                log.append_profile(&key, profile);
            }
        }
        let evicted = shard.lock().insert(key, Slot::Ready(computed.clone()));
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
        self.profile_entry(key, model, hits, misses, compute)
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
            rejected_records: self.rejected_records.load(Ordering::Relaxed),
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
        assert!(cache.get_report(&fp, sc.model()).is_none());
        let report = sc.clone().solve().run().unwrap();
        cache.put_report(fp.clone(), Ok(report.clone()));
        let back = cache.get_report(&fp, sc.model()).unwrap().unwrap();
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
