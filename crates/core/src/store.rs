//! Persistent, content-addressed experiment result store.
//!
//! Where the checkpoint [`journal`](crate::journal) makes *one* sweep
//! resumable, the store makes results reusable **across** sweeps,
//! processes and days: every completed cell is addressed by
//! `(structural config fingerprint, workload, variant, seed)` — with the
//! simulation length folded into the fingerprint — and a sweep consults
//! the store before scheduling each cell, computes only the delta, and
//! publishes what it computed. A million-cell sweep whose cells mostly
//! exist already finishes in the time it takes to read them back, and
//! two overlapping sweeps share work instead of repeating it.
//!
//! On-disk layout (under [`default_store_dir`], overridable with the
//! `CMPSIM_STORE` knob):
//!
//! ```text
//! target/store/
//!   <fingerprint>.jsonl   # data: a sealed log of cell records
//!   lru.jsonl             # logical-clock touch records driving eviction
//! ```
//!
//! Each data file is a [`seallog`](crate::seallog) log with a
//! `{"cmpsim_store":…,"fingerprint":"…"}` header and one record per cell
//! in the journal's encoding; nothing else about a cell is persisted. A
//! shard's first load in a process opens its data file as the log's
//! writer, so the log's repair rule applies (a foreign or
//! version-mismatched file is rotated aside to `.stale.<fp>`, and a
//! torn tail is cut back), then streams it once: every record whose
//! seal holds is indexed in memory by the cell its leading fields name,
//! the last record of a cell winning, and every other line is counted
//! as corrupt and never served. A lookup decodes its cell's record from
//! the data file on first use and keeps it; a publish is one append.
//! So a sweep over one seed of a shard holding many seeds decodes only
//! that seed's records.
//!
//! Size is bounded: when the data files exceed the configured budget
//! (`CMPSIM_STORE_MAX_BYTES`, default 512 MiB), whole fingerprint files
//! are evicted least-recently-*touched* first, driven by a logical
//! counter in `lru.jsonl` — no wall-clock reads, so store behavior stays
//! deterministic.
//!
//! Concurrency: a store handle is `Sync` and meant to be shared
//! (`Arc<ResultStore>`) by every sweep in the process. [`lease`]
//! (ResultStore::lease) dedups *in-flight* work — the first sweep to ask
//! for a missing cell computes it while later askers block until the
//! result is published, so overlapping sweeps compute each cell exactly
//! once. Cross-process sharing is append-only and last-wins: concurrent
//! appends of the same cell are benign (the records are bit-identical by
//! the determinism contract).
//!
//! The store is **bit-inert**: a warm run decodes to exactly the
//! `RunResult` the cold run produced (the journal's bit-exact encoding),
//! so `run_grid_*` results — and the `grid_digest` golden gate — are
//! identical with the store cold, warm, or absent.

use crate::config::Variant;
use crate::flatjson;
use crate::journal::{self, Decoded};
use crate::seallog::{LogError, SealedLog};
use crate::stats::RunResult;
use cmpsim_harness::knobs;
use cmpsim_harness::metrics::{self, Counter, Gauge, Histogram};
use std::collections::HashMap;
use std::fs;
use std::io::Write as _;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// Store format version, written into every data-file header. Bumping it
/// orphans old files (they stop matching and are eventually evicted).
pub const STORE_VERSION: u64 = 1;

/// Default size budget for the data files: 512 MiB.
pub const DEFAULT_MAX_BYTES: u64 = 512 * 1024 * 1024;

/// The per-cell part of a store address; the config/length part is the
/// structural [`journal::fingerprint`] the store shards files by.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CellKey {
    /// Workload name.
    pub workload: String,
    /// Configuration variant.
    pub variant: Variant,
    /// Seed the cell runs with.
    pub seed: u64,
}

impl CellKey {
    /// Convenience constructor.
    pub fn new(workload: impl Into<String>, variant: Variant, seed: u64) -> Self {
        CellKey { workload: workload.into(), variant, seed }
    }
}

/// Hit/miss/maintenance counters for one store handle (not persisted).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Lookups served from the store (memory or disk).
    pub hits: u64,
    /// Compute claims granted by [`ResultStore::lease`] — the cells that
    /// actually had to be simulated. Plain [`ResultStore::get`] probes
    /// count hits only, so a probe-then-lease sequence (how the grid
    /// drivers consult the store) tallies each cell exactly once.
    pub misses: u64,
    /// Results published into the store by this handle.
    pub published: u64,
    /// Lease requests that blocked on another sweep computing the same
    /// cell and were then served its published result.
    pub shared_waits: u64,
    /// Records skipped because their seal (or framing) failed, counted
    /// when their shard loads, or because a sealed record did not decode
    /// to its cell, counted when that cell is read. Each one recomputes
    /// instead of serving corrupt data.
    pub corrupt_skipped: u64,
    /// Whole fingerprint files evicted by the size bound.
    pub evicted_files: u64,
    /// Bytes reclaimed by eviction.
    pub evicted_bytes: u64,
}

impl StoreStats {
    /// Hit rate over all lookups, as a percentage (0 when idle).
    pub fn hit_rate_pct(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 * 100.0 / total as f64
        }
    }
}

/// Outcome of [`ResultStore::lease`].
#[derive(Debug)]
pub enum Lease {
    /// The cell exists (or was just published by another sweep we waited
    /// on); here is its bit-identical result.
    Hit(Box<RunResult>),
    /// The cell is missing and this caller owns computing it. Publish
    /// through the guard; dropping it unpublished releases the claim so
    /// a waiting sweep computes instead.
    Compute(ComputeLease),
}

/// Exclusive claim on computing one missing cell (see [`Lease`]).
#[derive(Debug)]
pub struct ComputeLease {
    store: Arc<ResultStore>,
    fp: u64,
    key: CellKey,
    done: bool,
}

impl ComputeLease {
    /// Publishes the computed result under the leased key and wakes any
    /// sweeps waiting on it.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the data append; the claim is released
    /// either way.
    pub fn publish(mut self, result: &RunResult) -> Result<(), LogError> {
        self.done = true;
        self.store.publish_leased(self.fp, &self.key, result)
    }
}

impl Drop for ComputeLease {
    fn drop(&mut self) {
        if !self.done {
            self.store.abandon(self.fp, &self.key);
        }
    }
}

/// One fingerprint's data file and where each of its cells sits.
#[derive(Debug)]
struct Shard {
    /// The data file, opened (and so repaired) at the shard's first load.
    log: SealedLog,
    /// Key → byte range of the cell's last sealed record in the data file.
    offsets: HashMap<CellKey, Range<u64>>,
    /// Records already decoded this session.
    decoded: HashMap<CellKey, RunResult>,
}

#[derive(Debug, Default)]
struct Inner {
    shards: HashMap<u64, Shard>,
    /// In-flight computes, deduplicating overlapping sweeps.
    pending: HashMap<(u64, CellKey), ()>,
    /// Logical LRU clock (max of `lru.jsonl` at open, then monotonic).
    touch_seq: u64,
    /// Last-touch per fingerprint, mirrored to `lru.jsonl`.
    touched: HashMap<u64, u64>,
    stats: StoreStats,
}

/// Global-registry handles mirroring [`StoreStats`], resolved once per
/// store handle. Every bump is a relaxed atomic beside the existing
/// `StoreStats` field update — observe-only, nothing feeds back into
/// what a sweep computes.
#[derive(Debug)]
struct StoreMetrics {
    hits: Counter,
    misses: Counter,
    published: Counter,
    shared_waits: Counter,
    corrupt_skipped: Counter,
    evicted_files: Counter,
    evicted_bytes: Counter,
    resident_bytes: Gauge,
    lease_wait_nanos: Histogram,
}

impl StoreMetrics {
    fn register() -> StoreMetrics {
        let r = metrics::global();
        StoreMetrics {
            hits: r.counter("store_hits"),
            misses: r.counter("store_misses"),
            published: r.counter("store_published"),
            shared_waits: r.counter("store_shared_waits"),
            corrupt_skipped: r.counter("store_corrupt_skipped"),
            evicted_files: r.counter("store_evicted_files"),
            evicted_bytes: r.counter("store_evicted_bytes"),
            resident_bytes: r.gauge("store_resident_bytes"),
            lease_wait_nanos: r.histogram("store_lease_wait_nanos"),
        }
    }
}

/// A persistent, content-addressed store of experiment results. See the
/// module docs for layout, keying, eviction and the concurrency model.
#[derive(Debug)]
pub struct ResultStore {
    dir: PathBuf,
    max_bytes: u64,
    inner: Mutex<Inner>,
    published_cond: Condvar,
    metrics: StoreMetrics,
}

/// Default store directory: the `CMPSIM_STORE` knob, else `store` under
/// `$CARGO_TARGET_DIR`, the nearest enclosing `target/`, or `./target`.
pub fn default_store_dir() -> PathBuf {
    knobs().store.clone().unwrap_or_else(|| metrics::artifact_dir(None, "store"))
}

impl ResultStore {
    /// Opens (creating lazily on first publish) a store rooted at `dir`,
    /// with the size budget from the `CMPSIM_STORE_MAX_BYTES` knob
    /// (bytes; default [`DEFAULT_MAX_BYTES`]).
    pub fn open(dir: impl Into<PathBuf>) -> Arc<ResultStore> {
        Self::with_capacity(dir, knobs().store_max_bytes.unwrap_or(DEFAULT_MAX_BYTES))
    }

    /// Opens the default store ([`default_store_dir`], i.e. honoring
    /// the `CMPSIM_STORE` knob).
    pub fn open_default() -> Arc<ResultStore> {
        Self::open(default_store_dir())
    }

    /// [`open`](Self::open) with an explicit size budget in bytes.
    pub fn with_capacity(dir: impl Into<PathBuf>, max_bytes: u64) -> Arc<ResultStore> {
        let dir = dir.into();
        let store = ResultStore {
            dir,
            max_bytes: max_bytes.max(1),
            inner: Mutex::new(Inner::default()),
            published_cond: Condvar::new(),
            metrics: StoreMetrics::register(),
        };
        {
            let mut inner = store.lock();
            store.load_lru(&mut inner);
        }
        Arc::new(store)
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Snapshot of this handle's hit/miss/maintenance counters.
    pub fn stats(&self) -> StoreStats {
        self.lock().stats
    }

    /// Total bytes of fingerprint data files currently on disk, scanned
    /// fresh. Also refreshes the `store_resident_bytes` gauge, so a
    /// metrics snapshot taken right after reflects reality even when no
    /// eviction pass has run yet.
    pub fn resident_bytes(&self) -> u64 {
        let total = self.data_files().iter().map(|&(_, bytes)| bytes).sum();
        self.metrics.resident_bytes.set(total);
        total
    }

    /// Non-blocking lookup: the stored result for `(fp, key)`, if any.
    /// Counts a hit when found; a probe miss is not tallied (the lease
    /// that follows it counts the compute — see [`StoreStats::misses`]).
    pub fn get(&self, fp: u64, key: &CellKey) -> Option<RunResult> {
        let mut inner = self.lock();
        let found = self.lookup(&mut inner, fp, key);
        if found.is_some() {
            inner.stats.hits += 1;
            self.metrics.hits.inc();
        }
        found
    }

    /// Counter-neutral membership probe: whether `(fp, key)` is stored
    /// (and decodable), without tallying a hit. For planning/telemetry —
    /// e.g. the serve daemon labels each cell's source before a sweep.
    pub fn contains(&self, fp: u64, key: &CellKey) -> bool {
        let mut inner = self.lock();
        self.lookup(&mut inner, fp, key).is_some()
    }

    /// Looks the cell up; on a miss, either claims the compute for this
    /// caller or — when another sweep already holds the claim — blocks
    /// until that sweep publishes (then returns its result) or abandons
    /// (then claims for this caller). This is what lets two overlapping
    /// sweeps share a store and still compute every cell exactly once.
    pub fn lease(self: &Arc<Self>, fp: u64, key: &CellKey) -> Lease {
        let mut inner = self.lock();
        // Wait time is measured from the first block to the handoff —
        // the `store_lease_wait_nanos` histogram is how lease contention
        // between overlapping sweeps shows up in a metrics snapshot.
        let mut wait_start: Option<Instant> = None;
        loop {
            if let Some(r) = self.lookup(&mut inner, fp, key) {
                inner.stats.hits += 1;
                self.metrics.hits.inc();
                if let Some(t0) = wait_start {
                    inner.stats.shared_waits += 1;
                    self.metrics.shared_waits.inc();
                    self.metrics.lease_wait_nanos.record_elapsed(t0);
                }
                return Lease::Hit(Box::new(r));
            }
            if inner.pending.contains_key(&(fp, key.clone())) {
                wait_start.get_or_insert_with(Instant::now);
                inner = self
                    .published_cond
                    .wait(inner)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                continue;
            }
            inner.pending.insert((fp, key.clone()), ());
            inner.stats.misses += 1;
            self.metrics.misses.inc();
            if let Some(t0) = wait_start {
                // Waited on a claim that was abandoned; the compute
                // handed off to us.
                self.metrics.lease_wait_nanos.record_elapsed(t0);
            }
            return Lease::Compute(ComputeLease {
                store: Arc::clone(self),
                fp,
                key: key.clone(),
                done: false,
            });
        }
    }

    /// Publishes a result without a lease (e.g. warming the store from a
    /// journal). Appends to the data file, then updates the in-memory
    /// shard and the LRU clock, then enforces the size bound.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the appends.
    pub fn publish(&self, fp: u64, key: &CellKey, result: &RunResult) -> Result<(), LogError> {
        let mut inner = self.lock();
        self.publish_locked(&mut inner, fp, key, result)?;
        self.published_cond.notify_all();
        Ok(())
    }

    fn publish_leased(&self, fp: u64, key: &CellKey, result: &RunResult) -> Result<(), LogError> {
        let mut inner = self.lock();
        inner.pending.remove(&(fp, key.clone()));
        let out = self.publish_locked(&mut inner, fp, key, result);
        drop(inner);
        self.published_cond.notify_all();
        out
    }

    fn abandon(&self, fp: u64, key: &CellKey) {
        let mut inner = self.lock();
        inner.pending.remove(&(fp, key.clone()));
        drop(inner);
        self.published_cond.notify_all();
    }

    // ------------------------------------------------------ internals

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // A panic while publishing must not wedge every other sweep.
        self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn data_path(&self, fp: u64) -> PathBuf {
        self.dir.join(format!("{fp:016x}.jsonl"))
    }

    fn lru_path(&self) -> PathBuf {
        self.dir.join("lru.jsonl")
    }

    /// `(fingerprint, bytes)` of every data file on disk.
    fn data_files(&self) -> Vec<(u64, u64)> {
        let Ok(entries) = fs::read_dir(&self.dir) else { return Vec::new() };
        entries
            .flatten()
            .filter_map(|e| {
                let name = e.file_name();
                let fp = u64::from_str_radix(name.to_str()?.strip_suffix(".jsonl")?, 16).ok()?;
                Some((fp, e.metadata().map_or(0, |m| m.len())))
            })
            .collect()
    }

    fn count_corrupt(&self, inner: &mut Inner, n: u64) {
        inner.stats.corrupt_skipped += n;
        self.metrics.corrupt_skipped.add(n);
    }

    /// Finds `(fp, key)` in the shard, decoding its record from the data
    /// file on first access. A record that does not decode, or names
    /// another cell (the file was replaced under this handle), is dropped
    /// and counted as corrupt, so the cell recomputes.
    fn lookup(&self, inner: &mut Inner, fp: u64, key: &CellKey) -> Option<RunResult> {
        let shard = self.shard(inner, fp).ok()?;
        if let Some(r) = shard.decoded.get(key) {
            return Some(r.clone());
        }
        let span = shard.offsets.get(key)?.clone();
        match shard.log.read_at(span).and_then(|line| journal::decode_line(&line)) {
            Ok(Decoded::Entry(e))
                if e.workload == key.workload && e.variant == key.variant && e.seed == key.seed =>
            {
                shard.decoded.insert(key.clone(), e.result.clone());
                Some(e.result)
            }
            _ => {
                shard.offsets.remove(key);
                self.count_corrupt(inner, 1);
                None
            }
        }
    }

    /// The shard for `fp`, loaded on first use: opens (and so repairs)
    /// its data file and indexes every record whose seal holds by the
    /// cell it names, counting every other line as corrupt. A failed
    /// read leaves the shard unloaded, so the next use retries it.
    fn shard<'a>(&self, inner: &'a mut Inner, fp: u64) -> Result<&'a mut Shard, LogError> {
        if !inner.shards.contains_key(&fp) {
            let header =
                format!("{{\"cmpsim_store\":{STORE_VERSION},\"fingerprint\":\"{fp:016x}\"}}\n");
            let log = SealedLog::open_with(self.data_path(fp), header)?;
            let mut corrupt = u64::from(log.rotated_to.is_some());
            let mut offsets = HashMap::new();
            log.lines(|span, text| {
                match text.and_then(flatjson::check_seal).ok().and_then(journal::entry_cell) {
                    Some((workload, variant, seed)) => {
                        offsets.insert(CellKey::new(workload, variant, seed), span);
                    }
                    None => corrupt += 1,
                }
            })?;
            self.count_corrupt(inner, corrupt);
            if fs::metadata(self.data_path(fp)).is_ok_and(|m| m.len() > 0) {
                self.touch(inner, fp);
            }
            inner.shards.insert(fp, Shard { log, offsets, decoded: HashMap::new() });
        }
        Ok(inner.shards.get_mut(&fp).expect("loaded above"))
    }

    fn publish_locked(
        &self,
        inner: &mut Inner,
        fp: u64,
        key: &CellKey,
        result: &RunResult,
    ) -> Result<(), LogError> {
        let shard = self.shard(inner, fp)?;
        let body = journal::entry_body(&key.workload, key.variant, key.seed, result);
        let span = shard.log.append(body)?;
        shard.offsets.insert(key.clone(), span);
        shard.decoded.insert(key.clone(), result.clone());
        inner.stats.published += 1;
        self.metrics.published.inc();
        self.touch(inner, fp);
        self.evict_to_budget(inner, fp);
        Ok(())
    }

    /// Bumps `fp` on the logical LRU clock, appending to `lru.jsonl`.
    fn touch(&self, inner: &mut Inner, fp: u64) {
        inner.touch_seq += 1;
        let seq = inner.touch_seq;
        inner.touched.insert(fp, seq);
        let line = format!("{{\"fingerprint\":\"{fp:016x}\",\"touch\":{seq}}}\n");
        let _ = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.lru_path())
            .and_then(|mut f| f.write_all(line.as_bytes()));
    }

    fn load_lru(&self, inner: &mut Inner) {
        if let Ok(text) = fs::read_to_string(self.lru_path()) {
            for line in text.lines() {
                let Some(kvs) = crate::flatjson::parse_flat(line) else { continue };
                let map: HashMap<_, _> = kvs.into_iter().collect();
                let fp = map
                    .get("fingerprint")
                    .and_then(|v| v.as_str())
                    .and_then(|s| u64::from_str_radix(s, 16).ok());
                let seq = map.get("touch").and_then(|v| v.as_u64());
                if let (Some(fp), Some(seq)) = (fp, seq) {
                    inner.touch_seq = inner.touch_seq.max(seq);
                    inner.touched.insert(fp, seq);
                }
            }
        }
    }

    /// Evicts least-recently-touched fingerprint files until the data
    /// files fit the budget. The fingerprint just published to
    /// (`keep_fp`) is never self-evicted mid-sweep.
    fn evict_to_budget(&self, inner: &mut Inner, keep_fp: u64) {
        let mut sizes = self.data_files();
        let mut total: u64 = sizes.iter().map(|&(_, bytes)| bytes).sum();
        if total <= self.max_bytes {
            self.metrics.resident_bytes.set(total);
            return;
        }
        // Oldest logical touch first; untouched files (no lru record,
        // e.g. orphans from a crashed process) count as oldest of all.
        sizes.sort_by_key(|&(fp, _)| (inner.touched.get(&fp).copied().unwrap_or(0), fp));
        for (fp, bytes) in sizes {
            if total <= self.max_bytes {
                break;
            }
            if fp == keep_fp {
                continue;
            }
            let _ = fs::remove_file(self.data_path(fp));
            inner.shards.remove(&fp);
            inner.touched.remove(&fp);
            inner.stats.evicted_files += 1;
            inner.stats.evicted_bytes += bytes;
            self.metrics.evicted_files.inc();
            self.metrics.evicted_bytes.add(bytes);
            total = total.saturating_sub(bytes);
        }
        self.metrics.resident_bytes.set(total);
        // Compact the LRU file to the surviving fingerprints.
        let mut compact = String::new();
        let mut survivors: Vec<_> = inner.touched.iter().collect();
        survivors.sort_by_key(|&(_, seq)| *seq);
        for (fp, seq) in survivors {
            compact.push_str(&format!("{{\"fingerprint\":\"{fp:016x}\",\"touch\":{seq}}}\n"));
        }
        let _ = metrics::write_atomic(&self.lru_path(), &compact);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::SimStats;

    fn result(cycles: u64) -> RunResult {
        RunResult {
            stats: SimStats::default(),
            cycles,
            clock_ghz: 5,
            events: cycles * 2,
            retired: cycles * 3,
            host_nanos: 1,
        }
    }

    fn temp_store(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cmpsim-store-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn publish_then_get_roundtrips_across_handles() {
        let dir = temp_store("roundtrip");
        let key = CellKey::new("apsi", Variant::Prefetch, 11);
        let r = result(1234);
        {
            let store = ResultStore::with_capacity(&dir, u64::MAX);
            assert_eq!(store.get(0xf00, &key), None);
            store.publish(0xf00, &key, &r).unwrap();
            assert_eq!(store.get(0xf00, &key), Some(r.clone()));
            let s = store.stats();
            assert_eq!((s.hits, s.misses, s.published), (1, 0, 1), "probe misses are not tallied");
        }
        // A fresh handle (fresh process, conceptually) reads it back from
        // the data file.
        let store = ResultStore::with_capacity(&dir, u64::MAX);
        assert_eq!(store.get(0xf00, &key), Some(r));
        assert_eq!(store.get(0xf00, &CellKey::new("apsi", Variant::Base, 11)), None);
        assert_eq!(store.get(0xbad, &key), None, "fingerprints are separate shards");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_record_is_skipped_and_recomputable() {
        let dir = temp_store("corrupt");
        let key = CellKey::new("apsi", Variant::Base, 1);
        {
            let store = ResultStore::with_capacity(&dir, u64::MAX);
            store.publish(0x2, &key, &result(50)).unwrap();
        }
        // Flip one digit inside the record body.
        let data = dir.join("0000000000000002.jsonl");
        let text = fs::read_to_string(&data).unwrap();
        fs::write(&data, text.replacen("\"cycles\":50", "\"cycles\":51", 1)).unwrap();
        let store = ResultStore::with_capacity(&dir, u64::MAX);
        assert_eq!(store.get(0x2, &key), None, "corrupt record must not be served");
        assert!(store.stats().corrupt_skipped >= 1);
        // Republish heals it (last-wins), also for a fresh handle that
        // reads both records from the data file.
        store.publish(0x2, &key, &result(50)).unwrap();
        assert_eq!(store.get(0x2, &key), Some(result(50)));
        let lines = fs::read_to_string(&data).unwrap().lines().count();
        assert_eq!(lines, 3, "the header, the corrupt record and the republished one");
        let fresh = ResultStore::with_capacity(&dir, u64::MAX);
        assert_eq!(fresh.get(0x2, &key), Some(result(50)));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn records_decode_only_when_their_cell_is_read() {
        let dir = temp_store("lazy");
        let key = CellKey::new("apsi", Variant::Base, 1);
        let short = CellKey::new("apsi", Variant::Base, 2);
        ResultStore::with_capacity(&dir, u64::MAX).publish(0x5, &key, &result(1)).unwrap();
        // A sealed record of another seed that is missing its fields.
        let data = dir.join("0000000000000005.jsonl");
        let mut text = fs::read_to_string(&data).unwrap();
        let body = "{\"workload\":\"apsi\",\"variant\":\"base\",\"seed\":2";
        text.push_str(&flatjson::seal(body.to_string()));
        text.push('\n');
        fs::write(&data, text).unwrap();
        let store = ResultStore::with_capacity(&dir, u64::MAX);
        assert_eq!(store.get(0x5, &key), Some(result(1)));
        assert_eq!(store.stats().corrupt_skipped, 0, "the other seed's record is not decoded");
        assert_eq!(store.get(0x5, &short), None);
        assert_eq!(store.stats().corrupt_skipped, 1, "decoded, and refused, when read");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_record_is_ignored() {
        let dir = temp_store("torn");
        let key = CellKey::new("apsi", Variant::Base, 1);
        let keep = CellKey::new("mgrid", Variant::Base, 1);
        {
            let store = ResultStore::with_capacity(&dir, u64::MAX);
            store.publish(0x3, &keep, &result(1)).unwrap();
            store.publish(0x3, &key, &result(2)).unwrap();
        }
        // Tear the last record mid-line, as a kill mid-append would.
        let data = dir.join("0000000000000003.jsonl");
        let text = fs::read_to_string(&data).unwrap();
        fs::write(&data, &text[..text.len() - 20]).unwrap();
        let store = ResultStore::with_capacity(&dir, u64::MAX);
        assert_eq!(store.get(0x3, &keep), Some(result(1)), "intact record survives");
        assert_eq!(store.get(0x3, &key), None, "torn record recomputes");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn lease_dedups_inflight_and_blocks_waiters() {
        let dir = temp_store("lease");
        let store = ResultStore::with_capacity(&dir, u64::MAX);
        let key = CellKey::new("apsi", Variant::Base, 1);
        let Lease::Compute(lease) = store.lease(0x4, &key) else {
            panic!("first lease must be a compute claim")
        };
        // A concurrent asker blocks until we publish, then gets a hit.
        let waiter = {
            let store = Arc::clone(&store);
            let key = key.clone();
            std::thread::spawn(move || match store.lease(0x4, &key) {
                Lease::Hit(r) => *r,
                Lease::Compute(_) => panic!("waiter must be served the published result"),
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(30));
        lease.publish(&result(7)).unwrap();
        assert_eq!(waiter.join().unwrap(), result(7));
        assert_eq!(store.stats().published, 1, "cell computed exactly once");
        assert!(store.stats().shared_waits >= 1);

        // An abandoned claim hands the compute to the next asker.
        let key2 = CellKey::new("mgrid", Variant::Base, 1);
        let Lease::Compute(lease) = store.lease(0x4, &key2) else { panic!() };
        drop(lease);
        assert!(matches!(store.lease(0x4, &key2), Lease::Compute(_)));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn lru_eviction_bounds_store_size() {
        let dir = temp_store("lru");
        // Budget below two data files, far above one.
        let one_file = {
            let probe = temp_store("lru-probe");
            let store = ResultStore::with_capacity(&probe, u64::MAX);
            store.publish(0xa, &CellKey::new("apsi", Variant::Base, 1), &result(1)).unwrap();
            let n = fs::metadata(probe.join(format!("{:016x}.jsonl", 0xa))).unwrap().len();
            let _ = fs::remove_dir_all(&probe);
            n
        };
        let store = ResultStore::with_capacity(&dir, one_file * 2 - 1);
        for fp in [0xa, 0xb, 0xc] {
            store.publish(fp, &CellKey::new("apsi", Variant::Base, 1), &result(fp)).unwrap();
        }
        // Each publish keeps the active file and evicts the older one.
        assert!(!dir.join(format!("{:016x}.jsonl", 0xa)).exists(), "oldest evicted");
        assert!(!dir.join(format!("{:016x}.jsonl", 0xb)).exists());
        assert!(dir.join(format!("{:016x}.jsonl", 0xc)).exists(), "most recent kept");
        assert_eq!(store.stats().evicted_files, 2);
        let total: u64 = fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().ends_with(".jsonl"))
            .filter(|e| e.file_name().to_string_lossy() != "lru.jsonl")
            .map(|e| e.metadata().unwrap().len())
            .sum();
        assert!(total < one_file * 2, "size bound respected: {total}");
        // Evicted cells are misses (recompute), kept cells are hits.
        assert_eq!(store.get(0xa, &CellKey::new("apsi", Variant::Base, 1)), None);
        assert_eq!(
            store.get(0xc, &CellKey::new("apsi", Variant::Base, 1)),
            Some(result(0xc))
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn foreign_data_file_is_rotated_aside_not_served() {
        let dir = temp_store("foreign");
        fs::create_dir_all(&dir).unwrap();
        let data = dir.join(format!("{:016x}.jsonl", 0x9));
        fs::write(&data, "{\"cmpsim_store\":999,\"fingerprint\":\"0000000000000009\"}\n").unwrap();
        let store = ResultStore::with_capacity(&dir, u64::MAX);
        assert_eq!(store.get(0x9, &CellKey::new("apsi", Variant::Base, 1)), None);
        assert!(!data.exists());
        assert!(
            dir.join(format!("{:016x}.jsonl.stale.{:016x}", 0x9, 0x9)).exists(),
            "preserved, not deleted"
        );
        let _ = fs::remove_dir_all(&dir);
    }
}
