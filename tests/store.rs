//! Acceptance properties of the content-addressed result store:
//!
//! - **bit-inertness**: warm-store reruns return results bit-identical
//!   to the cold run (and to a storeless run on one worker) at 1, 2 and
//!   8 threads;
//! - **sweep dedup**: two overlapping sweeps sharing a store compute
//!   each shared cell exactly once — sequentially (the second computes
//!   only its delta) and concurrently (in-flight leases);
//! - **corruption safety**: CRC-corrupted and torn records are skipped
//!   and recomputed, never served;
//! - **bounded size**: LRU eviction keeps the data files under budget
//!   while the most recently used sweep stays warm;
//! - the driver mirrors store hits into its journal so a journal-only
//!   resume stays complete.

use cmpsim::core::experiment::{
    run_cells_resilient, run_grid_resilient, run_variant, GridCell, ResilienceOptions, SimLength,
};
use cmpsim::core::journal;
use cmpsim::core::store::{CellKey, ResultStore};
use cmpsim::{workload, SystemConfig, Variant};
use cmpsim_harness::Supervisor;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

const VARIANTS: [Variant; 2] = [Variant::Base, Variant::PrefetchCompression];

fn short() -> SimLength {
    SimLength { warmup: 2_000, measure: 8_000 }
}

fn small_base() -> SystemConfig {
    SystemConfig::paper_default(2).with_seed(11)
}

/// The grid driver on `threads` workers, consulting and feeding `store`
/// when given one, failing fast.
fn grid(
    specs: &[cmpsim_trace::WorkloadSpec],
    base: &SystemConfig,
    len: SimLength,
    threads: usize,
    store: Option<&Arc<ResultStore>>,
) -> Vec<GridCell> {
    let opts = ResilienceOptions {
        supervisor: Supervisor::with_threads(threads),
        journal: None,
        store: store.cloned(),
    };
    run_grid_resilient(specs, base, &VARIANTS, len, &opts)
        .into_iter()
        .collect::<Result<_, _>>()
        .unwrap()
}

/// A unique, pre-cleaned store directory for one test.
fn temp_store(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("cmpsim-store-it-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn warm_store_is_bit_identical_at_1_2_and_8_threads() {
    let specs = vec![workload("zeus").unwrap(), workload("apsi").unwrap()];
    let base = small_base();
    let dir = temp_store("bit-identity");
    let serial = grid(&specs, &base, short(), 1, None);

    let cold_store = ResultStore::with_capacity(&dir, u64::MAX);
    let cold = grid(&specs, &base, short(), 2, Some(&cold_store));
    // RunResult derives PartialEq over every counter and every f64, so
    // == here is bit-exactness, not approximation.
    assert_eq!(serial, cold, "store-fed cold run must match the serial engine");
    assert_eq!(cold_store.stats().published, serial.len() as u64);

    for threads in [1, 2, 8] {
        let warm_store = ResultStore::with_capacity(&dir, u64::MAX);
        let warm = grid(&specs, &base, short(), threads, Some(&warm_store));
        assert_eq!(serial, warm, "warm store diverged at {threads} threads");
        let s = warm_store.stats();
        assert_eq!(s.published, 0, "warm rerun must compute 0 cells ({threads} threads)");
        assert_eq!(s.misses, 0, "{threads} threads");
        assert_eq!(s.hits, serial.len() as u64, "{threads} threads");
        assert_eq!(s.corrupt_skipped, 0, "{threads} threads");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn overlapping_sequential_sweeps_compute_only_the_delta() {
    let base = small_base();
    let dir = temp_store("overlap-seq");

    let sweep_a = vec![workload("apsi").unwrap(), workload("mgrid").unwrap()];
    let store = ResultStore::with_capacity(&dir, u64::MAX);
    grid(&sweep_a, &base, short(), 2, Some(&store));
    assert_eq!(store.stats().published, 4);

    // Sweep B shares apsi/mgrid with A and adds art: only art's cells
    // are simulated, through a *fresh handle* (a separate process would
    // behave identically).
    let sweep_b = vec![
        workload("apsi").unwrap(),
        workload("mgrid").unwrap(),
        workload("art").unwrap(),
    ];
    let store_b = ResultStore::with_capacity(&dir, u64::MAX);
    let cells_b = grid(&sweep_b, &base, short(), 2, Some(&store_b));
    let s = store_b.stats();
    assert_eq!(s.published, 2, "only art × 2 variants computed");
    assert_eq!(s.hits, 4, "apsi/mgrid served from sweep A's results");
    // And the shared cells are bit-identical to a from-scratch run.
    let scratch = grid(&sweep_b, &base, short(), 1, None);
    assert_eq!(scratch, cells_b);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_sweeps_sharing_a_store_compute_each_cell_once() {
    let specs = vec![workload("zeus").unwrap(), workload("apsi").unwrap()];
    let base = small_base();
    let dir = temp_store("overlap-concurrent");
    let store = ResultStore::with_capacity(&dir, u64::MAX);
    let serial = grid(&specs, &base, short(), 1, None);

    // Two identical sweeps race on one store handle. Leases guarantee
    // each of the 4 cells is simulated exactly once; the loser of each
    // race blocks until the winner publishes and is served its result.
    let threads: Vec<_> = (0..2)
        .map(|_| {
            let specs = specs.clone();
            let base = base.clone();
            let store = Arc::clone(&store);
            std::thread::spawn(move || grid(&specs, &base, short(), 2, Some(&store)))
        })
        .collect();
    for t in threads {
        assert_eq!(t.join().unwrap(), serial, "every concurrent sweep sees identical cells");
    }
    let s = store.stats();
    assert_eq!(s.published, serial.len() as u64, "each cell computed exactly once");
    assert_eq!(s.hits + s.misses, 2 * serial.len() as u64);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_and_torn_records_are_recomputed_not_served() {
    let specs = vec![workload("apsi").unwrap()];
    let base = small_base();
    let dir = temp_store("corruption");

    let store = ResultStore::with_capacity(&dir, u64::MAX);
    let cold = grid(&specs, &base, short(), 1, Some(&store));
    drop(store);

    // Flip a digit inside the first record's body and tear the tail off
    // the last one — an in-place bitrot plus a mid-append crash.
    let fp = journal::fingerprint(&base, short());
    let data = dir.join(format!("{fp:016x}.jsonl"));
    let text = std::fs::read_to_string(&data).unwrap();
    let mangled = text.replacen("\"seed\":11", "\"seed\":91", 1);
    assert_ne!(mangled, text, "corruption must actually hit a record");
    let mangled = &mangled[..mangled.len() - 15];
    std::fs::write(&data, mangled).unwrap();

    let warm_store = ResultStore::with_capacity(&dir, u64::MAX);
    let warm = grid(&specs, &base, short(), 1, Some(&warm_store));
    assert_eq!(cold, warm, "recomputed cells must be bit-identical");
    let s = warm_store.stats();
    assert_eq!(s.published, 2, "both damaged cells recomputed");
    assert!(s.corrupt_skipped >= 1, "the mangled record was detected");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resilient_driver_uses_and_feeds_the_store() {
    let specs = vec![workload("apsi").unwrap(), workload("mgrid").unwrap()];
    let base = small_base();
    let dir = temp_store("resilient");
    let journal_path = std::env::temp_dir()
        .join(format!("cmpsim-store-it-{}-resilient.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&journal_path);

    let supervisor =
        Supervisor { threads: 2, deadline: None, retries: 0, backoff: Duration::from_millis(1) };

    // Pre-warm the store with one sweep (no journal involved).
    let store = ResultStore::with_capacity(&dir, u64::MAX);
    grid(&specs, &base, short(), 2, Some(&store));

    // A resilient sweep over the same grid must simulate nothing: every
    // cell is a store hit, counted via the injected cell function.
    let calls = Arc::new(AtomicUsize::new(0));
    let counter = Arc::clone(&calls);
    let opts = ResilienceOptions {
        supervisor: supervisor.clone(),
        journal: Some(journal_path.clone()),
        store: Some(Arc::clone(&store)),
    };
    let len = short();
    let fp = journal::fingerprint(&base, len);
    let out = run_cells_resilient(&specs, &base, &VARIANTS, fp, &opts, move |s, b, v| {
        counter.fetch_add(1, Ordering::SeqCst);
        run_variant(s, b, v, len)
    });
    assert_eq!(calls.load(Ordering::SeqCst), 0, "warm resilient sweep computed a cell");
    let cells: Vec<_> = out.into_iter().map(|r| r.unwrap()).collect();
    assert_eq!(cells, grid(&specs, &base, len, 1, None));

    // Store hits were mirrored into the journal: a journal-only resume
    // (store disabled) also computes nothing.
    let calls2 = Arc::new(AtomicUsize::new(0));
    let counter2 = Arc::clone(&calls2);
    let opts = ResilienceOptions { supervisor, journal: Some(journal_path.clone()), store: None };
    let out = run_cells_resilient(&specs, &base, &VARIANTS, fp, &opts, move |s, b, v| {
        counter2.fetch_add(1, Ordering::SeqCst);
        run_variant(s, b, v, len)
    });
    assert_eq!(calls2.load(Ordering::SeqCst), 0, "journal resume re-simulated a mirrored cell");
    assert!(out.into_iter().all(|r| r.is_ok()));

    let _ = std::fs::remove_file(&journal_path);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn run_grid_resilient_populates_the_store_for_later_sweeps() {
    let specs = vec![workload("zeus").unwrap()];
    let base = small_base();
    let dir = temp_store("resilient-feeds");
    let store = ResultStore::with_capacity(&dir, u64::MAX);

    let opts = ResilienceOptions {
        supervisor: Supervisor {
            threads: 2,
            deadline: None,
            retries: 0,
            backoff: Duration::from_millis(1),
        },
        journal: None,
        store: Some(Arc::clone(&store)),
    };
    let first = run_grid_resilient(&specs, &base, &VARIANTS, short(), &opts);
    assert!(first.iter().all(|r| r.is_ok()));
    assert_eq!(store.stats().published, 2);

    // The published cells are directly addressable by key.
    let fp = journal::fingerprint(&base, short());
    for &v in &VARIANTS {
        assert!(
            store.get(fp, &CellKey::new("zeus", v, base.seed)).is_some(),
            "cell zeus/{v} missing from store"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn lru_eviction_keeps_recent_sweeps_warm_within_budget() {
    let specs = vec![workload("apsi").unwrap()];
    let base = small_base();
    let dir = temp_store("lru-bound");

    // Size one sweep's data file, then budget for ~1.5 of them.
    let probe_dir = temp_store("lru-bound-probe");
    let probe = ResultStore::with_capacity(&probe_dir, u64::MAX);
    grid(&specs, &base, short(), 1, Some(&probe));
    let fp0 = journal::fingerprint(&base, short());
    let one = std::fs::metadata(probe_dir.join(format!("{fp0:016x}.jsonl"))).unwrap().len();
    let _ = std::fs::remove_dir_all(&probe_dir);

    let budget = one + one / 2;
    let store = ResultStore::with_capacity(&dir, budget);
    // Three sweeps with different lengths → three fingerprint files, of
    // which the budget can hold one.
    let lens = [short(), SimLength { warmup: 2_000, measure: 8_100 },
        SimLength { warmup: 2_000, measure: 8_200 }];
    for len in lens {
        grid(&specs, &base, len, 1, Some(&store));
    }
    assert!(store.stats().evicted_files >= 1, "budget forced evictions");
    let total: u64 = std::fs::read_dir(&dir)
        .unwrap()
        .flatten()
        .filter(|e| {
            let n = e.file_name();
            n.to_string_lossy().ends_with(".jsonl") && n.to_string_lossy() != "lru.jsonl"
        })
        .map(|e| e.metadata().unwrap().len())
        .sum();
    assert!(total <= budget, "data files {total} bytes exceed budget {budget}");
    // The most recent sweep survived: re-running it computes nothing.
    let warm = ResultStore::with_capacity(&dir, budget);
    grid(&specs, &base, lens[2], 1, Some(&warm));
    assert_eq!(warm.stats().published, 0, "most recently used sweep was evicted");
    let _ = std::fs::remove_dir_all(&dir);
}
