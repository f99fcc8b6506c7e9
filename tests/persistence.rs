//! Regression tests for the one sealed-record log under the checkpoint
//! journal, the result store's data files and the serve access log.
//! Each pins a way a record used to be lost while the three kept their
//! own readers and repair rules:
//!
//! - one non-UTF-8 byte in one journaled record made the whole journal
//!   unreadable, so every resume recomputed every cell;
//! - an access-log record appended after a torn tail was spliced onto
//!   the torn line and lost;
//! - a store record published after a torn tail was lost once its
//!   `.idx` sidecar was rebuilt.

use cmpsim::core::experiment::{
    run_cells_resilient, run_grid_resilient, run_variant, ResilienceOptions, SimLength,
};
use cmpsim::core::flatjson::JsonVal;
use cmpsim::core::journal;
use cmpsim::core::seallog::{self, SealedLog};
use cmpsim::core::store::{CellKey, ResultStore};
use cmpsim::{workload, RunResult, SimStats, SystemConfig, Variant};
use cmpsim_harness::Supervisor;
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A unique, pre-cleaned directory for one test.
fn temp_dir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("cmpsim-persistence-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// Byte offsets at which each line of `bytes` starts.
fn line_starts(bytes: &[u8]) -> Vec<usize> {
    let mut starts = vec![0];
    starts.extend(bytes.iter().enumerate().filter(|&(_, &b)| b == b'\n').map(|(i, _)| i + 1));
    starts
}

#[test]
fn non_utf8_byte_in_one_journal_record_reruns_only_that_cell() {
    const VARIANTS: [Variant; 2] = [Variant::Base, Variant::PrefetchCompression];
    let specs = vec![workload("zeus").unwrap(), workload("apsi").unwrap()];
    let base = SystemConfig::paper_default(2).with_seed(11);
    let len = SimLength { warmup: 2_000, measure: 8_000 };
    let dir = temp_dir("journal-0xff");
    let opts = ResilienceOptions {
        supervisor: Supervisor {
            threads: 2,
            deadline: None,
            retries: 0,
            backoff: Duration::from_millis(1),
        },
        journal: Some(dir.join("grid.jsonl")),
        store: None,
    };
    let fp = journal::fingerprint(&base, len);
    let sweep = || {
        let calls = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&calls);
        let out = run_cells_resilient(&specs, &base, &VARIANTS, fp, &opts, move |s, b, v| {
            counter.fetch_add(1, Ordering::SeqCst);
            run_variant(s, b, v, len)
        });
        let cells: Vec<_> = out.into_iter().map(|r| r.expect("healthy cell")).collect();
        (calls.load(Ordering::SeqCst), cells)
    };
    assert_eq!(sweep().0, specs.len() * VARIANTS.len());

    // One byte in the middle of the second cell's record (line 3).
    let path = dir.join("grid.jsonl");
    let mut bytes = fs::read(&path).unwrap();
    let starts = line_starts(&bytes);
    bytes[(starts[2] + starts[3]) / 2] = 0xff;
    fs::write(&path, &bytes).unwrap();

    let one_worker = ResilienceOptions {
        supervisor: Supervisor::with_threads(1),
        ..ResilienceOptions::default()
    };
    let serial: Vec<_> = run_grid_resilient(&specs, &base, &VARIANTS, len, &one_worker)
        .into_iter()
        .collect::<Result<_, _>>()
        .unwrap();
    // The first resume re-runs the damaged cell and journals it again;
    // the second finds every cell.
    for (resume, reruns) in [(1, 1), (2, 0)] {
        let (calls, cells) = sweep();
        assert_eq!(calls, reruns, "resume {resume}: only the damaged cell re-runs");
        assert_eq!(cells, serial, "resume {resume} diverged from the uninterrupted run");
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn access_log_record_appended_after_a_torn_tail_is_kept() {
    let dir = temp_dir("access-torn");
    let path = dir.join("access.jsonl");
    {
        let mut log = SealedLog::open(&path).unwrap();
        for req in 1..=3u64 {
            log.append(format!("{{\"conn\":1,\"req\":{req},\"elapsed_us\":{}", 100 + req)).unwrap();
        }
    }
    let full = fs::read(&path).unwrap();
    let starts = line_starts(&full);
    let last_record = starts[starts.len() - 2];
    let cut_path = dir.join("cut.jsonl");
    let id = |rec: &Vec<(String, JsonVal)>, key: &str| {
        rec.iter().find(|(k, _)| k == key).and_then(|(_, v)| v.as_u64())
    };
    for cut in last_record..full.len() {
        fs::write(&cut_path, &full[..cut]).unwrap();
        let mut log = SealedLog::open(&cut_path).unwrap();
        log.append("{\"conn\":2,\"req\":1,\"elapsed_us\":7".to_string()).unwrap();
        let got = seallog::read(&cut_path).unwrap();
        assert_eq!(got.skipped, 0, "cut at {cut}: the new record must not splice onto the tail");
        assert!(!got.torn_tail, "cut at {cut}");
        let ids: Vec<_> = got.records.iter().map(|r| (id(r, "conn"), id(r, "req"))).collect();
        let want = [(1, 1), (1, 2), (2, 1)].map(|(c, r)| (Some(c), Some(r)));
        assert_eq!(ids, want, "cut at {cut}: every intact record plus the new one");
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn store_record_published_after_a_torn_tail_survives_an_index_rebuild() {
    let dir = temp_dir("store-torn");
    let result = |cycles: u64| RunResult {
        stats: SimStats::default(),
        cycles,
        clock_ghz: 5,
        events: cycles * 2,
        retired: cycles * 3,
        host_nanos: 1,
    };
    let fp = 0x5eed;
    let a = CellKey::new("apsi", Variant::Base, 1);
    let b = CellKey::new("mgrid", Variant::Base, 1);
    ResultStore::with_capacity(&dir, u64::MAX).publish(fp, &a, &result(10)).unwrap();

    // A kill mid-append leaves half a record with no newline.
    let data = dir.join(format!("{fp:016x}.jsonl"));
    let mut bytes = fs::read(&data).unwrap();
    let record = bytes[line_starts(&bytes)[1]..].to_vec();
    bytes.extend_from_slice(&record[..record.len() / 2]);
    fs::write(&data, &bytes).unwrap();

    ResultStore::with_capacity(&dir, u64::MAX).publish(fp, &b, &result(20)).unwrap();
    let fresh = ResultStore::with_capacity(&dir, u64::MAX);
    assert_eq!(fresh.get(fp, &a), Some(result(10)));
    assert_eq!(fresh.get(fp, &b), Some(result(20)), "B was spliced onto the torn tail");
    assert_eq!(fresh.stats().corrupt_skipped, 0);
    let _ = fs::remove_dir_all(&dir);
}
