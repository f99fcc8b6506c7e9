//! Fault isolation and checkpoint/resume guarantees for the supervised
//! grid driver, plus the simulator's own runtime safety nets (forward-
//! progress watchdog, opt-in invariant checker).
//!
//! The acceptance properties from the supervision design:
//!
//! - an injected panicking / hanging / erroring cell degrades to a
//!   per-cell [`CellError`] while every other cell completes;
//! - a sweep killed mid-run and re-invoked with the same journal skips
//!   completed cells and produces results **bit-identical** to an
//!   uninterrupted sweep on one worker.

use cmpsim::core::experiment::{
    run_cells_resilient, run_grid_resilient, run_variant, GridCell, ResilienceOptions, SimLength,
};
use cmpsim::core::journal;
use cmpsim::{workload, CellError, SimError, System, SystemConfig, Variant};
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

/// Supervision policy for tests: small pool, no deadline, no retries.
fn quick_supervisor() -> Supervisor {
    Supervisor {
        threads: 4,
        deadline: None,
        retries: 0,
        backoff: Duration::from_millis(1),
    }
}

/// The uninterrupted reference: the grid driver on one worker, failing
/// fast.
fn serial(
    specs: &[cmpsim_trace::WorkloadSpec],
    base: &SystemConfig,
    len: SimLength,
) -> Vec<GridCell> {
    let opts = ResilienceOptions {
        supervisor: Supervisor::with_threads(1),
        ..ResilienceOptions::default()
    };
    run_grid_resilient(specs, base, &VARIANTS, len, &opts)
        .into_iter()
        .collect::<Result<_, _>>()
        .unwrap()
}

/// A unique, pre-cleaned journal path for one test.
fn temp_journal(name: &str) -> PathBuf {
    let path = std::env::temp_dir()
        .join(format!("cmpsim-resilience-{}-{name}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

#[test]
fn healthy_resilient_sweep_matches_serial_bit_for_bit() {
    let specs = vec![workload("zeus").unwrap(), workload("apsi").unwrap()];
    let base = small_base();
    let serial = serial(&specs, &base, short());
    let opts = ResilienceOptions { supervisor: quick_supervisor(), journal: None, store: None };
    let resilient = run_grid_resilient(&specs, &base, &VARIANTS, short(), &opts);
    let cells: Vec<_> = resilient
        .into_iter()
        .map(|r| r.expect("healthy sweep must not degrade any cell"))
        .collect();
    // RunResult derives PartialEq over every counter and every f64, so
    // this is exact equality, not tolerance-based comparison.
    assert_eq!(serial, cells);
}

#[test]
fn panicking_cell_degrades_only_itself() {
    let specs = vec![workload("zeus").unwrap(), workload("apsi").unwrap()];
    let base = small_base();
    let len = short();
    let opts = ResilienceOptions { supervisor: quick_supervisor(), journal: None, store: None };
    let out = run_cells_resilient(&specs, &base, &VARIANTS, 0, &opts, move |s, b, v| {
        if s.name == "apsi" && v == Variant::Base {
            panic!("injected fault in apsi/base");
        }
        run_variant(s, b, v, len)
    });
    assert_eq!(out.len(), specs.len() * VARIANTS.len());
    for (i, cell) in out.iter().enumerate() {
        let (spec, variant) = (&specs[i / VARIANTS.len()], VARIANTS[i % VARIANTS.len()]);
        if spec.name == "apsi" && variant == Variant::Base {
            match cell {
                Err(CellError::Panicked { workload, variant, payload, attempts }) => {
                    assert_eq!(*workload, "apsi");
                    assert_eq!(*variant, Variant::Base);
                    assert_eq!(*attempts, 1);
                    assert!(payload.contains("injected fault"), "payload: {payload}");
                }
                other => panic!("expected Panicked for apsi/base, got {other:?}"),
            }
        } else {
            assert!(cell.is_ok(), "cell {i} should have completed: {cell:?}");
        }
    }
}

#[test]
fn hanging_cell_times_out_while_others_complete() {
    let specs = vec![workload("zeus").unwrap(), workload("apsi").unwrap()];
    let base = small_base();
    let len = short();
    // The deadline must dominate an honest smoke cell even on a slow,
    // oversubscribed host (debug build, one CPU, four workers) while
    // staying far below the injected 30 s hang — 1 s is two orders of
    // magnitude of headroom in each direction.
    let opts = ResilienceOptions {
        supervisor: Supervisor {
            deadline: Some(Duration::from_secs(1)),
            ..quick_supervisor()
        },
        journal: None,
        store: None,
    };
    let t0 = std::time::Instant::now();
    let out = run_cells_resilient(&specs, &base, &VARIANTS, 0, &opts, move |s, b, v| {
        if s.name == "zeus" && v == Variant::PrefetchCompression {
            // Far past the deadline; the supervisor abandons the thread.
            std::thread::sleep(Duration::from_secs(30));
        }
        run_variant(s, b, v, len)
    });
    assert!(
        t0.elapsed() < Duration::from_secs(10),
        "the sweep must not wait for the hung cell"
    );
    let hung: Vec<_> = out.iter().filter(|c| c.is_err()).collect();
    assert_eq!(hung.len(), 1, "exactly one cell should have failed: {out:?}");
    match hung[0] {
        Err(CellError::TimedOut { workload, variant, elapsed_ms }) => {
            assert_eq!(*workload, "zeus");
            assert_eq!(*variant, Variant::PrefetchCompression);
            assert!(*elapsed_ms >= 1_000, "elapsed_ms: {elapsed_ms}");
        }
        other => panic!("expected TimedOut, got {other:?}"),
    }
}

#[test]
fn sim_error_cell_is_reported_in_place() {
    let specs = vec![workload("zeus").unwrap()];
    let base = small_base();
    let len = short();
    let opts = ResilienceOptions { supervisor: quick_supervisor(), journal: None, store: None };
    let out = run_cells_resilient(&specs, &base, &VARIANTS, 0, &opts, move |s, b, v| {
        if v == Variant::Base {
            return Err(SimError::InvariantViolation {
                cycle: 42,
                subsystem: "l2",
                detail: "injected".to_string(),
            });
        }
        run_variant(s, b, v, len)
    });
    match &out[0] {
        Err(CellError::Sim { workload, error, .. }) => {
            assert_eq!(*workload, "zeus");
            assert_eq!(
                *error,
                SimError::InvariantViolation {
                    cycle: 42,
                    subsystem: "l2",
                    detail: "injected".to_string(),
                }
            );
        }
        other => panic!("expected Sim error, got {other:?}"),
    }
    assert!(out[1].is_ok(), "the healthy cell must still complete: {:?}", out[1]);
}

#[test]
fn transient_panic_recovers_under_retry() {
    let specs = vec![workload("zeus").unwrap()];
    let base = small_base();
    let len = short();
    let variants = [Variant::Base];
    let attempts = Arc::new(AtomicUsize::new(0));
    let counter = Arc::clone(&attempts);
    let opts = ResilienceOptions {
        supervisor: Supervisor { retries: 3, ..quick_supervisor() },
        journal: None,
        store: None,
    };
    let out = run_cells_resilient(&specs, &base, &variants, 0, &opts, move |s, b, v| {
        if counter.fetch_add(1, Ordering::SeqCst) < 2 {
            panic!("transient");
        }
        run_variant(s, b, v, len)
    });
    assert!(out[0].is_ok(), "cell should succeed on the third attempt: {:?}", out[0]);
    assert_eq!(attempts.load(Ordering::SeqCst), 3, "two failures + one success");
}

/// The headline acceptance test: a sweep "killed" after finishing only
/// the first workload (simulated by running the resilient driver over a
/// prefix of the spec list, journaling as it goes) resumes under the
/// full spec list with the same journal, re-runs **only** the missing
/// cells, and the assembled grid is bit-identical to an uninterrupted
/// serial sweep.
#[test]
fn killed_sweep_resumes_from_journal_bit_identically() {
    let specs = vec![
        workload("zeus").unwrap(),
        workload("apsi").unwrap(),
        workload("art").unwrap(),
    ];
    let base = small_base();
    let len = short();
    let path = temp_journal("resume");
    let fp = journal::fingerprint(&base, len);
    let opts = ResilienceOptions {
        supervisor: quick_supervisor(),
        journal: Some(path.clone()),
        store: None,
    };

    let calls = Arc::new(AtomicUsize::new(0));
    let make_cell_fn = |calls: Arc<AtomicUsize>| {
        move |s: &cmpsim_trace::WorkloadSpec, b: &SystemConfig, v: Variant| {
            calls.fetch_add(1, Ordering::SeqCst);
            run_variant(s, b, v, len)
        }
    };

    // Phase 1: the "interrupted" sweep — only the first workload finishes
    // before the (simulated) kill. Its cells land in the journal.
    let partial = run_cells_resilient(
        &specs[..1],
        &base,
        &VARIANTS,
        fp,
        &opts,
        make_cell_fn(Arc::clone(&calls)),
    );
    assert!(partial.iter().all(Result::is_ok));
    assert_eq!(calls.load(Ordering::SeqCst), VARIANTS.len());

    // Phase 2: re-invoke over the full sweep with the same journal. The
    // journaled cells must be skipped, not re-simulated.
    let resumed = run_cells_resilient(
        &specs,
        &base,
        &VARIANTS,
        fp,
        &opts,
        make_cell_fn(Arc::clone(&calls)),
    );
    assert_eq!(
        calls.load(Ordering::SeqCst),
        specs.len() * VARIANTS.len(),
        "resume must re-run only the cells missing from the journal"
    );

    // The assembled grid equals an uninterrupted serial sweep, exactly.
    let serial = serial(&specs, &base, len);
    let cells: Vec<_> = resumed.into_iter().map(|r| r.unwrap()).collect();
    assert_eq!(serial, cells, "resumed grid diverged from the uninterrupted run");

    // Phase 3: a third invocation re-runs nothing at all.
    let replayed = run_cells_resilient(
        &specs,
        &base,
        &VARIANTS,
        fp,
        &opts,
        make_cell_fn(Arc::clone(&calls)),
    );
    assert_eq!(calls.load(Ordering::SeqCst), specs.len() * VARIANTS.len());
    let cells: Vec<_> = replayed.into_iter().map(|r| r.unwrap()).collect();
    assert_eq!(serial, cells);

    let _ = std::fs::remove_file(&path);
}

/// Kill-mid-append crash safety, exhaustively: truncating the journal at
/// **every byte offset** (simulating a kill at any instant of a write)
/// must never lose an intact cell, never resurrect a torn one, and never
/// break the loader.
#[test]
fn journal_truncated_at_every_byte_offset_recovers_all_intact_cells() {
    let specs = vec![workload("zeus").unwrap(), workload("apsi").unwrap()];
    let base = small_base();
    let len = short();
    let path = temp_journal("torn-every-offset");
    let fp = journal::fingerprint(&base, len);
    let opts = ResilienceOptions {
        supervisor: quick_supervisor(),
        journal: Some(path.clone()),
        store: None,
    };
    let full = run_cells_resilient(&specs, &base, &VARIANTS, fp, &opts, move |s, b, v| {
        run_variant(s, b, v, len)
    });
    assert!(full.iter().all(Result::is_ok));
    let bytes = std::fs::read(&path).expect("journal written");
    assert_eq!(
        bytes.iter().filter(|&&b| b == b'\n').count(),
        1 + specs.len() * VARIANTS.len(),
        "header + one line per cell"
    );

    let torn = temp_journal("torn-every-offset-cut");
    for cut in 0..bytes.len() {
        let prefix = &bytes[..cut];
        std::fs::write(&torn, prefix).unwrap();
        let j = journal::Journal::new(&torn, fp);
        let snap = j.load().unwrap_or_else(|e| panic!("load failed at cut {cut}: {e}"));
        let complete_lines = prefix.iter().filter(|&&b| b == b'\n').count();
        let expected = complete_lines.saturating_sub(1); // header eats one line
        assert_eq!(
            snap.entries.len(),
            expected,
            "cut at byte {cut}: every cell whose line fully reached disk must survive"
        );
        assert!(snap.skipped.is_empty(), "cut at {cut}: a torn tail is repair, not corruption");
        // The repair is physical: the file now ends at a record boundary,
        // so appending resumes cleanly.
        let on_disk = std::fs::read(&torn).unwrap_or_default();
        assert!(
            on_disk.is_empty() || on_disk.ends_with(b"\n"),
            "cut at {cut}: repaired file must end on a record boundary"
        );
    }
    let _ = std::fs::remove_file(&torn);

    // Driver-level resume across a mid-record kill: truncate into the
    // last record, then re-run the sweep. Only the torn cell re-runs and
    // the assembled grid is bit-identical to the uninterrupted serial one.
    let last_line_start = bytes[..bytes.len() - 1]
        .iter()
        .rposition(|&b| b == b'\n')
        .unwrap()
        + 1;
    let cut = last_line_start + (bytes.len() - 1 - last_line_start) / 2;
    std::fs::write(&path, &bytes[..cut]).unwrap();
    let calls = Arc::new(AtomicUsize::new(0));
    let counter = Arc::clone(&calls);
    let resumed = run_cells_resilient(&specs, &base, &VARIANTS, fp, &opts, move |s, b, v| {
        counter.fetch_add(1, Ordering::SeqCst);
        run_variant(s, b, v, len)
    });
    assert_eq!(calls.load(Ordering::SeqCst), 1, "only the torn cell re-runs");
    let serial = serial(&specs, &base, len);
    let cells: Vec<_> = resumed.into_iter().map(|r| r.unwrap()).collect();
    assert_eq!(serial, cells, "post-repair resume diverged from the uninterrupted run");
    let _ = std::fs::remove_file(&path);
}

/// A cell that keeps failing is journaled each time; once it reaches
/// [`journal::MAX_CELL_FAILURES`] journaled failures, resume quarantines
/// it — an explicit [`CellError::Quarantined`], zero re-runs — until the
/// journal is deleted.
#[test]
fn repeatedly_failing_cell_is_quarantined_on_resume() {
    let specs = vec![workload("zeus").unwrap()];
    let base = small_base();
    let len = short();
    let variants = [Variant::Base];
    let path = temp_journal("quarantine");
    let fp = journal::fingerprint(&base, len);
    let opts = ResilienceOptions {
        supervisor: quick_supervisor(),
        journal: Some(path.clone()),
        store: None,
    };
    let calls = Arc::new(AtomicUsize::new(0));
    let failing = |calls: Arc<AtomicUsize>| {
        move |_: &cmpsim_trace::WorkloadSpec, _: &SystemConfig, _: Variant| {
            calls.fetch_add(1, Ordering::SeqCst);
            Err(SimError::InvariantViolation {
                cycle: 1,
                subsystem: "l2",
                detail: "injected persistent failure".to_string(),
            })
        }
    };

    // Strikes 1 and 2: the cell runs (and fails) each time.
    for strike in 1..=journal::MAX_CELL_FAILURES {
        let out = run_cells_resilient(
            &specs,
            &base,
            &variants,
            fp,
            &opts,
            failing(Arc::clone(&calls)),
        );
        assert!(
            matches!(&out[0], Err(CellError::Sim { .. })),
            "strike {strike} should surface the SimError: {:?}",
            out[0]
        );
        assert_eq!(calls.load(Ordering::SeqCst) as u32, strike);
    }

    // Strike 3: quarantined — the cell function must not even be called.
    let out = run_cells_resilient(
        &specs,
        &base,
        &variants,
        fp,
        &opts,
        failing(Arc::clone(&calls)),
    );
    match &out[0] {
        Err(CellError::Quarantined { workload, variant, failures }) => {
            assert_eq!(*workload, "zeus");
            assert_eq!(*variant, Variant::Base);
            assert_eq!(*failures, journal::MAX_CELL_FAILURES);
        }
        other => panic!("expected Quarantined, got {other:?}"),
    }
    assert_eq!(
        calls.load(Ordering::SeqCst) as u32,
        journal::MAX_CELL_FAILURES,
        "a quarantined cell must not re-run"
    );
    let msg = out[0].as_ref().unwrap_err().to_string();
    assert!(msg.contains("quarantined"), "error should explain itself: {msg}");
    assert!(msg.contains("delete the journal"), "and name the remedy: {msg}");

    // Deleting the journal lifts the quarantine.
    std::fs::remove_file(&path).unwrap();
    let out = run_cells_resilient(
        &specs,
        &base,
        &variants,
        fp,
        &opts,
        failing(Arc::clone(&calls)),
    );
    assert!(matches!(&out[0], Err(CellError::Sim { .. })));
    assert_eq!(calls.load(Ordering::SeqCst) as u32, journal::MAX_CELL_FAILURES + 1);
    let _ = std::fs::remove_file(&path);
}

/// A journal written under one sweep definition must not poison a
/// different one: changing the fingerprint resets the journal and every
/// cell re-runs.
#[test]
fn changed_fingerprint_invalidates_the_journal() {
    let specs = vec![workload("zeus").unwrap()];
    let base = small_base();
    let len = short();
    let path = temp_journal("fingerprint");
    let opts = ResilienceOptions {
        supervisor: quick_supervisor(),
        journal: Some(path.clone()),
        store: None,
    };
    let calls = Arc::new(AtomicUsize::new(0));
    for fp in [1u64, 2u64] {
        let counter = Arc::clone(&calls);
        let out = run_cells_resilient(&specs, &base, &VARIANTS, fp, &opts, move |s, b, v| {
            counter.fetch_add(1, Ordering::SeqCst);
            run_variant(s, b, v, len)
        });
        assert!(out.iter().all(Result::is_ok));
    }
    assert_eq!(
        calls.load(Ordering::SeqCst),
        2 * VARIANTS.len(),
        "a fingerprint mismatch must discard the stale journal"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn livelock_watchdog_trips_on_tiny_budget_and_reports_diagnostics() {
    let spec = workload("zeus").unwrap();
    // A 50-cycle budget is far below a 400-cycle memory stall, so any
    // real workload trips the watchdog almost immediately.
    let cfg = small_base().with_livelock_budget(50);
    let mut sys = System::new(cfg, &spec);
    match sys.run(1_000, 4_000) {
        Err(SimError::Livelock { cycle, window, diagnostic, recent_events }) => {
            assert!(window >= 50, "window: {window}");
            assert!(cycle >= window);
            assert!(diagnostic.contains("core"), "diagnostic should dump per-core state");
            // Tracing is off, so the watchdog's emergency recorder must
            // have armed and captured the final event window.
            assert!(
                !recent_events.is_empty(),
                "emergency flight recorder should capture the last events"
            );
        }
        other => panic!("expected Livelock with a 50-cycle budget, got {other:?}"),
    }
}

#[test]
fn livelock_watchdog_disabled_with_zero_budget() {
    let spec = workload("zeus").unwrap();
    let cfg = small_base().with_livelock_budget(0);
    let mut sys = System::new(cfg, &spec);
    sys.run(1_000, 4_000).expect("budget 0 disables the watchdog");
}

#[test]
fn healthy_run_passes_watchdog_and_invariant_checks() {
    // Invariants are forced on (field, not env, to avoid races with
    // other tests mutating the environment) across base and the full
    // compression + prefetching stack.
    for variant in [Variant::Base, Variant::PrefetchCompression] {
        let spec = workload("oltp").unwrap();
        let cfg = variant.apply(small_base()).with_invariant_checks(true);
        let mut sys = System::new(cfg, &spec);
        let result = sys
            .run(2_000, 10_000)
            .unwrap_or_else(|e| panic!("healthy {variant:?} run failed checks: {e}"));
        assert!(result.stats.instructions > 0);
    }
}
