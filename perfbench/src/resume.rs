//! `resume_sweep`: the supervised, journaled, store-backed grid driver,
//! run three ways per pass — cold, resumed from the same journal, and
//! with a fresh journal on the warm store.

use crate::cells::{layer_metrics, quota_problem, run_cell, sim_mips, CellRun};
use crate::common::{
    check_pin, fastest_rate, fastest_time, median, quantile, secs, vm_hwm_mib, Report, WorkDir,
};
use crate::replay;
use crate::sim::Grid;
use cmpsim_core::experiment::{run_cells_resilient, GridCell, ResilienceOptions, SimLength};
use cmpsim_core::journal::{self, Journal, JournalEntry};
use cmpsim_core::report::grid_digest;
use cmpsim_core::{CellError, CellKey, CodecKind, ResultStore, Variant};
use cmpsim_harness::Supervisor;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Supervised workers (the benchmark host's `nproc`).
const WORKERS: usize = 2;

pub const RESUME_SWEEP: Grid = Grid {
    name: "resume_sweep",
    workloads: &[],
    variants: &[Variant::Base, Variant::PrefetchCompression],
    codec: CodecKind::Fpc,
    cores: 2,
    len: SimLength {
        warmup: 5_000,
        measure: 20_000,
    },
};

type Timings = Arc<Mutex<Vec<CellRun>>>;

/// One `run_cells_resilient` call with the same cell function as
/// `run_grid_resilient`, timed at `System::new` and `System::run`.
fn sweep(
    g: &Grid,
    seed: u64,
    opts: &ResilienceOptions,
    timings: &Timings,
) -> Vec<Result<GridCell, CellError>> {
    let base = g.base(seed);
    let len = g.len;
    let t = Arc::clone(timings);
    run_cells_resilient(
        &g.specs(),
        &base,
        g.variants,
        journal::fingerprint(&base, len),
        opts,
        move |spec, base, variant| {
            let cell = run_cell(spec, base, variant, len)?;
            let result = cell.result.clone();
            t.lock()
                .expect("timing lock poisoned by a panicking cell")
                .push(cell);
            Ok(result)
        },
    )
}

struct Pass {
    wall_s: f64,
    cold_s: f64,
    cells: Vec<CellRun>,
    digests: [String; 3],
}

/// Runs the three sweeps in `dir`, checking every cell.
fn run_pass(g: &Grid, seed: u64, dir: &Path, r: &mut Report) -> (Pass, Arc<ResultStore>) {
    let store = ResultStore::open(dir.join("store"));
    let supervised = ResilienceOptions {
        supervisor: Supervisor::with_threads(WORKERS),
        ..ResilienceOptions::default()
    };
    let first = supervised
        .clone()
        .with_store(Arc::clone(&store))
        .with_journal(dir.join("first.jsonl"));
    let fresh = supervised
        .with_store(Arc::clone(&store))
        .with_journal(dir.join("fresh.jsonl"));
    let timings: Timings = Arc::default();
    let t0 = Instant::now();
    let cold = sweep(g, seed, &first, &timings);
    let cold_s = secs(t0);
    let resumed = sweep(g, seed, &first, &timings);
    let mirrored = sweep(g, seed, &fresh, &timings);
    let wall_s = secs(t0);
    let mut digests: [String; 3] = Default::default();
    for (i, outcome) in [cold, resumed, mirrored].into_iter().enumerate() {
        let mut ok = Vec::new();
        for cell in outcome {
            match cell {
                Ok(c) => {
                    r.check(None);
                    ok.push(c);
                }
                Err(e) => r.check(Some(e.to_string())),
            }
        }
        digests[i] = grid_digest(&ok);
    }
    let cells = std::mem::take(&mut *timings.lock().expect("timing lock"));
    for c in &cells {
        if let Some(p) = quota_problem(c, g.cores, g.len) {
            r.failed += 1;
            r.problems.push(p);
        }
    }
    (
        Pass {
            wall_s,
            cold_s,
            cells,
            digests,
        },
        store,
    )
}

/// Digest of one pass's cold sweep, for the record mode.
pub fn digest(seed: u64) -> std::io::Result<String> {
    let work = WorkDir::new("record-resume")?;
    let (pass, _) = run_pass(&RESUME_SWEEP, seed, work.path(), &mut Report::default());
    Ok(pass.digests[0].clone())
}

/// Median host microseconds per call of `f` over `items`.
fn p50_us<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    let us: Vec<f64> = items
        .iter()
        .map(|x| {
            let t0 = Instant::now();
            f(x);
            secs(t0) * 1e6
        })
        .collect();
    quantile(&us, 0.5)
}

/// Median microseconds of a `ResultStore::get` on a fresh handle over
/// `store_dir` (each get decodes from disk) and of a publish into an
/// empty store at `scratch_dir`, over `entries`.
pub fn store_costs(
    store_dir: &Path,
    scratch_dir: &Path,
    fp: u64,
    entries: &[JournalEntry],
) -> (f64, f64) {
    let key = |e: &JournalEntry| CellKey::new(e.workload.clone(), e.variant, e.seed);
    let reopened = ResultStore::open(store_dir);
    let get_us = p50_us(entries, |e| {
        std::hint::black_box(reopened.get(fp, &key(e)));
    });
    let scratch = ResultStore::open(scratch_dir);
    let publish_us = p50_us(entries, |e| {
        scratch
            .publish(fp, &key(e), &e.result)
            .expect("replay publish")
    });
    (get_us, publish_us)
}

/// Store and journal replays over a finished pass directory.
struct Persistence {
    get_us: f64,
    publish_us: f64,
    append_us: f64,
    load_ms: f64,
    journal_bytes: f64,
    hit_rate: f64,
    resident_kib: f64,
}

fn persistence(
    g: &Grid,
    seed: u64,
    dir: &Path,
    cells: &[CellRun],
    store: &ResultStore,
) -> Persistence {
    let hit_rate = store.stats().hit_rate_pct() / 100.0;
    let resident_kib = store.resident_bytes() as f64 / 1024.0;
    let base = g.base(seed);
    let fp = journal::fingerprint(&base, g.len);
    let entries: Vec<JournalEntry> = cells
        .iter()
        .map(|c| JournalEntry {
            workload: c.workload.to_string(),
            variant: c.variant,
            seed,
            result: c.result.clone(),
        })
        .collect();
    let (get_us, publish_us) =
        store_costs(&dir.join("store"), &dir.join("replay-store"), fp, &entries);
    let replay_journal = Journal::new(dir.join("replay.jsonl"), fp);
    let append_us = p50_us(&entries, |e| {
        replay_journal.append(e).expect("replay append")
    });
    let first = Journal::new(dir.join("first.jsonl"), fp);
    let t0 = Instant::now();
    let loaded = first.load().map(|s| s.entries.len()).unwrap_or(0);
    let load_ms = secs(t0) * 1e3;
    std::hint::black_box(loaded);
    let journal_bytes = std::fs::metadata(first.path())
        .map(|m| m.len() as f64)
        .unwrap_or(0.0);
    Persistence {
        get_us,
        publish_us,
        append_us,
        load_ms,
        journal_bytes,
        hit_rate,
        resident_kib,
    }
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Report {
    let g = &RESUME_SWEEP;
    let mut r = Report::default();
    let work = match WorkDir::new(g.name) {
        Ok(w) => w,
        Err(e) => {
            r.check(Some(format!("cannot create work dir: {e}")));
            return r;
        }
    };
    let pin_problem = |d: &str| check_pin(g.name, seed, d);
    let t_run = Instant::now();
    let (mut walls, mut setups, mut mips, mut overheads, mut supervise) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut all = Vec::new();
    let mut reference: Option<String> = None;
    let mut persist = Vec::new();
    let mut traced_extra_s = 0.0;
    let mut first_pass_rss = None;
    while walls.is_empty() || secs(t_run) < seconds {
        let dir = work.path().join(format!("pass-{}", walls.len()));
        let (pass, store) = run_pass(g, seed, &dir, &mut r);
        let [cold, resumed, mirrored] = &pass.digests;
        let want = reference.get_or_insert_with(|| cold.clone()).clone();
        let mut problems = vec![];
        if walls.is_empty() {
            problems.extend(pin_problem(cold));
        }
        for (label, d) in [("cold", cold), ("resumed", resumed), ("mirrored", mirrored)] {
            if *d != want {
                problems.push(format!("{label} sweep digest {d} != {want}"));
            }
        }
        for p in problems {
            r.failed += (g.specs().len() * g.variants.len()) as u64;
            r.problems.push(p);
        }
        let new_s: f64 = pass.cells.iter().map(|c| c.new_s).sum();
        let busy_s: f64 =
            pass.cells.iter().map(|c| c.new_s + c.run_s).sum::<f64>() / WORKERS as f64;
        // The peak through the first pass only: each pass's exited worker
        // threads leave the allocator holding 0-8 MiB more, so the
        // whole-run peak grows with the run's length.
        first_pass_rss = first_pass_rss.or_else(|| vm_hwm_mib(None));
        walls.push(pass.wall_s);
        setups.push(new_s);
        mips.push(sim_mips(&pass.cells));
        overheads.push((pass.wall_s - busy_s) * 1e3);
        supervise.push((pass.cold_s - busy_s) * 1e3 / pass.cells.len().max(1) as f64);
        if trace {
            let t0 = Instant::now();
            persist.push(persistence(g, seed, &dir, &pass.cells, &store));
            traced_extra_s += secs(t0);
            all.extend(pass.cells);
        }
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }
    let untraced_s = secs(t_run) - traced_extra_s;
    r.host_times(fastest_rate(&mips), fastest_time(&walls), median(&setups));
    r.e2e("peak_rss_mib", first_pass_rss.unwrap_or(0.0), "MiB");
    if trace {
        let (costs, bad) = replay::run(&g.specs(), seed, g.codec);
        for p in bad {
            r.check(Some(p));
        }
        layer_metrics(&mut r, &all, walls.len(), g.codec, &costs);
        r.layer("driver.overhead_ms", median(&overheads), "ms");
        r.layer("driver.supervise_ms_per_cell", median(&supervise), "ms");
        let field = |f: fn(&Persistence) -> f64| median(&persist.iter().map(f).collect::<Vec<_>>());
        r.layer("store.get_us_p50", field(|p| p.get_us), "us");
        r.layer("store.publish_us_p50", field(|p| p.publish_us), "us");
        let snap = cmpsim_harness::metrics::global().snapshot();
        let wait = snap
            .histogram("store_lease_wait_nanos")
            .map(|h| h.quantile(0.5))
            .unwrap_or(0);
        r.layer("store.lease_wait_us_p50", wait as f64 / 1e3, "us");
        r.layer("store.hit_rate", field(|p| p.hit_rate), "ratio");
        r.layer("store.resident_kib", field(|p| p.resident_kib), "KiB");
        let cells_per_pass = (g.specs().len() * g.variants.len()) as f64;
        r.layer("journal.append_us", field(|p| p.append_us), "us");
        r.layer("journal.load_ms", field(|p| p.load_ms), "ms");
        r.layer(
            "journal.bytes_per_cell",
            field(|p| p.journal_bytes) / cells_per_pass,
            "B",
        );
        r.layer(
            "trace_overhead",
            (untraced_s + traced_extra_s + costs.total_s) / untraced_s,
            "ratio",
        );
    }
    r
}
