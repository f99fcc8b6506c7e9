//! The experiment grid driver: runs the paper's configuration grid
//! (`workloads × variants`) on the supervised job executor, with
//! per-cell fault isolation, checkpoint/resume and result-store reuse
//! ([`run_cells_resilient`], and its [`run_variant`] shorthand
//! [`run_grid_resilient`]), plus multi-seed confidence intervals.

use crate::config::{SystemConfig, Variant};
use crate::error::{CellError, SimError};
use crate::journal::{self, Journal, JournalEntry, JournalSnapshot};
use crate::metrics;
use crate::stats::RunResult;
use crate::store::{CellKey, Lease, ResultStore};
use crate::system::System;
use cmpsim_harness::metrics as svc_metrics;
use cmpsim_harness::metrics::{Counter, Gauge, Histogram};
use cmpsim_harness::telemetry::{CellState, GridProgress, Heartbeat};
use cmpsim_harness::{knobs, run_supervised, JobOutcome, Supervisor};
use cmpsim_trace::WorkloadSpec;
use std::collections::HashMap;
use std::io::IsTerminal;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Service-metric handles for the grid driver, registered in the global
/// [`svc_metrics`] registry under `grid_*` names. Observe-only, like
/// [`GridProgress`]: recording feeds nothing back into scheduling or
/// results.
struct GridMetrics {
    computed: Counter,
    cached: Counter,
    failed: Counter,
    skipped: Counter,
    retries: Counter,
    quarantined: Counter,
    compute_nanos: Histogram,
    queue_depth: Gauge,
}

impl GridMetrics {
    fn register() -> GridMetrics {
        let r = svc_metrics::global();
        GridMetrics {
            computed: r.counter("grid_cells_computed"),
            cached: r.counter("grid_cells_cached"),
            failed: r.counter("grid_cells_failed"),
            skipped: r.counter("grid_cells_skipped"),
            retries: r.counter("grid_retries"),
            quarantined: r.counter("grid_cells_quarantined"),
            compute_nanos: r.histogram("grid_cell_compute_nanos"),
            queue_depth: r.gauge("grid_queue_depth"),
        }
    }
}

/// Simulation length preset: instructions per core for warmup and
/// measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimLength {
    /// Warmup instructions per core (stats frozen).
    pub warmup: u64,
    /// Measured instructions per core (fixed work).
    pub measure: u64,
}

impl SimLength {
    /// Length used by the figure/table harnesses: long enough to warm the
    /// 4 MB L2 (capacity effects need ~1M instructions per core of
    /// warmup) and exercise steady state, short enough for minutes-scale
    /// regeneration of all results.
    pub fn standard() -> Self {
        SimLength { warmup: 1_200_000, measure: 600_000 }
    }

    /// Very short runs for integration tests.
    pub fn smoke() -> Self {
        SimLength { warmup: 20_000, measure: 60_000 }
    }
}

/// Runs one `(workload, variant)` cell and returns the measured result.
///
/// # Errors
///
/// Propagates [`SimError`] from [`System::run`] (livelock watchdog,
/// invariant checker).
pub fn run_variant(
    spec: &WorkloadSpec,
    base: &SystemConfig,
    variant: Variant,
    len: SimLength,
) -> Result<RunResult, SimError> {
    let cfg = variant.apply(base.clone());
    let mut sys = System::new(cfg, spec);
    sys.run(len.warmup, len.measure)
}

/// Results for a set of variants over one workload (single seed).
#[derive(Debug)]
pub struct VariantGrid {
    results: HashMap<Variant, RunResult>,
}

impl VariantGrid {
    /// Assembles a grid from already-computed `(variant, result)` cells —
    /// e.g. one workload's slice of a [`run_grid_resilient`] sweep.
    pub fn from_cells(cells: impl IntoIterator<Item = (Variant, RunResult)>) -> Self {
        VariantGrid { results: cells.into_iter().collect() }
    }

    /// Runs every variant in `variants` for `spec`: a one-workload
    /// [`run_grid_resilient`] sweep with default options.
    ///
    /// # Errors
    ///
    /// The first failing cell, in `variants` order.
    pub fn run(
        spec: &WorkloadSpec,
        base: &SystemConfig,
        variants: &[Variant],
        len: SimLength,
    ) -> Result<Self, CellError> {
        let opts = ResilienceOptions::default();
        let cells = run_grid_resilient(std::slice::from_ref(spec), base, variants, len, &opts);
        let results = cells.into_iter().map(|c| c.map(|c| (c.variant, c.result)));
        Ok(VariantGrid { results: results.collect::<Result<_, _>>()? })
    }

    /// The result for a variant, if it was part of the grid. Use this in
    /// report/bench code that tolerates partial grids (e.g. cells lost to
    /// a [`CellError`] in a resilient sweep).
    pub fn try_get(&self, v: Variant) -> Option<&RunResult> {
        self.results.get(&v)
    }

    /// The result for a variant.
    ///
    /// # Panics
    ///
    /// Panics if the variant was not part of the grid; [`try_get`]
    /// (Self::try_get) is the non-panicking form.
    pub fn get(&self, v: Variant) -> &RunResult {
        self.try_get(v).unwrap_or_else(|| panic!("variant {v} not in grid"))
    }

    /// `Speedup(v)` relative to the grid's base run.
    pub fn speedup(&self, v: Variant) -> f64 {
        metrics::speedup(self.get(Variant::Base), self.get(v))
    }

    /// Percentage improvement of `v` over base.
    pub fn speedup_pct(&self, v: Variant) -> f64 {
        metrics::speedup_pct(self.get(Variant::Base), self.get(v))
    }

    /// EQ 5 interaction between prefetching and compression, from the
    /// grid's Pf, Compr and Pf+Compr cells.
    pub fn pf_compr_interaction(&self) -> f64 {
        metrics::interaction(
            self.speedup(Variant::Prefetch),
            self.speedup(Variant::BothCompression),
            self.speedup(Variant::PrefetchCompression),
        )
    }
}

/// One `(workload, variant)` cell of an experiment grid, with its result.
#[derive(Debug, Clone, PartialEq)]
pub struct GridCell {
    /// Workload name as the paper prints it.
    pub workload: &'static str,
    /// Configuration variant this cell ran.
    pub variant: Variant,
    /// Seed the cell ran with (from the base configuration).
    pub seed: u64,
    /// Measured result.
    pub result: RunResult,
}

/// Policy for a grid sweep: how cells are supervised and where (if
/// anywhere) they are checkpointed and cached. The default runs on
/// [`default_threads`](cmpsim_harness::supervise::default_threads)
/// workers with neither; `Supervisor::with_threads(1)` is the serial
/// sweep.
#[derive(Debug, Clone, Default)]
pub struct ResilienceOptions {
    /// Worker count, per-cell deadline (the `CMPSIM_CELL_DEADLINE_MS`
    /// knob), and retry policy.
    pub supervisor: Supervisor,
    /// Checkpoint journal path; `None` disables checkpointing.
    pub journal: Option<PathBuf>,
    /// Content-addressed result store consulted before scheduling each
    /// cell and fed as cells complete; `None` disables store reuse.
    /// Unlike the journal (one sweep's checkpoint), the store is shared
    /// across sweeps, configs and processes.
    pub store: Option<Arc<ResultStore>>,
}

impl ResilienceOptions {
    /// Returns a copy journaling to `path`.
    pub fn with_journal(mut self, path: impl Into<PathBuf>) -> Self {
        self.journal = Some(path.into());
        self
    }

    /// Returns a copy consulting (and feeding) `store`.
    pub fn with_store(mut self, store: Arc<ResultStore>) -> Self {
        self.store = Some(store);
        self
    }
}

/// Runs the `workloads × variants` grid with [`run_variant`] as the cell
/// function: [`run_cells_resilient`] under the sweep's structural
/// [`journal::fingerprint`]. Results come back in row-major order (all
/// variants of the first workload, then the second, ...); with
/// `all_workloads()` and the four headline variants this is the paper's
/// 8×4 evaluation sweep.
pub fn run_grid_resilient(
    specs: &[WorkloadSpec],
    base: &SystemConfig,
    variants: &[Variant],
    len: SimLength,
    opts: &ResilienceOptions,
) -> Vec<Result<GridCell, CellError>> {
    run_cells_resilient(
        specs,
        base,
        variants,
        journal::fingerprint(base, len),
        opts,
        move |spec, base, variant| run_variant(spec, base, variant, len),
    )
}

/// The grid driver: runs `cell_fn` over every `(workload, variant)` cell
/// on `opts.supervisor`'s workers and returns one result per cell, in
/// row-major order. A panicking, hanging or [`SimError`]-failing cell
/// degrades to an `Err` in its slot while every other cell completes;
/// callers that want fail-fast collect into `Result<Vec<GridCell>, _>`,
/// which yields the first failing cell in row-major order.
///
/// Determinism contract: every cell is an independent pure function of
/// `(spec, base, variant)`: each simulation owns its RNG streams (seeded
/// from `base.seed`), its caches, and its counters, and no state is
/// shared between cells. Scheduling only changes *when* a cell runs,
/// never *what* it computes, so the grid is bit-identical at any thread
/// count, with or without a deadline (`tests/determinism.rs` asserts
/// this at 1, 2 and 8 threads).
///
/// Before scheduling, each cell is looked up in this order, and only
/// the cells found nowhere are computed:
///
/// 1. `opts.journal`: cells this sweep already completed are reused, and
///    cells it journaled as failing [`journal::MAX_CELL_FAILURES`]
///    times are quarantined. Completed and failed cells are appended *as
///    they finish*, so a sweep killed mid-run resumes where it left off.
///    `fingerprint` guards the journal against resuming under a
///    different sweep definition.
/// 2. `opts.store`, under `fingerprint`: a hit is never scheduled, and is
///    mirrored into the journal so a later resume stays complete even
///    without the store. A scheduled cell first takes a store lease, so
///    overlapping sweeps sharing the store compute each shared cell
///    exactly once, and computed cells are published back. The store is
///    bit-inert: by the contract above, a stored result is the exact
///    bytes the cell would recompute.
///
/// `tests/resilience.rs` and `tests/store.rs` assert these properties.
/// The cell function is a parameter so tests can inject faulty cells
/// (panics, hangs, errors).
pub fn run_cells_resilient<F>(
    specs: &[WorkloadSpec],
    base: &SystemConfig,
    variants: &[Variant],
    fingerprint: u64,
    opts: &ResilienceOptions,
    cell_fn: F,
) -> Vec<Result<GridCell, CellError>>
where
    F: Fn(&WorkloadSpec, &SystemConfig, Variant) -> Result<RunResult, SimError>
        + Send
        + Sync
        + 'static,
{
    let journal = opts.journal.as_ref().map(|p| Journal::new(p, fingerprint));
    let mut snapshot = journal.as_ref().map(load_journal).unwrap_or_default();
    let mut completed: HashMap<(String, Variant), RunResult> = HashMap::new();
    for e in std::mem::take(&mut snapshot.entries) {
        if e.seed == base.seed {
            completed.insert((e.workload, e.variant), e.result);
        }
    }

    let n = specs.len() * variants.len();
    // Progress is observability only: workers mark cells with relaxed
    // atomics, the heartbeat renders to stderr, and nothing feeds back
    // into the results.
    let progress = GridProgress::new(n, opts.supervisor.threads.max(1).min(n.max(1)));
    let sweep = Arc::new(Sweep {
        fingerprint,
        seed: base.seed,
        journal: journal.map(Mutex::new),
        store: opts.store.clone(),
        progress: Arc::new(progress),
        metrics: GridMetrics::register(),
    });
    // The heartbeat defaults to on only when stderr is a terminal, so
    // tests and CI logs stay clean.
    let heartbeat = knobs()
        .progress
        .unwrap_or_else(|| std::io::stderr().is_terminal())
        .then(|| Heartbeat::start(Arc::clone(&sweep.progress)));
    let cell_fn = Arc::new(cell_fn);
    let mut out: Vec<Option<Result<GridCell, CellError>>> = Vec::with_capacity(n);
    let mut jobs = Vec::new();
    let mut scheduled: Vec<(usize, &'static str, Variant)> = Vec::new();
    for spec in specs {
        for &variant in variants {
            let idx = out.len();
            let cell = |result| GridCell { workload: spec.name, variant, seed: base.seed, result };
            let stored = || {
                let store = sweep.store.as_ref()?;
                store.get(fingerprint, &CellKey::new(spec.name, variant, base.seed))
            };
            let ready = if let Some(result) = completed.get(&(spec.name.to_string(), variant)) {
                sweep.progress.cell_skipped(idx);
                sweep.metrics.skipped.inc();
                Some(Ok(cell(result.clone())))
            } else if let Some(failures) = snapshot.quarantined(spec.name, variant, base.seed) {
                sweep.progress.cell_skipped(idx);
                sweep.metrics.quarantined.inc();
                Some(Err(CellError::Quarantined { workload: spec.name, variant, failures }))
            } else if let Some(result) = stored() {
                sweep.cached(idx, spec.name, variant, &result);
                Some(Ok(cell(result)))
            } else {
                scheduled.push((idx, spec.name, variant));
                let (sweep, cell_fn) = (Arc::clone(&sweep), Arc::clone(&cell_fn));
                let (spec, base) = (spec.clone(), base.clone());
                jobs.push(move || sweep.run_cell(idx, &spec, &base, variant, &*cell_fn));
                None
            };
            out.push(ready);
        }
    }

    sweep.metrics.queue_depth.add(jobs.len() as u64);
    let outcomes = run_supervised(&opts.supervisor, jobs);
    for ((slot, workload, variant), outcome) in scheduled.into_iter().zip(outcomes) {
        // Panicked/timed-out jobs never reached their own `cell_finished`;
        // settle them here so the final status line accounts for every
        // cell. (An abandoned timed-out thread may still be running, but
        // progress is display-only state and feeds nothing back.)
        if !matches!(
            sweep.progress.state(slot),
            CellState::Done | CellState::Failed | CellState::Cached
        ) {
            sweep.progress.cell_finished(slot, false, 0, 0);
            sweep.metrics.failed.inc();
            sweep.metrics.queue_depth.sub(1);
        }
        let resolved = match outcome {
            JobOutcome::Ok(Ok(result)) => {
                Ok(GridCell { workload, variant, seed: base.seed, result })
            }
            JobOutcome::Ok(Err(error)) => Err(CellError::Sim { workload, variant, error }),
            JobOutcome::Panicked { payload, attempts } => {
                Err(CellError::Panicked { workload, variant, payload, attempts })
            }
            JobOutcome::TimedOut { elapsed } => Err(CellError::TimedOut {
                workload,
                variant,
                elapsed_ms: elapsed.as_millis() as u64,
            }),
        };
        if let (Err(err), Some(j)) = (&resolved, &sweep.journal) {
            // Journal the failure so repeated offenders are quarantined
            // on the next resume instead of retried forever.
            if let Err(e) = lock(j).append_failure(workload, variant, base.seed, &err.to_string())
            {
                eprintln!("cmpsim: journal failure append failed: {e}");
            }
        }
        out[slot] = Some(resolved);
    }
    drop(heartbeat);
    out.into_iter().map(|o| o.expect("every cell resolved")).collect()
}

/// What every job of one sweep shares: where results go (journal,
/// store) and what observes them (progress, metrics).
struct Sweep {
    fingerprint: u64,
    seed: u64,
    journal: Option<Mutex<Journal>>,
    store: Option<Arc<ResultStore>>,
    progress: Arc<GridProgress>,
    metrics: GridMetrics,
}

impl Sweep {
    /// Checkpoints a completed cell, so a later kill loses only cells
    /// that had not finished.
    fn journal_cell(&self, workload: &str, variant: Variant, result: &RunResult) {
        let Some(j) = &self.journal else { return };
        let entry = JournalEntry {
            workload: workload.to_string(),
            variant,
            seed: self.seed,
            result: result.clone(),
        };
        if let Err(e) = lock(j).append(&entry) {
            eprintln!("cmpsim: journal append failed: {e}");
        }
    }

    /// Records cell `idx` as served from the store, mirroring it into the
    /// journal.
    fn cached(&self, idx: usize, workload: &str, variant: Variant, result: &RunResult) {
        self.progress.cell_cached(idx);
        self.metrics.cached.inc();
        self.journal_cell(workload, variant, result);
    }

    /// One scheduled cell, run on a supervised worker: lease, compute,
    /// publish, journal.
    fn run_cell<F>(
        &self,
        idx: usize,
        spec: &WorkloadSpec,
        base: &SystemConfig,
        variant: Variant,
        cell_fn: &F,
    ) -> Result<RunResult, SimError>
    where
        F: Fn(&WorkloadSpec, &SystemConfig, Variant) -> Result<RunResult, SimError>,
    {
        // An overlapping sweep on the same store may have produced (or be
        // producing) this cell since the consult; the lease either serves
        // its result or claims the compute.
        let mut lease = None;
        if let Some(s) = &self.store {
            match s.lease(self.fingerprint, &CellKey::new(spec.name, variant, self.seed)) {
                Lease::Hit(result) => {
                    self.cached(idx, spec.name, variant, &result);
                    self.metrics.queue_depth.sub(1);
                    return Ok(*result);
                }
                Lease::Compute(l) => lease = Some(l),
            }
        }
        // A supervised retry re-enters this body with the slot already
        // marked Running/Retrying: that re-entry is the retry the
        // `grid_retries` counter tallies.
        if matches!(self.progress.state(idx), CellState::Running | CellState::Retrying) {
            self.metrics.retries.inc();
        }
        self.progress.cell_started(idx);
        let compute_start = Instant::now();
        let result = cell_fn(spec, base, variant);
        match &result {
            Ok(r) => {
                self.progress.cell_finished(idx, true, r.events, r.host_nanos);
                self.metrics.computed.inc();
                self.metrics.compute_nanos.record_elapsed(compute_start);
            }
            Err(_) => {
                self.progress.cell_finished(idx, false, 0, 0);
                self.metrics.failed.inc();
            }
        }
        self.metrics.queue_depth.sub(1);
        let result = result?;
        if let Some(l) = lease {
            if let Err(e) = l.publish(&result) {
                eprintln!("cmpsim: store publish failed: {e}");
            }
        }
        self.journal_cell(spec.name, variant, &result);
        Ok(result)
    }
}

/// Reads back a sweep's journal, reporting a repaired tail and each
/// skipped line on stderr (each only means a cell re-runs). An
/// unreadable journal starts the sweep fresh.
fn load_journal(journal: &Journal) -> JournalSnapshot {
    let snapshot = journal.load().unwrap_or_else(|e| {
        eprintln!("cmpsim: could not read journal: {e}; starting fresh");
        JournalSnapshot::default()
    });
    let path = journal.path().display();
    if snapshot.repaired_tail {
        eprintln!(
            "cmpsim: journal {path}: torn tail truncated (writer was killed mid-append); \
             the torn cell will re-run"
        );
    }
    for (line, reason) in &snapshot.skipped {
        eprintln!("cmpsim: journal {path}:{line}: {reason}; cell will re-run");
    }
    snapshot
}

/// Locks the shared journal, surviving a poisoned mutex (a panic in a
/// supervised job cannot be allowed to wedge checkpointing for the rest
/// of the sweep).
fn lock(j: &Mutex<Journal>) -> std::sync::MutexGuard<'_, Journal> {
    j.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Mean ± 95% CI of a per-seed metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// Sample mean.
    pub mean: f64,
    /// Half-width of the 95% confidence interval.
    pub ci95: f64,
}

impl std::fmt::Display for Estimate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.1}±{:.1}", self.mean, self.ci95)
    }
}

/// Runs `f` once per seed and aggregates the metric it extracts.
///
/// This is the paper's space-variability methodology [ref 3]: several
/// perturbed runs per data point, reported as mean and 95% CI.
pub fn across_seeds(
    base: &SystemConfig,
    seeds: &[u64],
    mut f: impl FnMut(&SystemConfig) -> f64,
) -> Estimate {
    assert!(!seeds.is_empty(), "need at least one seed");
    let samples: Vec<f64> = seeds
        .iter()
        .map(|&s| f(&base.clone().with_seed(s)))
        .collect();
    let (mean, ci95) = metrics::mean_ci95(&samples);
    Estimate { mean, ci95 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmpsim_trace::workload;

    #[test]
    fn grid_runs_and_exposes_speedups() {
        let spec = workload("apsi").unwrap();
        let base = SystemConfig::paper_default(2);
        let grid = VariantGrid::run(
            &spec,
            &base,
            &[Variant::Base, Variant::BothCompression],
            SimLength { warmup: 5_000, measure: 20_000 },
        )
        .expect("smoke grid simulates");
        let s = grid.speedup(Variant::BothCompression);
        assert!(s > 0.5 && s < 2.0, "speedup {s} out of plausible range");
        assert_eq!(grid.speedup(Variant::Base), 1.0);
    }

    #[test]
    fn across_seeds_aggregates() {
        let base = SystemConfig::paper_default(1);
        let est = across_seeds(&base, &[1, 2, 3], |cfg| cfg.seed as f64);
        assert!((est.mean - 2.0).abs() < 1e-12);
        assert!(est.ci95 > 0.0);
    }

    #[test]
    fn parallel_grid_matches_serial() {
        let specs: Vec<_> =
            ["apsi", "mgrid"].iter().map(|n| workload(n).unwrap()).collect();
        let base = SystemConfig::paper_default(2);
        let variants = [Variant::Base, Variant::PrefetchCompression];
        let len = SimLength { warmup: 2_000, measure: 8_000 };
        let grid = |threads| {
            let opts = ResilienceOptions {
                supervisor: Supervisor::with_threads(threads),
                ..ResilienceOptions::default()
            };
            run_grid_resilient(&specs, &base, &variants, len, &opts)
                .into_iter()
                .collect::<Result<Vec<_>, _>>()
                .unwrap()
        };
        let serial = grid(1);
        assert_eq!(serial.len(), 4);
        assert_eq!(serial[0].workload, "apsi");
        assert_eq!(serial[1].variant, Variant::PrefetchCompression);
        for threads in [1, 2, 8] {
            let par = grid(threads);
            assert_eq!(serial, par, "parallel grid diverged at {threads} threads");
        }
    }

    #[test]
    fn try_get_reports_missing_variants() {
        let spec = workload("apsi").unwrap();
        let base = SystemConfig::paper_default(1);
        let grid = VariantGrid::run(
            &spec,
            &base,
            &[Variant::Base],
            SimLength { warmup: 1_000, measure: 5_000 },
        )
        .unwrap();
        assert!(grid.try_get(Variant::Base).is_some());
        assert!(grid.try_get(Variant::Prefetch).is_none());
    }

    #[test]
    #[should_panic(expected = "not in grid")]
    fn missing_variant_panics() {
        let spec = workload("apsi").unwrap();
        let base = SystemConfig::paper_default(1);
        let grid = VariantGrid::run(
            &spec,
            &base,
            &[Variant::Base],
            SimLength { warmup: 1_000, measure: 5_000 },
        )
        .unwrap();
        grid.get(Variant::Prefetch);
    }
}
