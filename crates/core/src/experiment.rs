//! Experiment drivers: run the paper's configuration grid over a
//! workload, with multiple seeds for confidence intervals, serially,
//! fanned out across cores, or supervised with per-cell fault isolation
//! and checkpoint/resume ([`run_grid_resilient`]).

use crate::config::{SystemConfig, Variant};
use crate::error::{CellError, SimError};
use crate::journal::{self, Journal, JournalEntry};
use crate::metrics;
use crate::stats::RunResult;
use crate::store::{CellKey, Lease, ResultStore};
use crate::system::System;
use cmpsim_harness::metrics as svc_metrics;
use cmpsim_harness::metrics::{Counter, Gauge, Histogram};
use cmpsim_harness::telemetry::{progress_enabled, CellState, GridProgress, Heartbeat};
use cmpsim_harness::{run_supervised, JobOutcome, Supervisor};
use cmpsim_trace::WorkloadSpec;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Service-metric handles for the grid drivers, registered in the global
/// [`svc_metrics`] registry under `grid_*` names. `None` when
/// `CMPSIM_METRICS=0`. Observe-only, like [`GridProgress`]: recording
/// feeds nothing back into scheduling or results.
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
    fn arm() -> Option<Arc<GridMetrics>> {
        if !svc_metrics::enabled() {
            return None;
        }
        let r = svc_metrics::global();
        Some(Arc::new(GridMetrics {
            computed: r.counter("grid_cells_computed"),
            cached: r.counter("grid_cells_cached"),
            failed: r.counter("grid_cells_failed"),
            skipped: r.counter("grid_cells_skipped"),
            retries: r.counter("grid_retries"),
            quarantined: r.counter("grid_cells_quarantined"),
            compute_nanos: r.histogram("grid_cell_compute_nanos"),
            queue_depth: r.gauge("grid_queue_depth"),
        }))
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
    /// e.g. one workload's slice of a [`run_grid_parallel`] sweep.
    pub fn from_cells(cells: impl IntoIterator<Item = (Variant, RunResult)>) -> Self {
        VariantGrid { results: cells.into_iter().collect() }
    }

    /// Runs every variant in `variants` for `spec`.
    ///
    /// # Errors
    ///
    /// Propagates the first [`SimError`] any cell hits.
    pub fn run(
        spec: &WorkloadSpec,
        base: &SystemConfig,
        variants: &[Variant],
        len: SimLength,
    ) -> Result<Self, SimError> {
        let mut results = HashMap::new();
        for &v in variants {
            results.insert(v, run_variant(spec, base, v, len)?);
        }
        Ok(VariantGrid { results })
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

/// Runs the full `workloads × variants` grid serially, in row-major
/// order (all variants of the first workload, then the second, ...).
///
/// This is the paper's 8×4 evaluation sweep when called with
/// `all_workloads()` and the four headline variants.
///
/// # Errors
///
/// Propagates the first [`SimError`] any cell hits; use
/// [`run_grid_resilient`] to keep the rest of the sweep instead.
pub fn run_grid_serial(
    specs: &[WorkloadSpec],
    base: &SystemConfig,
    variants: &[Variant],
    len: SimLength,
) -> Result<Vec<GridCell>, SimError> {
    let mut cells = Vec::with_capacity(specs.len() * variants.len());
    for spec in specs {
        for &variant in variants {
            cells.push(GridCell {
                workload: spec.name,
                variant,
                seed: base.seed,
                result: run_variant(spec, base, variant, len)?,
            });
        }
    }
    Ok(cells)
}

/// Runs the same grid as [`run_grid_serial`] with cells fanned out over
/// `threads` workers, returning **bit-identical** results in the same
/// row-major order.
///
/// Determinism contract: every cell is an independent pure function of
/// `(spec, base, variant, len)` — each simulation owns its RNG streams
/// (seeded from `base.seed`), its caches, and its counters, and no state
/// is shared between cells. The pool only changes *when* a cell runs,
/// never *what* it computes, so for any `threads >= 1`:
///
/// `run_grid_parallel(s, b, v, l, n) == run_grid_serial(s, b, v, l)`
///
/// `tests/determinism.rs` asserts this at 1, 2 and 8 threads.
///
/// # Errors
///
/// Propagates the first (row-major) [`SimError`] any cell hits.
pub fn run_grid_parallel(
    specs: &[WorkloadSpec],
    base: &SystemConfig,
    variants: &[Variant],
    len: SimLength,
    threads: usize,
) -> Result<Vec<GridCell>, SimError> {
    run_grid_parallel_impl(specs, base, variants, len, threads, None)
}

/// [`run_grid_parallel`] consulting (and feeding) a content-addressed
/// [`ResultStore`]: before scheduling, each cell is looked up under the
/// sweep's structural [`journal::fingerprint`] and served from the store
/// if present; only the delta is computed, and computed cells are
/// published back. In-flight leases dedup against other sweeps sharing
/// the same store handle, so two overlapping sweeps compute each shared
/// cell exactly once.
///
/// The store is bit-inert: by the determinism contract above, a stored
/// result is the exact bytes the cell would recompute, so warm and cold
/// runs return identical grids (`tests/store.rs` pins this at 1/2/8
/// threads, and the `store_gate` example extends the digest golden gate
/// over it).
///
/// # Errors
///
/// Propagates the first (row-major) [`SimError`] any computed cell hits.
pub fn run_grid_parallel_store(
    specs: &[WorkloadSpec],
    base: &SystemConfig,
    variants: &[Variant],
    len: SimLength,
    threads: usize,
    store: &Arc<ResultStore>,
) -> Result<Vec<GridCell>, SimError> {
    run_grid_parallel_impl(specs, base, variants, len, threads, Some(store))
}

fn run_grid_parallel_impl(
    specs: &[WorkloadSpec],
    base: &SystemConfig,
    variants: &[Variant],
    len: SimLength,
    threads: usize,
    store: Option<&Arc<ResultStore>>,
) -> Result<Vec<GridCell>, SimError> {
    let variants_n = variants.len();
    let total = specs.len() * variants_n;
    let fingerprint = store.map(|_| journal::fingerprint(base, len));
    // Progress is observability only: workers mark cells with relaxed
    // atomics, the heartbeat renders to stderr, and nothing feeds back
    // into the results (the determinism contract above is untouched).
    let progress = Arc::new(GridProgress::new(total, threads.max(1).min(total.max(1))));
    let heartbeat = progress_enabled().then(|| Heartbeat::start(Arc::clone(&progress)));
    let gm = GridMetrics::arm();

    // Store consult happens before scheduling: hits never occupy a
    // worker, so a 95%-warm sweep spends its threads on the 5% delta.
    let mut prefilled: Vec<Option<GridCell>> = (0..total).map(|_| None).collect();
    if let (Some(store), Some(fp)) = (store, fingerprint) {
        for (si, spec) in specs.iter().enumerate() {
            for (vi, &variant) in variants.iter().enumerate() {
                let idx = si * variants_n + vi;
                let key = CellKey::new(spec.name, variant, base.seed);
                if let Some(result) = store.get(fp, &key) {
                    prefilled[idx] =
                        Some(GridCell { workload: spec.name, variant, seed: base.seed, result });
                    progress.cell_cached(idx);
                    if let Some(gm) = &gm {
                        gm.cached.inc();
                    }
                }
            }
        }
    }

    let progress_ref = &progress;
    let prefilled_ref = &prefilled;
    let gm_ref = &gm;
    let jobs: Vec<_> = specs
        .iter()
        .enumerate()
        .flat_map(|(si, spec)| {
            variants.iter().enumerate().map(move |(vi, &variant)| {
                let idx = si * variants_n + vi;
                let progress = Arc::clone(progress_ref);
                let store = store.map(Arc::clone);
                let gm = gm_ref.clone();
                (idx, move || {
                    // An overlapping sweep may have produced (or started)
                    // this cell since the pre-schedule consult; the lease
                    // either serves its result or claims the compute.
                    let mut lease = None;
                    if let (Some(s), Some(fp)) = (&store, fingerprint) {
                        let key = CellKey::new(spec.name, variant, base.seed);
                        match s.lease(fp, &key) {
                            Lease::Hit(result) => {
                                progress.cell_cached(idx);
                                if let Some(gm) = &gm {
                                    gm.cached.inc();
                                    gm.queue_depth.sub(1);
                                }
                                return Ok(GridCell {
                                    workload: spec.name,
                                    variant,
                                    seed: base.seed,
                                    result,
                                });
                            }
                            Lease::Compute(l) => lease = Some(l),
                        }
                    }
                    progress.cell_started(idx);
                    let compute_start = Instant::now();
                    let cell = run_variant(spec, base, variant, len).map(|result| GridCell {
                        workload: spec.name,
                        variant,
                        seed: base.seed,
                        result,
                    });
                    match &cell {
                        Ok(c) => {
                            progress.cell_finished(idx, true, c.result.events, c.result.host_nanos);
                            if let Some(gm) = &gm {
                                gm.computed.inc();
                                gm.compute_nanos.record_elapsed(compute_start);
                            }
                            if let Some(l) = lease {
                                if let Err(e) = l.publish(&c.result) {
                                    eprintln!("cmpsim: store publish failed: {e}");
                                }
                            }
                        }
                        Err(_) => {
                            progress.cell_finished(idx, false, 0, 0);
                            if let Some(gm) = &gm {
                                gm.failed.inc();
                            }
                        }
                    }
                    if let Some(gm) = &gm {
                        gm.queue_depth.sub(1);
                    }
                    cell
                })
            })
        })
        .filter(|(idx, _)| prefilled_ref[*idx].is_none())
        .map(|(_, job)| job)
        .collect();
    if let Some(gm) = &gm {
        gm.queue_depth.add(jobs.len() as u64);
    }
    let computed = cmpsim_harness::pool::run_indexed(threads, jobs);
    drop(heartbeat);
    // Merge computed cells back into row-major order around the store
    // hits, propagating the first (row-major) error.
    let mut computed = computed.into_iter();
    let mut out = Vec::with_capacity(total);
    for slot in prefilled {
        match slot {
            Some(cell) => out.push(cell),
            None => out.push(computed.next().expect("one computed cell per scheduled job")?),
        }
    }
    Ok(out)
}

/// Policy for a [`run_grid_resilient`] sweep: how cells are supervised
/// and where (if anywhere) completed cells are journaled.
#[derive(Debug, Clone, Default)]
pub struct ResilienceOptions {
    /// Worker count, per-cell deadline (`CMPSIM_CELL_DEADLINE_MS`), and
    /// retry policy.
    pub supervisor: Supervisor,
    /// Checkpoint journal path; `None` disables checkpointing. See
    /// [`ResilienceOptions::default_journal_path`] for the conventional
    /// location under `target/grid/`.
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

    /// The conventional journal location for a named sweep:
    /// `target/grid/<sweep>.jsonl` (overridable via `CMPSIM_GRID_DIR`).
    pub fn default_journal_path(sweep: &str) -> PathBuf {
        svc_metrics::artifact_dir("CMPSIM_GRID_DIR", "grid").join(format!("{sweep}.jsonl"))
    }
}

/// Runs the `workloads × variants` grid under full supervision: each
/// cell executes in its own watchdogged worker, and a panicking, hanging
/// or [`SimError`]-failing cell degrades to an `Err` in its slot while
/// every other cell completes. Results come back in row-major order,
/// like [`run_grid_serial`].
///
/// With `opts.journal` set, completed cells are appended to a checkpoint
/// journal *as they finish*; re-invoking with the same journal (same
/// base config and length — see [`journal::fingerprint`]) skips them and
/// returns bit-identical results, so a sweep killed mid-run resumes
/// where it left off. `tests/resilience.rs` asserts both properties.
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

/// The engine under [`run_grid_resilient`], parameterized over the cell
/// function so tests can inject faulty cells (panics, hangs, errors).
/// `fingerprint` guards the journal against resuming under a different
/// sweep definition.
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
    let journal = opts
        .journal
        .as_ref()
        .map(|p| Arc::new(Mutex::new(Journal::new(p, fingerprint))));

    // Cells already in the journal are reused, not re-run; cells the
    // journal records as repeatedly failing are quarantined outright.
    let mut completed: HashMap<(String, Variant), RunResult> = HashMap::new();
    let mut quarantined: HashMap<(String, Variant), u32> = HashMap::new();
    if let Some(j) = &journal {
        let snapshot = lock_journal(j).load().unwrap_or_else(|e| {
            eprintln!("cmpsim: could not read journal: {e}; starting fresh");
            journal::JournalSnapshot::default()
        });
        if let Some(p) = &opts.journal {
            if snapshot.repaired_tail {
                eprintln!(
                    "cmpsim: journal {}: torn tail truncated (writer was killed mid-append); \
                     the torn cell will re-run",
                    p.display()
                );
            }
            for (line, reason) in &snapshot.skipped {
                eprintln!(
                    "cmpsim: journal {}:{line}: {reason}; cell will re-run",
                    p.display()
                );
            }
        }
        for e in snapshot.entries {
            if e.seed == base.seed {
                completed.insert((e.workload, e.variant), e.result);
            }
        }
        for ((workload, variant, seed), failures) in &snapshot.failures {
            if *seed == base.seed && *failures >= journal::MAX_CELL_FAILURES {
                quarantined.insert((workload.clone(), *variant), *failures);
            }
        }
    }

    let n = specs.len() * variants.len();
    let mut out: Vec<Option<Result<GridCell, CellError>>> = (0..n).map(|_| None).collect();
    let cell_fn = Arc::new(cell_fn);
    let mut jobs = Vec::new();
    let mut job_slots: Vec<(usize, &'static str, Variant)> = Vec::new();
    // Progress is observability only; journal-skipped cells count as done
    // immediately, supervised retries show up as `retrying` (a second
    // `cell_started` on the same slot).
    let workers = opts.supervisor.threads.max(1);
    let progress = Arc::new(GridProgress::new(n, workers.min(n.max(1))));
    let heartbeat = progress_enabled().then(|| Heartbeat::start(Arc::clone(&progress)));
    let gm = GridMetrics::arm();

    let mut idx = 0usize;
    for spec in specs {
        for &variant in variants {
            if let Some(result) = completed.get(&(spec.name.to_string(), variant)) {
                out[idx] = Some(Ok(GridCell {
                    workload: spec.name,
                    variant,
                    seed: base.seed,
                    result: result.clone(),
                }));
                progress.cell_skipped(idx);
                if let Some(gm) = &gm {
                    gm.skipped.inc();
                }
            } else if let Some(&failures) = quarantined.get(&(spec.name.to_string(), variant))
            {
                out[idx] = Some(Err(CellError::Quarantined {
                    workload: spec.name,
                    variant,
                    failures,
                }));
                progress.cell_skipped(idx);
                if let Some(gm) = &gm {
                    gm.quarantined.inc();
                }
            } else if let Some(result) = opts
                .store
                .as_ref()
                .and_then(|s| s.get(fingerprint, &CellKey::new(spec.name, variant, base.seed)))
            {
                // Store hit: the cell is never scheduled. Mirror it into
                // this sweep's journal so a later resume stays complete
                // even without the store.
                if let Some(j) = &journal {
                    let entry = JournalEntry {
                        workload: spec.name.to_string(),
                        variant,
                        seed: base.seed,
                        result: result.clone(),
                    };
                    if let Err(e) = lock_journal(j).append(&entry) {
                        eprintln!("cmpsim: journal append failed: {e}");
                    }
                }
                out[idx] = Some(Ok(GridCell {
                    workload: spec.name,
                    variant,
                    seed: base.seed,
                    result,
                }));
                progress.cell_cached(idx);
                if let Some(gm) = &gm {
                    gm.cached.inc();
                }
            } else {
                job_slots.push((idx, spec.name, variant));
                let spec = spec.clone();
                let base = base.clone();
                let cell_fn = Arc::clone(&cell_fn);
                let journal = journal.clone();
                let store = opts.store.clone();
                let progress = Arc::clone(&progress);
                let gm = gm.clone();
                jobs.push(move || -> Result<RunResult, SimError> {
                    // A sweep overlapping on the same store may have
                    // produced (or be producing) this cell; take a lease
                    // so each shared cell is computed exactly once.
                    let mut lease = None;
                    if let Some(s) = &store {
                        let key = CellKey::new(spec.name, variant, base.seed);
                        match s.lease(fingerprint, &key) {
                            Lease::Hit(result) => {
                                progress.cell_cached(idx);
                                if let Some(gm) = &gm {
                                    gm.cached.inc();
                                    gm.queue_depth.sub(1);
                                }
                                if let Some(j) = &journal {
                                    let entry = JournalEntry {
                                        workload: spec.name.to_string(),
                                        variant,
                                        seed: base.seed,
                                        result: result.clone(),
                                    };
                                    if let Err(e) = lock_journal(j).append(&entry) {
                                        eprintln!("cmpsim: journal append failed: {e}");
                                    }
                                }
                                return Ok(result);
                            }
                            Lease::Compute(l) => lease = Some(l),
                        }
                    }
                    // A supervised retry re-enters this body with the slot
                    // already marked Running/Retrying: that re-entry is the
                    // retry the `grid_retries` counter tallies.
                    if let Some(gm) = &gm {
                        if matches!(
                            progress.state(idx),
                            CellState::Running | CellState::Retrying
                        ) {
                            gm.retries.inc();
                        }
                    }
                    progress.cell_started(idx);
                    let compute_start = Instant::now();
                    let result = cell_fn(&spec, &base, variant);
                    match &result {
                        Ok(r) => {
                            progress.cell_finished(idx, true, r.events, r.host_nanos);
                            if let Some(gm) = &gm {
                                gm.computed.inc();
                                gm.compute_nanos.record_elapsed(compute_start);
                            }
                        }
                        Err(_) => {
                            progress.cell_finished(idx, false, 0, 0);
                            if let Some(gm) = &gm {
                                gm.failed.inc();
                            }
                        }
                    }
                    if let Some(gm) = &gm {
                        gm.queue_depth.sub(1);
                    }
                    let result = result?;
                    if let Some(l) = lease {
                        if let Err(e) = l.publish(&result) {
                            eprintln!("cmpsim: store publish failed: {e}");
                        }
                    }
                    // Journal inside the job so a later kill loses only
                    // cells that had not finished.
                    if let Some(j) = &journal {
                        let entry = JournalEntry {
                            workload: spec.name.to_string(),
                            variant,
                            seed: base.seed,
                            result: result.clone(),
                        };
                        if let Err(e) = lock_journal(j).append(&entry) {
                            eprintln!("cmpsim: journal append failed: {e}");
                        }
                    }
                    Ok(result)
                });
            }
            idx += 1;
        }
    }

    if let Some(gm) = &gm {
        gm.queue_depth.add(jobs.len() as u64);
    }
    let outcomes = run_supervised(&opts.supervisor, jobs);
    for ((slot, workload, variant), outcome) in job_slots.into_iter().zip(outcomes) {
        // Panicked/timed-out jobs never reached their own `cell_finished`;
        // settle them here so the final status line accounts for every
        // cell. (An abandoned timed-out thread may still be running, but
        // progress is display-only state and feeds nothing back.)
        if !matches!(
            progress.state(slot),
            CellState::Done | CellState::Failed | CellState::Cached
        ) {
            progress.cell_finished(slot, false, 0, 0);
            if let Some(gm) = &gm {
                gm.failed.inc();
                gm.queue_depth.sub(1);
            }
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
        if let (Err(err), Some(j)) = (&resolved, &journal) {
            // Journal the failure so repeated offenders are quarantined
            // on the next resume instead of retried forever.
            if let Err(e) =
                lock_journal(j).append_failure(workload, variant, base.seed, &err.to_string())
            {
                eprintln!("cmpsim: journal failure append failed: {e}");
            }
        }
        out[slot] = Some(resolved);
    }
    drop(heartbeat);
    out.into_iter().map(|o| o.expect("every cell resolved")).collect()
}

/// Locks the shared journal, surviving a poisoned mutex (a panic in a
/// supervised job cannot be allowed to wedge checkpointing for the rest
/// of the sweep).
fn lock_journal(j: &Arc<Mutex<Journal>>) -> std::sync::MutexGuard<'_, Journal> {
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
        let serial = run_grid_serial(&specs, &base, &variants, len).unwrap();
        assert_eq!(serial.len(), 4);
        assert_eq!(serial[0].workload, "apsi");
        assert_eq!(serial[1].variant, Variant::PrefetchCompression);
        for threads in [1, 2, 8] {
            let par = run_grid_parallel(&specs, &base, &variants, len, threads).unwrap();
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
