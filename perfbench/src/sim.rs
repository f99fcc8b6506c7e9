//! In-process engine workloads (`table5_fpc`, `bdi_stream`): a grid of
//! cells run one after another on one thread, timed at `System::new` and
//! `System::run`, checked against the grid digest.

use crate::cells::{layer_metrics, quota_problem, run_cell, sim_mips, CellRun};
use crate::common::{check_pin, fastest_time, median, reset_peak_rss, secs, vm_hwm_mib, Report};
use crate::replay;
use cmpsim_core::experiment::{GridCell, SimLength};
use cmpsim_core::report::grid_digest;
use cmpsim_core::{CodecKind, SystemConfig, Variant};
use cmpsim_trace::WorkloadSpec;
use std::time::Instant;

/// A fixed grid of cells.
pub struct Grid {
    pub name: &'static str,
    /// Workload names; empty means all eight paper workloads.
    pub workloads: &'static [&'static str],
    pub variants: &'static [Variant],
    pub codec: CodecKind,
    pub cores: u8,
    pub len: SimLength,
}

impl Grid {
    pub fn specs(&self) -> Vec<WorkloadSpec> {
        if self.workloads.is_empty() {
            cmpsim_trace::all_workloads()
        } else {
            self.workloads
                .iter()
                .map(|n| cmpsim_trace::workload(n).expect("paper workload"))
                .collect()
        }
    }

    pub fn base(&self, seed: u64) -> SystemConfig {
        SystemConfig::paper_default(self.cores)
            .with_seed(seed)
            .with_codec(self.codec)
    }
}

/// The paper's four headline configurations (Table 5).
pub const HEADLINE: &[Variant] = &[
    Variant::Base,
    Variant::BothCompression,
    Variant::Prefetch,
    Variant::PrefetchCompression,
];

/// The paper's 8 workloads × the 4 headline variants under FPC (the
/// Table 5 / Fig 9 sweep).
pub const TABLE5_FPC: Grid = Grid {
    name: "table5_fpc",
    workloads: &[],
    variants: HEADLINE,
    codec: CodecKind::Fpc,
    cores: 4,
    len: SimLength {
        warmup: 40_000,
        measure: 40_000,
    },
};

/// BDI on the four workloads whose footprints overflow the engine's
/// segment memo, compression variants only.
pub const BDI_STREAM: Grid = Grid {
    name: "bdi_stream",
    workloads: &["apache", "jbb", "fma3d", "mgrid"],
    variants: &[Variant::BothCompression, Variant::PrefetchCompression],
    codec: CodecKind::Bdi,
    cores: 4,
    len: SimLength {
        warmup: 100_000,
        measure: 100_000,
    },
};

/// Runs the grid once, cell by cell; returns the cells, the digest and
/// each cell's peak resident set in MiB (empty where the peak cannot be
/// reset per cell).
pub fn run_pass(
    g: &Grid,
    specs: &[WorkloadSpec],
    seed: u64,
    r: &mut Report,
) -> (Vec<CellRun>, String, Vec<f64>) {
    let base = g.base(seed);
    let mut cells = Vec::with_capacity(specs.len() * g.variants.len());
    let mut grid = Vec::with_capacity(cells.capacity());
    let mut rss = Vec::new();
    for spec in specs {
        for &variant in g.variants {
            let reset = reset_peak_rss();
            let cell = run_cell(spec, &base, variant, g.len);
            if let Some(mib) = vm_hwm_mib(None).filter(|_| reset) {
                rss.push(mib);
            }
            match cell {
                Ok(cell) => {
                    r.check(quota_problem(&cell, g.cores, g.len));
                    grid.push(GridCell {
                        workload: spec.name,
                        variant,
                        seed,
                        result: cell.result.clone(),
                    });
                    cells.push(cell);
                }
                Err(e) => r.check(Some(format!("{} {variant}: {e}", spec.name))),
            }
        }
    }
    (cells, grid_digest(&grid), rss)
}

/// Digest of one pass, for the pinned-digest record mode.
pub fn digest(g: &Grid, seed: u64) -> String {
    run_pass(g, &g.specs(), seed, &mut Report::default()).1
}

pub fn run(g: &Grid, seed: u64, seconds: f64, trace: bool) -> Report {
    let mut r = Report::default();
    let specs = g.specs();
    let t_run = Instant::now();
    let mut walls = Vec::new();
    let mut setups = Vec::new();
    let mut overheads = Vec::new();
    let mut all = Vec::new();
    let mut rss = Vec::new();
    let mut first_digest: Option<String> = None;
    // Each cell's fastest `System::run` over the passes: another process
    // on a shared host can only add time to a pass, so the minimum is the
    // estimate of the simulator's own speed that such load moves least.
    let mut fastest: Vec<CellRun> = Vec::new();
    while walls.is_empty() || secs(t_run) < seconds {
        let t0 = Instant::now();
        let (cells, digest, cell_rss) = run_pass(g, &specs, seed, &mut r);
        for (i, c) in cells.iter().enumerate() {
            match fastest.get_mut(i) {
                Some(f) if c.run_s < f.run_s => *f = c.clone(),
                Some(_) => {}
                None => fastest.push(c.clone()),
            }
        }
        rss.extend(cell_rss);
        let wall = secs(t0);
        let cell_count = cells.len() as u64;
        let problem = match &first_digest {
            None => check_pin(g.name, seed, &digest),
            Some(d) if *d != digest => Some(format!("pass digest {digest} != first pass {d}")),
            Some(_) => None,
        };
        if let Some(p) = problem {
            // The digest covers the whole pass, so every cell in it fails.
            r.failed += cell_count;
            r.problems.push(p);
        }
        first_digest.get_or_insert(digest);
        let new_s: f64 = cells.iter().map(|c| c.new_s).sum();
        let run_s: f64 = cells.iter().map(|c| c.run_s).sum();
        walls.push(wall);
        setups.push(new_s);
        overheads.push((wall - new_s - run_s) * 1e3);
        if trace {
            all.extend(cells);
        }
    }
    let untraced_s = secs(t_run);
    r.host_times(sim_mips(&fastest), fastest_time(&walls), median(&setups));
    // Peak resident set of one cell (median over cells): a cell whose
    // footprint crosses a table-doubling point cannot swing the figure.
    let peak = if rss.is_empty() {
        vm_hwm_mib(None).unwrap_or(0.0)
    } else {
        median(&rss)
    };
    r.e2e("peak_rss_mib", peak, "MiB");
    if trace {
        let (costs, bad) = replay::run(&specs, seed, g.codec);
        for p in bad {
            r.check(Some(p));
        }
        layer_metrics(&mut r, &all, walls.len(), g.codec, &costs);
        r.layer("driver.overhead_ms", median(&overheads), "ms");
        r.layer(
            "trace_overhead",
            (untraced_s + costs.total_s) / untraced_s,
            "ratio",
        );
    }
    r
}
