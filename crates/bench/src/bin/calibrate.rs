//! Calibration diagnostic: per-workload base-system characteristics vs.
//! the paper's published targets. Not a paper artifact itself — this is
//! the tool used to tune the synthetic workload parameters.
//!
//! ```sh
//! CMPSIM_MEASURE=600000 cargo run --release -p cmpsim-bench --bin calibrate [bench...]
//! ```

use cmpsim_bench::{paper, sim_length, SEED};
use cmpsim_core::experiment::{run_cells_resilient, ResilienceOptions};
use cmpsim_core::report::Table;
use cmpsim_core::{System, SystemConfig, Variant};
use cmpsim_link::LinkBandwidth;
use cmpsim_trace::all_workloads;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let len = sim_length();
    let base = SystemConfig::paper_default(8).with_seed(SEED);

    let specs: Vec<_> = all_workloads()
        .into_iter()
        .filter(|spec| args.is_empty() || args.iter().any(|a| a == spec.name))
        .collect();

    // Each workload needs two independent runs (base on an infinite
    // link for bandwidth *demand*, cache-compression for the ratio);
    // the grid driver fans the whole set out across cores. There is no
    // journal or store, so the sweep needs no fingerprint.
    let variants = [Variant::Base, Variant::CacheCompression];
    let cells = run_cells_resilient(
        &specs,
        &base,
        &variants,
        0,
        &ResilienceOptions::default(),
        move |spec, base, variant| {
            let mut cfg = variant.apply(base.clone());
            if variant == Variant::Base {
                cfg = cfg.with_link(LinkBandwidth::Infinite);
            }
            System::new(cfg, spec).run(len.warmup, len.measure)
        },
    )
    .into_iter()
    .collect::<Result<Vec<_>, _>>()
    .expect("simulation failed");
    let results = cells.chunks(variants.len()).map(|c| (&c[0].result, &c[1].result));

    let mut t = Table::new(&[
        "bench", "IPC", "L1I mpki", "L1D mpki", "L2 mpki", "GB/s", "GB/s(paper)", "ratio",
        "ratio(paper)",
    ]);
    for (spec, (r, cr)) in specs.iter().zip(results) {
        let i = r.stats.instructions;
        t.row(&[
            spec.name.into(),
            format!("{:.2}", r.ipc()),
            format!("{:.1}", r.stats.l1i.mpki(i)),
            format!("{:.1}", r.stats.l1d.mpki(i)),
            format!("{:.1}", r.stats.l2.mpki(i)),
            format!("{:.1}", r.bandwidth_gbps()),
            format!("{:.1}", paper::lookup(&paper::BANDWIDTH_DEMAND, spec.name)),
            format!("{:.2}", cr.stats.compression_ratio()),
            format!("{:.2}", paper::lookup(&paper::COMPRESSION_RATIO, spec.name)),
        ]);
    }
    t.print("calibration: base-system characteristics vs paper");
}
