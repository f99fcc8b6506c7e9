//! One grid cell under an armed chaos plan, with the per-site fault
//! table — the CI smoke run for the chaos engine (`scripts/ci.sh`).
//!
//! Arms the `CMPSIM_CHAOS` plan (defaulting to `7:0.02` when unset) on
//! one compression + prefetching cell, asserts the run is
//! bit-reproducible at 1, 2 and 8 worker threads, and prints what was
//! injected and how the system degraded. Output is fully deterministic
//! for a given plan, so CI diffs two invocations byte-for-byte.

use cmpsim::core::experiment::run_cells_resilient;
use cmpsim::{workload, FaultPlan, ResilienceOptions, SimLength, System, SystemConfig, Variant};
use cmpsim_harness::{knobs, Supervisor};

fn main() {
    let plan = knobs().chaos.unwrap_or(FaultPlan::new(7, 0.02));
    let specs = vec![workload("zeus").expect("known workload")];
    let variants = [Variant::PrefetchCompression];
    let base = SystemConfig::paper_default(2).with_seed(11);
    let len = SimLength { warmup: 5_000, measure: 20_000 };
    let grid = |threads| {
        let opts = ResilienceOptions {
            supervisor: Supervisor::with_threads(threads),
            ..ResilienceOptions::default()
        };
        // No journal or store, so the sweep needs no fingerprint.
        run_cells_resilient(&specs, &base, &variants, 0, &opts, move |spec, base, variant| {
            let mut sys = System::new(variant.apply(base.clone()), spec);
            sys.set_chaos(Some(plan));
            sys.run(len.warmup, len.measure)
        })
        .into_iter()
        .collect::<Result<Vec<_>, _>>()
    };

    let serial = match grid(1) {
        Ok(cells) => cells,
        Err(e) => {
            eprintln!("chaos smoke FAILED: {e}");
            std::process::exit(1);
        }
    };
    for threads in [1, 2, 8] {
        let par = grid(threads).expect("armed grid re-runs");
        assert_eq!(serial, par, "chaos run diverged at {threads} threads");
    }

    let r = &serial[0].result;
    let f = &r.stats.faults;
    println!(
        "chaos smoke: zeus/{} seed={} rate={} ({} instructions, IPC {:.2})",
        Variant::PrefetchCompression,
        plan.seed(),
        plan.rate(),
        r.stats.instructions,
        r.ipc()
    );
    println!("{:<14}{:>10}{:>10}{:>11}", "site", "injected", "detected", "recovered");
    println!(
        "{:<14}{:>10}{:>10}{:>11}   ({} line(s) quarantined to uncompressed)",
        "codec-line",
        f.codec_faults_injected,
        f.codec_faults_detected,
        f.fault_recoveries,
        f.lines_quarantined
    );
    println!(
        "{:<14}{:>10}{:>10}{:>11}",
        "link-drop",
        r.stats.link.dropped_messages,
        r.stats.link.dropped_messages,
        r.stats.link.dropped_messages
    );
    println!(
        "{:<14}{:>10}{:>10}{:>11}",
        "link-corrupt",
        r.stats.link.corrupted_messages,
        r.stats.link.corrupted_messages,
        r.stats.link.corrupted_messages
    );
    println!(
        "{:<14}{:>10}{:>10}{:>11}   ({} stall cycles absorbed)",
        "mem-stall",
        f.mem_stall_bursts,
        f.mem_stall_bursts,
        f.mem_stall_bursts,
        f.mem_stall_cycles
    );
    println!(
        "{:<14}{:>10}{:>10}{:>11}",
        "dir-message", f.dir_messages_lost, f.dir_messages_lost, f.dir_retries
    );
    assert_eq!(
        f.link_retransmits,
        r.stats.link.dropped_messages + r.stats.link.corrupted_messages,
        "a completed run recovered every injected link fault"
    );
    println!("chaos smoke OK: bit-identical at 1/2/8 threads");
}
