//! A cell's host memory follows the simulated machine, not the length of
//! the run (DESIGN §9, hot-path rule 3): one 4-core oltp Pf+Compr cell
//! at 40k + 40k and at 160k + 160k instructions per core must peak
//! within 1 MiB of each other. A per-cell table that grows with the
//! lines a run touches, such as a map from every line read to its
//! stored form, fails this.
//!
//! Peak resident memory (`VmHWM`) belongs to a process, so the test
//! re-runs its own binary as one child per length, the way
//! `tests/chaos.rs` re-runs itself with a knob set. Each child runs one
//! cell and prints its `VmHWM`.
#![cfg(target_os = "linux")]

use cmpsim::{workload, System, SystemConfig, Variant};
use std::process::Command;

/// Set in a child only: instructions per core of its cell, for warmup
/// and measurement each.
const CELL_LEN_VAR: &str = "FOOTPRINT_CELL_INSTRUCTIONS";

/// How much higher the longer cell may peak.
const MAX_GROWTH_KIB: u64 = 1024;

const TEST_NAME: &str = "cell_peak_memory_does_not_grow_with_run_length";

/// This process's peak resident set, in KiB.
fn vm_hwm_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("a VmHWM line in kB")
}

/// Runs this test in a child whose cell runs `instructions` per core,
/// and returns the child's peak in KiB.
fn child_peak_kib(instructions: u64) -> u64 {
    let out = Command::new(std::env::current_exe().expect("own test binary"))
        .args(["--exact", TEST_NAME, "--nocapture"])
        .env(CELL_LEN_VAR, instructions.to_string())
        .output()
        .expect("spawn the test binary");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "child at {instructions}:\n{stdout}");
    stdout
        .lines()
        .find_map(|l| l.strip_prefix("vm_hwm_kib="))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("child at {instructions} reported no peak:\n{stdout}"))
}

#[test]
fn cell_peak_memory_does_not_grow_with_run_length() {
    if let Ok(len) = std::env::var(CELL_LEN_VAR) {
        let len: u64 = len.parse().expect("a cell length");
        let cfg = Variant::PrefetchCompression.apply(SystemConfig::paper_default(4).with_seed(11));
        System::new(cfg, &workload("oltp").expect("oltp")).run(len, len).expect("the cell runs");
        println!("vm_hwm_kib={}", vm_hwm_kib());
        return;
    }
    let short = child_peak_kib(40_000);
    let long = child_peak_kib(160_000);
    println!("peak: {short} KiB at 40k + 40k, {long} KiB at 160k + 160k instructions per core");
    assert!(
        long <= short + MAX_GROWTH_KIB,
        "the 4x longer cell peaked {} KiB higher ({short} -> {long} KiB); \
         some per-cell table grows with the run",
        long.saturating_sub(short)
    );
}
