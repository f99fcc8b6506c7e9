//! cmpsim's benchmark: one command per workload that prints every
//! end-to-end metric (or, traced, every per-layer metric) by name with
//! its unit, after checking the program's outputs.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench steady --workload <name> [--runs 10] [--seconds <s>] [--trace 0] [--first-seed 1]
//! perfbench record
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`.
//! A human-readable table goes to standard error. See `README.md` for the
//! workloads, the metrics and the layer map.

mod cells;
mod common;
mod replay;
mod resume;
mod service;
mod sim;
mod steady;

use common::{Metric, Report};

/// Every workload, as `--workload` names it (README.md says why each exists).
pub const WORKLOADS: [&str; 4] = ["table5_fpc", "bdi_stream", "sweep_service", "resume_sweep"];

/// End-to-end metrics, reported by every workload.
pub const END_TO_END: [(&str, &str); 4] = [
    ("sim_mips", "Minstr/s"),
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics of the traced run. Every workload reports each one;
/// a layer that is not on a workload's path reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("engine.run_ns_per_event", "ns"),
    ("engine.run_s.base", "s"),
    ("engine.run_s.compr", "s"),
    ("engine.run_s.pf", "s"),
    ("engine.run_s.pf_compr", "s"),
    ("engine.events_per_kinst", "count"),
    ("engine.setup_ms_per_cell", "ms"),
    ("trace.gen_ns_per_event", "ns"),
    ("trace.line_bytes_ns", "ns"),
    ("trace.share", "ratio"),
    ("fpc.sizing_ns.fpc", "ns"),
    ("fpc.sizing_ns.bdi", "ns"),
    ("fpc.sizing_ns.zca", "ns"),
    ("fpc.compression_ratio", "ratio"),
    ("fpc.share", "ratio"),
    ("cache.l1_ns_per_access", "ns"),
    ("cache.vsc_ns_per_access", "ns"),
    ("cache.l1d_accesses_per_kinst", "count"),
    ("cache.l2_accesses_per_kinst", "count"),
    ("cache.l2_miss_ratio", "ratio"),
    ("cache.l2_compressed_hit_share", "ratio"),
    ("cache.share", "ratio"),
    ("prefetch.ns_per_call", "ns"),
    ("prefetch.l2_issued_per_kinst", "count"),
    ("prefetch.l2_useful_ratio", "ratio"),
    ("prefetch.dropped_share", "ratio"),
    ("prefetch.share", "ratio"),
    ("link.send_ns", "ns"),
    ("link.messages_per_kinst", "count"),
    ("link.bytes_per_inst", "B"),
    ("link.avg_queue_cycles", "cycles"),
    ("link.share", "ratio"),
    ("mem.ns_per_op", "ns"),
    ("mem.reads_per_kinst", "count"),
    ("mem.writes_per_kinst", "count"),
    ("mem.share", "ratio"),
    ("coherence.ns_per_request", "ns"),
    ("coherence.invalidations_per_kinst", "count"),
    ("coherence.recalls_per_kinst", "count"),
    ("coherence.share", "ratio"),
    ("driver.overhead_ms", "ms"),
    ("driver.supervise_ms_per_cell", "ms"),
    ("store.get_us_p50", "us"),
    ("store.publish_us_p50", "us"),
    ("store.lease_wait_us_p50", "us"),
    ("store.hit_rate", "ratio"),
    ("store.resident_kib", "KiB"),
    ("journal.append_us", "us"),
    ("journal.load_ms", "ms"),
    ("journal.bytes_per_cell", "B"),
    ("seallog.append_us", "us"),
    ("seallog.bytes_per_request", "B"),
    ("serve.hit_req_ms_p50", "ms"),
    ("serve.hit_req_ms_p95", "ms"),
    ("serve.hit_samples", "count"),
    ("serve.miss_req_ms_p50", "ms"),
    ("serve.miss_req_ms_p95", "ms"),
    ("serve.miss_samples", "count"),
    ("serve.req_per_s", "req/s"),
    ("serve.daemon_ms_p50", "ms"),
    ("serve.transport_ms_p50", "ms"),
    ("serve.compute_ms_p50", "ms"),
    ("serve.sim_share_hit", "ratio"),
    ("serve.sim_share_miss", "ratio"),
    ("trace_overhead", "ratio"),
];

/// Seeds with a pinned model-output digest: the default and a held-out one.
pub const PINNED_SEEDS: [u64; 2] = [11, 23];

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <{}> [--seed 11] [--seconds 10] [--trace 0|1]\n       \
         perfbench steady --workload <name> [--runs 10] [--seconds 10] [--trace 0] [--first-seed 1]\n       \
         perfbench record",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

/// `--key value` pairs after the optional subcommand.
fn flags(args: &[String]) -> Vec<(String, String)> {
    if !args.len().is_multiple_of(2) {
        usage();
    }
    args.chunks(2)
        .map(|kv| match kv[0].strip_prefix("--") {
            Some(k) => (k.to_string(), kv[1].clone()),
            None => usage(),
        })
        .collect()
}

fn flag<T: std::str::FromStr>(flags: &[(String, String)], key: &str, default: Option<T>) -> T {
    match flags.iter().find(|(k, _)| k == key) {
        Some((_, v)) => v.parse().unwrap_or_else(|_| usage()),
        None => default.unwrap_or_else(|| usage()),
    }
}

/// Runs one workload in this process.
fn run_workload(name: &str, seed: u64, seconds: f64, trace: bool) -> Report {
    match name {
        "table5_fpc" => sim::run(&sim::TABLE5_FPC, seed, seconds, trace),
        "bdi_stream" => sim::run(&sim::BDI_STREAM, seed, seconds, trace),
        "resume_sweep" => resume::run(seed, seconds, trace),
        "sweep_service" => service::run(seed, seconds, trace),
        _ => usage(),
    }
}

/// Orders `got` by `canon`, filling metrics a workload does not touch
/// with 0 and flagging any value that is not a finite number.
fn canonical(got: &[Metric], canon: &[(&str, &'static str)], r: &mut Vec<String>) -> Vec<Metric> {
    for m in got {
        if !canon.iter().any(|(n, _)| *n == m.name) {
            r.push(format!("unlisted metric {}", m.name));
        }
    }
    canon
        .iter()
        .map(|&(name, unit)| {
            let value = got.iter().find(|m| m.name == name).map_or(0.0, |m| m.value);
            if !value.is_finite() {
                r.push(format!("metric {name} is {value}"));
            }
            // `+ 0.0` turns the -0.0 of an empty float sum into 0.
            Metric {
                name: name.to_string(),
                value: if value.is_finite() { value + 0.0 } else { 0.0 },
                unit,
            }
        })
        .collect()
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() {
    // The benchmark fixes its own configuration: no inherited knob may
    // arm tracing, chaos, invariant checks or redirect stores.
    for (key, _) in std::env::vars() {
        if key.starts_with("CMPSIM_") {
            std::env::remove_var(key);
        }
    }
    std::env::set_var("CMPSIM_PROGRESS", "0");

    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("record") => return steady::record(),
        Some("steady") => {
            let f = flags(&args[1..]);
            return steady::steady(
                &flag::<String>(&f, "workload", None),
                flag(&f, "runs", Some(10)),
                flag(&f, "seconds", Some(10.0)),
                flag::<u8>(&f, "trace", Some(0)) == 1,
                flag(&f, "first-seed", Some(1)),
            );
        }
        _ => {}
    }
    let f = flags(&args);
    let workload: String = flag(&f, "workload", None);
    let seed: u64 = flag(&f, "seed", Some(11));
    let seconds: f64 = flag(&f, "seconds", Some(10.0));
    let trace = flag::<u8>(&f, "trace", Some(0)) == 1;

    let mut r = run_workload(&workload, seed, seconds, trace);
    let mut problems = std::mem::take(&mut r.problems);
    let metrics = if trace {
        canonical(&r.per_layer, PER_LAYER, &mut problems)
    } else {
        canonical(&r.end_to_end, &END_TO_END, &mut problems)
    };
    let correct = problems.is_empty() && r.failed == 0 && r.attempted > 0;
    eprintln!(
        "perfbench {workload} seed {seed} ({}): attempted {} failed {} error_rate {}",
        if trace { "traced" } else { "untraced" },
        r.attempted,
        r.failed,
        cells::ratio(r.failed as f64, r.attempted as f64)
    );
    for m in &metrics {
        eprintln!("  {:<36} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for p in &problems {
        eprintln!("  problem: {p}");
    }
    println!(
        "{}",
        json_line(correct, r.attempted.max(1), r.failed, &metrics)
    );
}
