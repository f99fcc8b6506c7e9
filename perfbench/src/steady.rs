//! Steadiness mode (repeat one workload over seeds and report each
//! metric's median, quartiles and spread) and record mode (re-pin the
//! model-output digests after an intentional model change).

use crate::common::{median, quartiles_exclusive, PINS_FILE};
use crate::{resume, service, sim, PINNED_SEEDS, WORKLOADS};
use std::process::Command;

/// Extracts `(name, value)` pairs from the benchmark's own JSON line.
fn parse_metrics(line: &str) -> Option<Vec<(String, f64)>> {
    let body = line.split_once("\"metrics\": {")?.1;
    let mut out = Vec::new();
    for part in body.split("}, \"").map(|p| p.trim_start_matches('"')) {
        let (name, rest) = part.split_once("\": {\"value\": ")?;
        let value = rest.split(',').next()?.trim().parse().ok()?;
        out.push((name.to_string(), value));
    }
    Some(out)
}

/// Runs `workload` once per seed `first_seed..first_seed + runs`, each in
/// a fresh process, and prints per metric the median, the quartiles and
/// the spread (quartile distance over median) that the bounds in
/// `BENCHMARK.json` are set against.
pub fn steady(workload: &str, runs: u64, seconds: f64, trace: bool, first_seed: u64) {
    let exe = std::env::current_exe().expect("own executable path");
    let mut samples: Vec<(String, Vec<f64>)> = Vec::new();
    for seed in first_seed..first_seed + runs {
        let out = Command::new(&exe)
            .args(["--workload", workload, "--seed", &seed.to_string()])
            .args([
                "--seconds",
                &seconds.to_string(),
                "--trace",
                if trace { "1" } else { "0" },
            ])
            .output()
            .expect("spawn benchmark run");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let last = stdout.lines().last().unwrap_or("");
        let Some(metrics) = parse_metrics(last).filter(|_| last.contains("\"correct\": true"))
        else {
            eprintln!(
                "seed {seed}: run failed or incorrect:\n{last}\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
            std::process::exit(1);
        };
        eprintln!("seed {seed}: done");
        for (name, v) in metrics {
            match samples.iter_mut().find(|(n, _)| *n == name) {
                Some((_, vs)) => vs.push(v),
                None => samples.push((name, vec![v])),
            }
        }
    }
    println!(
        "{workload}: {runs} runs, seeds {first_seed}..{}",
        first_seed + runs - 1
    );
    println!(
        "{:<36} {:>14} {:>14} {:>14} {:>8}",
        "metric", "median", "q1", "q3", "spread"
    );
    for (name, vs) in &samples {
        let med = median(vs);
        let (q1, q3) = quartiles_exclusive(vs);
        let spread = if med == 0.0 { 0.0 } else { (q3 - q1) / med };
        println!("{name:<36} {med:>14.6} {q1:>14.6} {q3:>14.6} {spread:>8.4}");
    }
}

/// Recomputes every workload's digest at the pinned seeds and rewrites
/// the pins file. Use only for an intentional change to the model.
pub fn record() {
    let mut text = String::from(
        "# Model-output digests per workload and seed (perfbench record).\n\
         # workload seed digest\n",
    );
    for name in WORKLOADS {
        for seed in PINNED_SEEDS {
            let digest = match name {
                "table5_fpc" => sim::digest(&sim::TABLE5_FPC, seed),
                "bdi_stream" => sim::digest(&sim::BDI_STREAM, seed),
                "resume_sweep" => resume::digest(seed).expect("resume_sweep work dir"),
                "sweep_service" => service::digest(seed),
                _ => unreachable!("listed workload"),
            };
            eprintln!("{name} {seed} {digest}");
            text.push_str(&format!("{name} {seed} {digest}\n"));
        }
    }
    std::fs::write(PINS_FILE, text).expect("write pins file");
    eprintln!("wrote {PINS_FILE}");
}
