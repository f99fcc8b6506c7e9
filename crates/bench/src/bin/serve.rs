//! `cmpsim serve` — a sweep daemon in front of the content-addressed
//! result store.
//!
//! Reads flat-JSON sweep requests one per line (the journal/store
//! framing: string and integer values only) and streams back one JSONL
//! record per cell plus a summary with store hit/miss telemetry. Every
//! sweep a daemon process handles shares one [`ResultStore`] handle, so
//! two overlapping requests compute each shared cell exactly once (the
//! second rides the first's in-flight lease) and any later request is
//! served from the store without simulating at all.
//!
//! Transports:
//!
//! - default: requests on stdin, responses on stdout — one process per
//!   client, store sharing across processes via the store directory;
//! - `--socket <path>`: a unix-domain socket; each connection is a
//!   request stream answered on the same connection, all connections
//!   served concurrently against the shared in-process store.
//!
//! Request fields (`workloads`/`variants` are comma-separated lists;
//! both accept `all`, `variants` defaults to the four headline configs;
//! `cores` must lie in `1..=32`, `threads` in `1..=4096`, `warmup` in
//! `0..=2^62` and `measure` in `1..=2^62`; `serve --help` lists every
//! field). A request with a
//! field outside those below, a field given twice, a number sent as a
//! string (or the reverse) or a value out of range is answered with one
//! error line naming the field, and runs nothing:
//!
//! ```text
//! {"sweep":"warm","workloads":"apsi,mgrid","variants":"base,pf","codec":"fpc",
//!  "cores":4,"seed":11,"warmup":5000,"measure":20000,"threads":4}
//! {"metrics":1}
//! {"metrics":1,"format":"prometheus"}
//! {"shutdown":1}
//! ```
//!
//! Per-cell responses carry the cell's source (`store` or `computed`)
//! and its headline counters; the closing summary reports the store
//! hit rate for exactly this sweep plus the full [`StoreStats`] delta
//! (published/lease-wait/eviction/resident-byte telemetry). A sweep
//! with a failing cell (a simulation error, a panic, or a blown
//! `CMPSIM_CELL_DEADLINE_MS`) is answered with a single `error` line
//! naming the first failing cell in row-major order, counted under
//! `serve_errors` and logged as a `sweep_error`.
//! `{"metrics":1}` answers with one flat-JSON line snapshotting the
//! whole service-metric registry (`store_*`, `grid_*`, `serve_*`
//! counters, gauges and latency quantiles); the `prometheus` format
//! variant answers with a Prometheus text block instead (multi-line,
//! terminated by a blank line — the one deliberate departure from the
//! JSONL protocol).
//!
//! Every request carries a connection id and per-connection request id,
//! threaded into the structured access log (`--access-log <path>` or
//! the `CMPSIM_ACCESS_LOG` knob): a crash-safe sealed JSONL file
//! ([`cmpsim_core::seallog`]) whose header goes through tempfile +
//! atomic rename and whose records are CRC-sealed single writes, so a
//! killed daemon never leaves a torn artifact. Example session:
//!
//! ```sh
//! printf '%s\n' '{"sweep":"s","workloads":"apsi","cores":2,"warmup":2000,"measure":8000}' \
//!   | CMPSIM_STORE=target/store cargo run --release -p cmpsim-bench --bin serve
//! ```
//!
//! `serve --help` prints the request fields and the table of `CMPSIM_*`
//! knobs. A malformed knob value exits with status 2 before the daemon
//! starts.

use cmpsim_core::experiment::{run_grid_resilient, GridCell, ResilienceOptions, SimLength};
use cmpsim_core::flatjson::{parse_flat, JsonVal};
use cmpsim_core::seallog::SealedLog;
use cmpsim_core::store::{CellKey, ResultStore};
use cmpsim_core::{journal, CodecKind, SystemConfig, Variant};
use cmpsim_harness::knobs::{MAX_INSTRUCTIONS, MAX_THREADS};
use cmpsim_harness::metrics::{self, Counter, Histogram};
use cmpsim_harness::supervise::default_threads;
use cmpsim_harness::{knobs, Supervisor};
use cmpsim_trace::{all_workloads, WorkloadSpec};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixListener;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The four headline configurations (the paper's Table 2 sweep).
const HEADLINE: [Variant; 4] = [
    Variant::Base,
    Variant::BothCompression,
    Variant::Prefetch,
    Variant::PrefetchCompression,
];

struct Request {
    sweep: String,
    specs: Vec<WorkloadSpec>,
    variants: Vec<Variant>,
    base: SystemConfig,
    len: SimLength,
    threads: usize,
}

/// One parsed request line.
enum Parsed {
    Sweep(Box<Request>),
    /// `{"metrics":1}` — snapshot the service-metric registry.
    Metrics { prometheus: bool },
    Shutdown,
}

/// Request-path service metrics, registered under `serve_*` names.
struct ServeMetrics {
    connections: Counter,
    requests: Counter,
    sweeps: Counter,
    cells: Counter,
    errors: Counter,
    request_nanos: Histogram,
}

impl ServeMetrics {
    fn register() -> Arc<ServeMetrics> {
        let r = metrics::global();
        Arc::new(ServeMetrics {
            connections: r.counter("serve_connections"),
            requests: r.counter("serve_requests"),
            sweeps: r.counter("serve_sweeps"),
            cells: r.counter("serve_cells"),
            errors: r.counter("serve_errors"),
            request_nanos: r.histogram("serve_request_nanos"),
        })
    }
}

/// Per-connection context: ids for the access log plus the shared
/// metric handles and (optional) sealed access log.
struct Ctx {
    conn: u64,
    metrics: Arc<ServeMetrics>,
    log: Option<Arc<Mutex<SealedLog>>>,
}

impl Ctx {
    /// Appends one access-log record; `sweep` is already sanitized.
    fn log_request(&self, req_id: u64, kind: &str, sweep: &str, cells: usize, t0: Instant) {
        let Some(log) = &self.log else { return };
        let elapsed_us = t0.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
        let body = format!(
            "{{\"conn\":{},\"req\":{req_id},\"kind\":\"{kind}\",\"sweep\":\"{sweep}\",\
             \"cells\":{cells},\"elapsed_us\":{elapsed_us}",
            self.conn,
        );
        if let Err(e) = log.lock().unwrap_or_else(std::sync::PoisonError::into_inner).append(body)
        {
            eprintln!("cmpsim serve: access log append failed: {e}");
        }
    }
}

/// Strips characters that would break a flat-JSON string value.
fn sanitize(s: &str) -> String {
    s.replace(['"', '\\'], "'").replace('\n', " ")
}

/// Every request field: its name, whether it takes a string (the others
/// take a number), and what it means, in the order `--help` lists them.
#[rustfmt::skip]
const FIELDS: [(&str, bool, &str); 12] = [
    ("sweep", true, "sweep name echoed in every response line (default sweep)"),
    ("workloads", true, "comma-separated workloads, or all (required)"),
    ("variants", true, "comma-separated variants, or all (default: the four headline)"),
    ("codec", true, "fpc, bdi or zca (default fpc)"),
    ("cores", false, "cores per cell, 1..=32 (default 4)"),
    ("seed", false, "workload seed (default 11)"),
    ("warmup", false, "warmup instructions per core, 0..=2^62 (default CMPSIM_WARMUP, else 1200000)"),
    ("measure", false, "measured instructions per core, 1..=2^62 (default CMPSIM_MEASURE, else 600000)"),
    ("threads", false, "worker threads, 1..=4096 (default CMPSIM_THREADS, else all cores)"),
    ("metrics", false, "1: answer one registry snapshot instead of a sweep"),
    ("format", true, "with metrics: prometheus for the Prometheus text format"),
    ("shutdown", false, "1: stop the daemon"),
];

/// The request-field table `--help` prints.
fn fields_help() -> String {
    let mut s = String::from("Request fields (one flat JSON object per line):\n\n");
    s += &format!("  {:<12}{:<8}{}\n", "NAME", "VALUE", "MEANING");
    for (name, string, doc) in FIELDS {
        s += &format!("  {name:<12}{:<8}{doc}\n", if string { "string" } else { "number" });
    }
    s
}

fn parse_request(line: &str) -> Result<Parsed, String> {
    let kvs = parse_flat(line).ok_or_else(|| "not a flat JSON object".to_string())?;
    let mut map: HashMap<String, JsonVal> = HashMap::with_capacity(kvs.len());
    for (key, val) in kvs {
        let Some(&(_, string, _)) = FIELDS.iter().find(|(name, ..)| *name == key) else {
            return Err(format!("unknown field {key:?}"));
        };
        if matches!(val, JsonVal::Str(_)) != string {
            return Err(format!("{key:?} must be {}", if string { "a string" } else { "a number" }));
        }
        if map.contains_key(&key) {
            return Err(format!("duplicate field {key:?}"));
        }
        map.insert(key, val);
    }
    if map.get("shutdown").and_then(JsonVal::as_u64) == Some(1) {
        return Ok(Parsed::Shutdown);
    }
    let str_field = |k: &str| map.get(k).and_then(JsonVal::as_str);
    let num_field = |k: &str| map.get(k).and_then(JsonVal::as_u64);
    if num_field("metrics") == Some(1) {
        return Ok(Parsed::Metrics { prometheus: str_field("format") == Some("prometheus") });
    }

    let sweep = str_field("sweep").unwrap_or("sweep").to_string();
    let workloads = str_field("workloads").ok_or("missing \"workloads\"")?;
    let specs: Vec<WorkloadSpec> = if workloads == "all" {
        all_workloads()
    } else {
        workloads
            .split(',')
            .map(|name| {
                cmpsim_trace::workload(name.trim())
                    .ok_or_else(|| format!("unknown workload {name:?}"))
            })
            .collect::<Result<_, _>>()?
    };
    let variants: Vec<Variant> = match str_field("variants") {
        None => HEADLINE.to_vec(),
        Some("all") => Variant::all().to_vec(),
        Some(list) => list
            .split(',')
            .map(|label| {
                let label = label.trim();
                Variant::all()
                    .into_iter()
                    .find(|v| v.label() == label)
                    .ok_or_else(|| format!("unknown variant {label:?}"))
            })
            .collect::<Result<_, _>>()?,
    };
    let cores = num_field("cores").unwrap_or(4);
    let max_cores = SystemConfig::MAX_CORES;
    if !(1..=u64::from(max_cores)).contains(&cores) {
        return Err(format!("\"cores\" must be in 1..={max_cores}, got {cores}"));
    }
    let mut base = SystemConfig::paper_default(cores as u8)
        .with_seed(num_field("seed").unwrap_or(cmpsim_bench::SEED));
    if let Some(codec) = str_field("codec") {
        base = base.with_codec(match codec {
            "fpc" => CodecKind::Fpc,
            "bdi" => CodecKind::Bdi,
            "zca" => CodecKind::Zca,
            other => return Err(format!("unknown codec {other:?}")),
        });
    }
    let default_len = cmpsim_bench::sim_length();
    let len = SimLength {
        warmup: num_field("warmup").unwrap_or(default_len.warmup),
        measure: num_field("measure").unwrap_or(default_len.measure),
    };
    if len.measure == 0 {
        return Err("\"measure\" must be at least 1, got 0".to_string());
    }
    for (name, n) in [("warmup", len.warmup), ("measure", len.measure)] {
        if n > MAX_INSTRUCTIONS {
            return Err(format!("{name:?} must be at most {MAX_INSTRUCTIONS}, got {n}"));
        }
    }
    let threads = match num_field("threads") {
        None => default_threads(),
        Some(t @ 1..=MAX_THREADS) => t as usize,
        Some(t) => return Err(format!("\"threads\" must be in 1..={MAX_THREADS}, got {t}")),
    };
    Ok(Parsed::Sweep(Box::new(Request { sweep, specs, variants, base, len, threads })))
}

/// Runs one sweep against the shared store, streaming JSONL to `out`.
/// Returns the number of cell records streamed, or `None` when a cell
/// failed: then the only line streamed is an error naming the first
/// failing cell in row-major order.
fn serve_sweep(
    req: &Request,
    store: &Arc<ResultStore>,
    out: &mut dyn Write,
) -> std::io::Result<Option<usize>> {
    let fp = journal::fingerprint(&req.base, req.len);
    // Label each cell's source up front with a counter-neutral probe, so
    // the summary's hit/miss telemetry reflects only the sweep itself.
    let stored_before: Vec<bool> = req
        .specs
        .iter()
        .flat_map(|spec| {
            req.variants.iter().map(|&v| {
                store.contains(fp, &CellKey::new(spec.name, v, req.base.seed))
            })
        })
        .collect();
    let before = store.stats();
    let opts = ResilienceOptions {
        supervisor: Supervisor::with_threads(req.threads),
        journal: None,
        store: Some(Arc::clone(store)),
    };
    let sweep_result: Result<Vec<GridCell>, _> =
        run_grid_resilient(&req.specs, &req.base, &req.variants, req.len, &opts)
            .into_iter()
            .collect();
    let after = store.stats();
    let cells = match sweep_result {
        Ok(cells) => cells,
        Err(e) => {
            writeln!(
                out,
                "{{\"sweep\":\"{}\",\"error\":\"{}\"}}",
                req.sweep,
                sanitize(&e.to_string())
            )?;
            out.flush()?;
            return Ok(None);
        }
    };
    for (cell, was_stored) in cells.iter().zip(&stored_before) {
        writeln!(
            out,
            "{{\"sweep\":\"{}\",\"workload\":\"{}\",\"variant\":\"{}\",\"seed\":{},\
             \"source\":\"{}\",\"cycles\":{},\"instructions\":{},\"ipc_milli\":{}}}",
            req.sweep,
            cell.workload,
            cell.variant.label(),
            cell.seed,
            if *was_stored { "store" } else { "computed" },
            cell.result.cycles,
            cell.result.stats.instructions,
            (cell.result.ipc() * 1000.0).round() as u64,
        )?;
    }
    let hits = after.hits - before.hits;
    let misses = after.misses - before.misses;
    let served = hits + misses;
    // The closing summary carries the full StoreStats delta for this
    // sweep, plus the store's current on-disk footprint.
    writeln!(
        out,
        "{{\"sweep\":\"{}\",\"done\":1,\"cells\":{},\"store_hits\":{hits},\
         \"store_misses\":{misses},\"hit_rate_pct\":{},\"corrupt_skipped\":{},\
         \"published\":{},\"lease_waits\":{},\"evicted_files\":{},\"evicted_bytes\":{},\
         \"resident_bytes\":{}}}",
        req.sweep,
        cells.len(),
        (hits * 100).checked_div(served).unwrap_or(0),
        after.corrupt_skipped - before.corrupt_skipped,
        after.published - before.published,
        after.shared_waits - before.shared_waits,
        after.evicted_files - before.evicted_files,
        after.evicted_bytes - before.evicted_bytes,
        store.resident_bytes(),
    )?;
    out.flush()?;
    Ok(Some(cells.len()))
}

/// Answers `{"metrics":1}`: refreshes the store-occupancy gauge, then
/// writes the registry snapshot as one flat-JSON line (or a Prometheus
/// text block when requested).
fn serve_metrics(
    store: &Arc<ResultStore>,
    prometheus: bool,
    out: &mut dyn Write,
) -> std::io::Result<()> {
    store.resident_bytes();
    let snap = metrics::global().snapshot();
    if prometheus {
        out.write_all(snap.to_prometheus().as_bytes())?;
        out.write_all(b"\n")?;
    } else {
        writeln!(out, "{}", snap.to_flat_json())?;
    }
    out.flush()
}

/// Handles one request stream: a line per sweep until EOF or shutdown.
/// Returns whether a shutdown request was seen.
fn serve_stream(
    reader: impl BufRead,
    out: &mut dyn Write,
    store: &Arc<ResultStore>,
    ctx: &Ctx,
) -> std::io::Result<bool> {
    let m = &ctx.metrics;
    m.connections.inc();
    let mut req_id = 0u64;
    for line in reader.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        req_id += 1;
        let t0 = Instant::now();
        m.requests.inc();
        match parse_request(&line) {
            Ok(Parsed::Sweep(req)) => {
                let cells = serve_sweep(&req, store, out)?;
                match cells {
                    Some(n) => {
                        m.sweeps.inc();
                        m.cells.add(n as u64);
                    }
                    None => m.errors.inc(),
                }
                m.request_nanos.record_elapsed(t0);
                let kind = if cells.is_some() { "sweep" } else { "sweep_error" };
                let cells = cells.unwrap_or(0);
                ctx.log_request(req_id, kind, &sanitize(&req.sweep), cells, t0);
            }
            Ok(Parsed::Metrics { prometheus }) => {
                serve_metrics(store, prometheus, out)?;
                m.request_nanos.record_elapsed(t0);
                ctx.log_request(req_id, "metrics", "", 0, t0);
            }
            Ok(Parsed::Shutdown) => {
                ctx.log_request(req_id, "shutdown", "", 0, t0);
                return Ok(true);
            }
            Err(e) => {
                writeln!(out, "{{\"error\":\"{}\"}}", sanitize(&e))?;
                out.flush()?;
                m.errors.inc();
                m.request_nanos.record_elapsed(t0);
                ctx.log_request(req_id, "parse_error", "", 0, t0);
            }
        }
    }
    Ok(false)
}

/// The daemon's closing summary: the full lifetime [`StoreStats`] of
/// this process's store handle, on stderr.
fn closing_summary(store: &Arc<ResultStore>) {
    let s = store.stats();
    eprintln!(
        "cmpsim serve: closing summary: hits {} misses {} ({:.0}% hit rate), published {}, \
         lease waits {}, corrupt skipped {}, evicted {} files / {} bytes, resident {} bytes",
        s.hits,
        s.misses,
        s.hit_rate_pct(),
        s.published,
        s.shared_waits,
        s.corrupt_skipped,
        s.evicted_files,
        s.evicted_bytes,
        store.resident_bytes(),
    );
}

const USAGE: &str = "usage: serve [--socket <path>] [--access-log <path>]   \
                     (requests on stdin by default; CMPSIM_ACCESS_LOG also sets the log)";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help") {
        println!("{USAGE}\n\n{}\n{}", fields_help(), cmpsim_harness::knobs::help());
        return;
    }
    let mut socket: Option<String> = None;
    let mut access_log = knobs().access_log.clone();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match (flag.as_str(), it.next()) {
            ("--socket", Some(path)) => socket = Some(path.clone()),
            ("--access-log", Some(path)) => access_log = Some(path.into()),
            _ => {
                eprintln!("{USAGE}");
                std::process::exit(2);
            }
        }
    }

    let store = ResultStore::open_default();
    eprintln!("cmpsim serve: store at {}", store.dir().display());
    let serve_metrics = ServeMetrics::register();
    let log = access_log.and_then(|path| match SealedLog::open(&path) {
        Ok(log) => {
            eprintln!("cmpsim serve: access log at {}", path.display());
            Some(Arc::new(Mutex::new(log)))
        }
        Err(e) => {
            eprintln!("cmpsim serve: cannot open access log {}: {e}", path.display());
            None
        }
    });

    match socket {
        None => {
            let stdin = std::io::stdin();
            let mut stdout = std::io::stdout();
            let ctx = Ctx { conn: 1, metrics: serve_metrics, log };
            serve_stream(stdin.lock(), &mut stdout, &store, &ctx)
                .expect("stdio transport failed");
            closing_summary(&store);
        }
        Some(path) => {
            let _ = std::fs::remove_file(&path);
            let listener = UnixListener::bind(&path)
                .unwrap_or_else(|e| panic!("cannot bind {path}: {e}"));
            eprintln!("cmpsim serve: listening on {path}");
            let shutdown = Arc::new(AtomicBool::new(false));
            let conn_ids = AtomicU64::new(0);
            let mut workers = Vec::new();
            for conn in listener.incoming() {
                if shutdown.load(Ordering::SeqCst) {
                    break;
                }
                let conn = match conn {
                    Ok(c) => c,
                    Err(e) => {
                        eprintln!("cmpsim serve: accept failed: {e}");
                        continue;
                    }
                };
                // Concurrent connections share the store handle — this is
                // where overlapping sweeps dedup against each other.
                let store = Arc::clone(&store);
                let shutdown = Arc::clone(&shutdown);
                let sock_path = path.clone();
                let ctx = Ctx {
                    conn: conn_ids.fetch_add(1, Ordering::Relaxed) + 1,
                    metrics: serve_metrics.clone(),
                    log: log.clone(),
                };
                workers.push(std::thread::spawn(move || {
                    let reader = BufReader::new(conn.try_clone().expect("clone socket"));
                    let mut writer = conn;
                    match serve_stream(reader, &mut writer, &store, &ctx) {
                        Ok(true) => {
                            shutdown.store(true, Ordering::SeqCst);
                            // Unblock the accept loop so it can observe
                            // the flag and exit.
                            let _ = std::os::unix::net::UnixStream::connect(&sock_path);
                        }
                        Ok(false) => {}
                        Err(e) => eprintln!("cmpsim serve: connection failed: {e}"),
                    }
                }));
            }
            for w in workers {
                let _ = w.join();
            }
            let _ = std::fs::remove_file(&path);
            closing_summary(&store);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmpsim_core::flatjson::seal;
    use cmpsim_harness::gen::{pair, select, vec_of};
    use cmpsim_harness::prop::check;

    const REQUEST: &str = "{\"sweep\":\"s\",\"workloads\":\"apsi,mgrid\",\"variants\":\"base,pf\",\
        \"codec\":\"bdi\",\"cores\":4,\"seed\":11,\"warmup\":2000,\"measure\":8000,\"threads\":2}";

    /// The leading fields of a sealed store record, as a client might
    /// paste one into the daemon.
    fn store_record() -> String {
        seal("{\"workload\":\"apsi\",\"variant\":\"pf+compr\",\"seed\":11,\"cycles\":987654321".into())
    }

    /// `parse_request` answers `Err` or a request whose fields lie within
    /// their bounds; a panic fails the calling test.
    fn parse_in_bounds(line: &str) -> Result<(), String> {
        let Ok(Parsed::Sweep(req)) = parse_request(line) else { return Ok(()) };
        let in_bounds = (1..=SystemConfig::MAX_CORES).contains(&req.base.cores)
            && (1..=MAX_INSTRUCTIONS).contains(&req.len.measure)
            && req.len.warmup <= MAX_INSTRUCTIONS
            && (1..=MAX_THREADS as usize).contains(&req.threads);
        if in_bounds {
            return Ok(());
        }
        Err(format!("{line}: cores {}, {:?}, threads {}", req.base.cores, req.len, req.threads))
    }

    #[test]
    fn every_prefix_and_byte_substitution_parses_in_bounds() {
        assert!(matches!(parse_request(REQUEST), Ok(Parsed::Sweep(_))));
        for full in [REQUEST.to_string(), store_record()] {
            for cut in 0..full.len() {
                assert!(parse_request(&full[..cut]).is_err(), "{:?}", &full[..cut]);
            }
            for at in 0..full.len() {
                for b in 0..0x80u8 {
                    let mut bytes = full.clone().into_bytes();
                    bytes[at] = b;
                    parse_in_bounds(&String::from_utf8(bytes).unwrap()).unwrap();
                }
            }
        }
    }

    /// Lengths past `MAX_INSTRUCTIONS` used to wrap the engine's quotas
    /// (a daemon answered 0 measured instructions); numbers past `u64`
    /// do not parse at all.
    #[test]
    fn long_numbers_are_rejected_or_in_bounds() {
        let pinned = [
            ("warmup", "18446744073709551615", Some("\"warmup\" must be at most 4611686018427387904")),
            ("measure", "4611686018427387905", Some("\"measure\" must be at most 4611686018427387904")),
            ("measure", "4611686018427387904", None),
            ("warmup", "4611686018427387904", None),
            ("threads", "18446744073709551615", Some("\"threads\" must be in 1..=4096")),
            ("cores", "18446744073709551615", Some("\"cores\" must be in 1..=32")),
            ("measure", "18446744073709551616", Some("not a flat JSON object")),
        ];
        for (field, n, want) in pinned {
            let line = format!("{{\"workloads\":\"apsi\",\"{field}\":{n}}}");
            match (parse_request(&line), want) {
                (Err(e), Some(want)) => assert!(e.starts_with(want), "{line}: {e}"),
                (Ok(Parsed::Sweep(_)), None) => {}
                (got, _) => panic!("{line}: got {:?}", got.err()),
            }
        }
        for field in ["cores", "seed", "warmup", "measure", "threads", "metrics", "shutdown"] {
            for n in 20..=40 {
                for d in ["9".repeat(n), format!("1{}", "0".repeat(n - 1)), format!("{}7", "0".repeat(n - 1))] {
                    parse_in_bounds(&format!("{{\"workloads\":\"apsi\",\"{field}\":{d}}}")).unwrap();
                }
            }
        }
    }

    #[test]
    fn duplicate_keys_are_rejected() {
        for field in ["workloads", "measure", "metrics"] {
            let line = format!("{{\"workloads\":\"apsi\",\"measure\":5,\"metrics\":0,\"{field}\":{}}}",
                if field == "workloads" { "\"mgrid\"" } else { "7" });
            assert_eq!(parse_request(&line).err(), Some(format!("duplicate field {field:?}")));
        }
    }

    #[test]
    fn random_json_like_requests_parse_in_bounds() {
        let tokens = [
            "{", "}", "\"", ":", ",", " ", "0", "1", "7", "\"workloads\"", "\"apsi\"", "\"all\"",
            "\"cores\"", "\"measure\"", "\"warmup\"", "\"threads\"", "\"metrics\"", "\"shutdown\"",
            "\"variants\"", "\"codec\"", "\"bdi\"", "4611686018427387905", "18446744073709551615",
        ];
        check("serve_requests_parse_in_bounds", &vec_of(select(tokens.to_vec()), 0..24), |parts| {
            parse_in_bounds(&parts.concat())
        });
        // Well-formed objects of known and unknown keys reach the bounds.
        let keys: Vec<&str> = FIELDS.iter().map(|(name, ..)| *name).chain(["measur"]).collect();
        let values = [
            "\"apsi\"", "\"all\"", "\"base,pf\"", "\"zca\"", "\"\"", "0", "1", "2", "32", "33",
            "4096", "4097", "4611686018427387904", "4611686018427387905", "18446744073709551615",
        ];
        let gen = vec_of(pair(select(keys), select(values.to_vec())), 0..6);
        check("serve_objects_parse_in_bounds", &gen, |kvs| {
            let body: Vec<String> = kvs.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
            parse_in_bounds(&format!("{{\"workloads\":\"apsi\",{}}}", body.join(",")))
        });
    }
}
