//! `sweep_service`: the `serve` daemon on its unix socket, with a fresh
//! store and the sealed access log, driven by two closed-loop
//! connections through a seed-derived mix of all-hit sweeps, new-seed
//! sweeps, sweeps overlapping on both connections, and metrics queries.

use crate::cells::{layer_metrics, run_cell, CellRun};
use crate::common::{
    check_pin, fastest_rate, fastest_time, fold, median, quantile, secs, vm_hwm_mib, Report,
    SeedRng, WorkDir, FOLD_INIT,
};
use crate::replay;
use crate::resume::store_costs;
use crate::sim::HEADLINE;
use cmpsim_core::experiment::SimLength;
use cmpsim_core::flatjson::{parse_flat, JsonVal};
use cmpsim_core::journal::{self, JournalEntry};
use cmpsim_core::seallog::{self, SealedLog};
use cmpsim_core::{CodecKind, SystemConfig, Variant};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Barrier;
use std::time::{Duration, Instant};

const CORES: u8 = 2;
const LEN: SimLength = SimLength {
    warmup: 1_000,
    measure: 4_000,
};
/// Workloads whose 16 headline cells are published first and then
/// served by every all-hit request.
const POOL: [&str; 4] = ["apache", "zeus", "art", "mgrid"];
/// Requests per connection per pass, after the priming sweep.
const REQUESTS: usize = 100;

/// A cell's identity and the counters the daemon reports for it.
type Key = (String, String, u64);
type Counters = (u64, u64, u64);

#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Hit,
    Miss,
    Overlap,
    Metrics,
}

#[derive(Debug, Clone)]
struct Request {
    kind: Kind,
    line: String,
    /// Cells the sweep must return (0 for a metrics query).
    cells: Vec<(&'static str, Variant, u64)>,
}

fn sweep(tag: &str, cells: Vec<(&'static str, Variant, u64)>) -> Request {
    let seed = cells[0].2;
    let mut workloads: Vec<&str> = cells.iter().map(|c| c.0).collect();
    workloads.dedup();
    let mut variants: Vec<&str> = cells.iter().map(|c| c.1.label()).collect();
    variants.sort_unstable();
    variants.dedup();
    // The daemon answers the cross product of the listed workloads and
    // variants; every request here lists exactly the cells it wants.
    let line = format!(
        "{{\"sweep\":\"{tag}\",\"workloads\":\"{}\",\"variants\":\"{}\",\"cores\":{CORES},\
         \"seed\":{seed},\"warmup\":{},\"measure\":{},\"threads\":1}}",
        workloads.join(","),
        variants.join(","),
        LEN.warmup,
        LEN.measure
    );
    let kind = match tag {
        "hit" => Kind::Hit,
        "overlap" => Kind::Overlap,
        _ => Kind::Miss,
    };
    Request { kind, line, cells }
}

/// Every workload the new-seed sweeps draw from.
const ALL: [&str; 8] = [
    "apache", "zeus", "oltp", "jbb", "art", "apsi", "fma3d", "mgrid",
];

/// Fisher-Yates shuffle driven by the benchmark's seed.
fn shuffle<T>(xs: &mut [T], rng: &mut SeedRng) {
    for i in (1..xs.len()).rev() {
        xs.swap(i, rng.below(i as u64 + 1) as usize);
    }
}

/// The priming sweep plus the two connections' schedules. The mix is
/// fixed — per connection 50 all-hit sweeps (each pool workload with 1–4
/// variants), 32 new-seed sweeps (every workload × headline variant once),
/// 8 overlapping sweeps (every workload once, shared by both connections)
/// and 10 metrics queries — and `seed` sets the order, the hit sweeps'
/// shapes and every simulated cell. Both connections share the kind
/// order, so each overlapping sweep meets its twin at a barrier.
fn schedule(seed: u64) -> (Request, [Vec<Request>; 2]) {
    let prime = sweep(
        "prime",
        POOL.iter()
            .flat_map(|&w| HEADLINE.iter().map(move |&v| (w, v, seed)))
            .collect(),
    );
    let mut rng = SeedRng::new(seed);
    let mut kinds: Vec<Kind> = [
        (Kind::Hit, 50),
        (Kind::Miss, 32),
        (Kind::Overlap, 8),
        (Kind::Metrics, 10),
    ]
    .iter()
    .flat_map(|&(k, n)| std::iter::repeat_n(k, n))
    .collect();
    debug_assert_eq!(kinds.len(), REQUESTS);
    shuffle(&mut kinds, &mut rng);
    // Fresh seeds for computed cells, distinct from `seed` and from each
    // other; stream 2 is the overlapping sweeps'.
    let fresh = |stream: usize, i: usize| {
        seed.wrapping_mul(1_000_003)
            .wrapping_add(1 + (stream * REQUESTS + i) as u64)
    };
    let mut overlap_workloads = ALL;
    shuffle(&mut overlap_workloads, &mut rng);
    let mut conns: [Vec<Request>; 2] = Default::default();
    for (conn, reqs) in conns.iter_mut().enumerate() {
        let mut hits: Vec<(usize, usize)> = (0..50).map(|j| (j % 4, 1 + (j / 4) % 4)).collect();
        shuffle(&mut hits, &mut rng);
        let mut misses: Vec<(&str, Variant)> = ALL
            .iter()
            .flat_map(|&w| HEADLINE.iter().map(move |&v| (w, v)))
            .collect();
        shuffle(&mut misses, &mut rng);
        let (mut hits, mut misses, mut overlaps) = (
            hits.into_iter(),
            misses.into_iter(),
            overlap_workloads.iter(),
        );
        for (i, &kind) in kinds.iter().enumerate() {
            let req = match kind {
                Kind::Hit => {
                    let (w, n) = hits.next().expect("50 hit sweeps");
                    let first = rng.below((5 - n) as u64) as usize;
                    sweep(
                        "hit",
                        HEADLINE[first..first + n]
                            .iter()
                            .map(|&v| (POOL[w], v, seed))
                            .collect(),
                    )
                }
                Kind::Miss => {
                    let (w, v) = misses.next().expect("32 new-seed sweeps");
                    sweep("miss", vec![(w, v, fresh(conn, i))])
                }
                Kind::Overlap => {
                    let w = *overlaps.next().expect("8 overlapping sweeps");
                    sweep(
                        "overlap",
                        [Variant::Base, Variant::PrefetchCompression]
                            .map(|v| (w, v, fresh(2, i)))
                            .to_vec(),
                    )
                }
                Kind::Metrics => Request {
                    kind,
                    line: "{\"metrics\":1}".to_string(),
                    cells: Vec::new(),
                },
            };
            reqs.push(req);
        }
    }
    (prime, conns)
}

/// In-process reference results for every distinct cell of the schedule.
fn reference(prime: &Request, conns: &[Vec<Request>; 2], r: &mut Report) -> BTreeMap<Key, CellRun> {
    let mut out = BTreeMap::new();
    for req in std::iter::once(prime).chain(conns.iter().flatten()) {
        for &(w, v, s) in &req.cells {
            let key = (w.to_string(), v.label().to_string(), s);
            if out.contains_key(&key) {
                continue;
            }
            let spec = cmpsim_trace::workload(w).expect("paper workload");
            match run_cell(
                &spec,
                &SystemConfig::paper_default(CORES).with_seed(s),
                v,
                LEN,
            ) {
                Ok(cell) => {
                    out.insert(key, cell);
                }
                Err(e) => r.check(Some(format!("reference {w} {v} seed {s}: {e}"))),
            }
        }
    }
    out
}

fn counters(c: &CellRun) -> Counters {
    (
        c.result.cycles,
        c.result.stats.instructions,
        (c.result.ipc() * 1000.0).round() as u64,
    )
}

/// Fold of every distinct cell's reported counters, in key order.
fn fold_cells(cells: &BTreeMap<Key, CellRun>) -> String {
    let mut h = FOLD_INIT;
    for ((w, v, s), cell) in cells {
        for b in w.bytes().chain(v.bytes()) {
            fold(&mut h, u64::from(b));
        }
        let (cycles, insts, ipc) = counters(cell);
        for x in [*s, cycles, insts, ipc] {
            fold(&mut h, x);
        }
    }
    format!("{h:016x}")
}

/// Digest of the schedule's cells for `seed`, for the record mode.
pub fn digest(seed: u64) -> String {
    let (prime, conns) = schedule(seed);
    fold_cells(&reference(&prime, &conns, &mut Report::default()))
}

/// One line-oriented connection to the daemon.
struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

/// What one request returned.
struct Reply {
    latency_s: f64,
    lines: Vec<Vec<(String, JsonVal)>>,
}

impl Conn {
    fn open(path: &Path) -> std::io::Result<Conn> {
        let writer = UnixStream::connect(path)?;
        writer.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn {
            reader: BufReader::new(writer.try_clone()?),
            writer,
        })
    }

    /// Sends one request and reads its reply: a metrics line, or cell
    /// lines up to the `done` summary (or an error line).
    fn call(&mut self, line: &str, metrics: bool) -> std::io::Result<Reply> {
        let t0 = Instant::now();
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        let mut lines = Vec::new();
        loop {
            let mut buf = String::new();
            if self.reader.read_line(&mut buf)? == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "daemon closed",
                ));
            }
            let kvs = parse_flat(buf.trim_end()).ok_or_else(|| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("bad reply {buf:?}"),
                )
            })?;
            let last = metrics
                || kvs
                    .iter()
                    .any(|(k, v)| (k == "done" && v.as_u64() == Some(1)) || k == "error");
            lines.push(kvs);
            if last {
                return Ok(Reply {
                    latency_s: secs(t0),
                    lines,
                });
            }
        }
    }
}

fn field(kvs: &[(String, JsonVal)], key: &str) -> Option<u64> {
    kvs.iter()
        .find(|(k, _)| k == key)
        .and_then(|(_, v)| v.as_u64())
}

fn text<'a>(kvs: &'a [(String, JsonVal)], key: &str) -> Option<&'a str> {
    kvs.iter()
        .find(|(k, _)| k == key)
        .and_then(|(_, v)| v.as_str())
}

/// Checks a sweep reply: no error, the expected cell count, and every
/// cell's counters equal to the in-process reference.
fn check_reply(req: &Request, reply: &Reply, want: &BTreeMap<Key, CellRun>) -> Option<String> {
    if req.kind == Kind::Metrics {
        return match reply.lines.first().and_then(|l| field(l, "metrics")) {
            Some(1) => None,
            _ => Some("metrics query without a metrics reply".to_string()),
        };
    }
    let Some((done, cells)) = reply.lines.split_last() else {
        return Some(format!("{}: empty reply", req.line));
    };
    if field(done, "done") != Some(1) {
        return Some(format!("{}: {:?}", req.line, text(done, "error")));
    }
    if cells.len() != req.cells.len() || field(done, "cells") != Some(req.cells.len() as u64) {
        return Some(format!(
            "{}: {} cells, expected {}",
            req.line,
            cells.len(),
            req.cells.len()
        ));
    }
    for kvs in cells {
        let key = (
            text(kvs, "workload").unwrap_or("").to_string(),
            text(kvs, "variant").unwrap_or("").to_string(),
            field(kvs, "seed").unwrap_or(0),
        );
        let got = (
            field(kvs, "cycles"),
            field(kvs, "instructions"),
            field(kvs, "ipc_milli"),
        );
        match want.get(&key) {
            Some(cell) => {
                let (c, i, p) = counters(cell);
                if got != (Some(c), Some(i), Some(p)) {
                    return Some(format!("{key:?}: counters {got:?} != ({c}, {i}, {p})"));
                }
            }
            None => return Some(format!("{key:?}: cell not requested")),
        }
    }
    None
}

/// Latency samples of one pass.
#[derive(Default)]
struct Samples {
    hit_ms: Vec<f64>,
    miss_ms: Vec<f64>,
    all_ms: Vec<f64>,
    /// `(latency s, cells computed, kind)` per sweep request.
    sweeps: Vec<(f64, u64, Kind)>,
    /// `(request id on its connection, latency ms)` per request.
    by_req: Vec<(u64, f64)>,
}

/// Runs one connection's schedule, whose first request gets the daemon's
/// per-connection id `first_req`; returns its samples and the failed
/// checks as `(attempted, problems)`.
fn drive(
    conn: &mut Conn,
    reqs: &[Request],
    first_req: u64,
    want: &BTreeMap<Key, CellRun>,
    barrier: &Barrier,
) -> (Samples, u64, Vec<String>) {
    let mut s = Samples::default();
    let mut problems = Vec::new();
    for (req_id, req) in (first_req..).zip(reqs) {
        if req.kind == Kind::Overlap {
            barrier.wait();
        }
        match conn.call(&req.line, req.kind == Kind::Metrics) {
            Ok(reply) => {
                problems.extend(check_reply(req, &reply, want));
                let ms = reply.latency_s * 1e3;
                s.all_ms.push(ms);
                s.by_req.push((req_id, ms));
                if req.kind != Kind::Metrics {
                    // The summary's store deltas include the other
                    // connection's concurrent work, so each cell's own
                    // `source` label decides what this request computed.
                    let computed = reply
                        .lines
                        .iter()
                        .filter(|l| text(l, "source") == Some("computed"))
                        .count() as u64;
                    match req.kind {
                        Kind::Hit if computed == 0 => s.hit_ms.push(ms),
                        Kind::Miss => s.miss_ms.push(ms),
                        _ => {}
                    }
                    s.sweeps.push((reply.latency_s, computed, req.kind));
                }
            }
            Err(e) => problems.push(format!("{}: {e}", req.line)),
        }
    }
    (s, reqs.len() as u64, problems)
}

struct Daemon {
    child: Child,
    dir: PathBuf,
}

impl Daemon {
    fn socket(&self) -> PathBuf {
        self.dir.join("serve.sock")
    }

    fn spawn(exe: &Path, dir: PathBuf) -> std::io::Result<Daemon> {
        std::fs::create_dir_all(&dir)?;
        let child = Command::new(exe)
            .arg("--socket")
            .arg(dir.join("serve.sock"))
            .arg("--access-log")
            .arg(dir.join("access.jsonl"))
            .env("CMPSIM_STORE", dir.join("store"))
            .env("CMPSIM_PROGRESS", "0")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()?;
        Ok(Daemon { child, dir })
    }

    /// Connects once the daemon listens (within `limit`).
    fn connect(&self, limit: Duration) -> std::io::Result<Conn> {
        let t0 = Instant::now();
        loop {
            match Conn::open(&self.socket()) {
                Ok(c) => return Ok(c),
                Err(e) if t0.elapsed() > limit => return Err(e),
                Err(_) => std::thread::sleep(Duration::from_micros(200)),
            }
        }
    }

    /// Waits for exit after a shutdown request, killing on timeout.
    fn wait(mut self) {
        let t0 = Instant::now();
        while t0.elapsed() < Duration::from_secs(10) {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Everything one pass measured.
struct Pass {
    setup_s: f64,
    wall_s: f64,
    rss_mib: f64,
    samples: Samples,
    /// The daemon's metrics snapshot at the end of the pass.
    snapshot: Vec<(String, JsonVal)>,
    log_bytes: f64,
    requests: u64,
    /// Client latency minus daemon time, per request.
    transport_ms: Vec<f64>,
}

fn run_pass(
    exe: &Path,
    dir: PathBuf,
    prime: &Request,
    conns: &[Vec<Request>; 2],
    want: &BTreeMap<Key, CellRun>,
    r: &mut Report,
) -> Result<Pass, String> {
    let t_spawn = Instant::now();
    let daemon = Daemon::spawn(exe, dir).map_err(|e| format!("spawn serve: {e}"))?;
    let mut c0 = daemon
        .connect(Duration::from_secs(30))
        .map_err(|e| format!("connect: {e}"))?;
    c0.call("{\"metrics\":1}", true)
        .map_err(|e| format!("first reply: {e}"))?;
    let setup_s = secs(t_spawn);
    let mut c1 = daemon
        .connect(Duration::from_secs(5))
        .map_err(|e| format!("connect: {e}"))?;

    let t0 = Instant::now();
    match c0.call(&prime.line, false) {
        Ok(reply) => r.check(check_reply(prime, &reply, want)),
        Err(e) => r.check(Some(format!("prime: {e}"))),
    }
    let barrier = Barrier::new(2);
    let (mut a, mut b) = std::thread::scope(|scope| {
        let (barrier, want) = (&barrier, want);
        // Connection 0 already sent the first metrics query and the
        // priming sweep (requests 1 and 2).
        let h0 = scope.spawn(|| drive(&mut c0, &conns[0], 3, want, barrier));
        let h1 = scope.spawn(|| drive(&mut c1, &conns[1], 1, want, barrier));
        (
            h0.join().expect("connection 0 driver"),
            h1.join().expect("connection 1 driver"),
        )
    });
    let wall_s = secs(t0);

    let mut samples = Samples::default();
    let mut requests = 1;
    let by_conn = [
        std::mem::take(&mut a.0.by_req),
        std::mem::take(&mut b.0.by_req),
    ];
    for (s, attempted, problems) in [a, b] {
        requests += attempted;
        r.attempted += attempted;
        r.failed += problems.len() as u64;
        r.problems.extend(problems.into_iter().take(5));
        samples.hit_ms.extend(s.hit_ms);
        samples.miss_ms.extend(s.miss_ms);
        samples.all_ms.extend(s.all_ms);
        samples.sweeps.extend(s.sweeps);
    }
    let snapshot = c0
        .call("{\"metrics\":1}", true)
        .ok()
        .and_then(|mut reply| reply.lines.pop())
        .unwrap_or_default();
    let rss_mib = vm_hwm_mib(Some(daemon.child.id())).unwrap_or(0.0);
    drop(c1);
    // Shutdown has no reply; the daemon exits once both connections close.
    let _ = c0.writer.write_all(b"{\"shutdown\":1}\n");
    drop(c0);
    let access_log = daemon.dir.join("access.jsonl");
    let log_bytes = std::fs::metadata(&access_log)
        .map(|m| m.len() as f64)
        .unwrap_or(0.0);
    daemon.wait();
    Ok(Pass {
        transport_ms: transport_ms(&access_log, &by_conn),
        setup_s,
        wall_s,
        rss_mib,
        samples,
        snapshot,
        log_bytes,
        requests,
    })
}

/// Client latency minus the daemon's own `elapsed_us` for the same
/// request, paired through the access log's `(conn, req)` ids: the
/// daemon numbers connections from 1 in accept order, and connection 0
/// connects first.
fn transport_ms(log: &Path, by_conn: &[Vec<(u64, f64)>; 2]) -> Vec<f64> {
    let Ok(contents) = seallog::read(log) else {
        return Vec::new();
    };
    let daemon: BTreeMap<(u64, u64), f64> = contents
        .records
        .iter()
        .filter_map(|kvs| {
            let key = (field(kvs, "conn")?, field(kvs, "req")?);
            Some((key, field(kvs, "elapsed_us")? as f64 / 1e3))
        })
        .collect();
    (1..)
        .zip(by_conn)
        .flat_map(|(conn, reqs)| {
            reqs.iter()
                .filter_map(|(req, ms)| daemon.get(&(conn, *req)).map(|d| ms - d))
                .collect::<Vec<_>>()
        })
        .collect()
}

/// Median microseconds of sealed access-log appends of the daemon's
/// record shape.
fn seallog_append_us(dir: &Path) -> f64 {
    let Ok(mut log) = SealedLog::open(dir.join("replay-access.jsonl")) else {
        return 0.0;
    };
    let us: Vec<f64> = (0..500)
        .map(|i| {
            let body = format!(
                "{{\"conn\":1,\"req\":{i},\"kind\":\"sweep\",\"sweep\":\"hit\",\"cells\":4,\"elapsed_us\":{}",
                400 + i % 97
            );
            let t0 = Instant::now();
            log.append(body).expect("replay access-log append");
            secs(t0) * 1e6
        })
        .collect();
    quantile(&us, 0.5)
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Report {
    let mut r = Report::default();
    let exe = match std::env::current_exe() {
        Ok(p) => p.with_file_name("serve"),
        Err(e) => {
            r.check(Some(format!("own executable path: {e}")));
            return r;
        }
    };
    let work = match WorkDir::new("sweep_service") {
        Ok(w) => w,
        Err(e) => {
            r.check(Some(format!("cannot create work dir: {e}")));
            return r;
        }
    };
    let (prime, conns) = schedule(seed);
    let want = reference(&prime, &conns, &mut r);
    if let Some(p) = check_pin("sweep_service", seed, &fold_cells(&want)) {
        r.failed += 1;
        r.problems.push(p);
    }

    let t_run = Instant::now();
    let mut passes = Vec::new();
    let mut traced_extra_s = 0.0;
    let mut persist = Vec::new();
    while passes.is_empty() || secs(t_run) < seconds {
        let dir = work.path().join(format!("pass-{}", passes.len()));
        match run_pass(&exe, dir.clone(), &prime, &conns, &want, &mut r) {
            Ok(p) => {
                if trace {
                    let t0 = Instant::now();
                    persist.push((store_replay(&dir, seed, &want), seallog_append_us(&dir)));
                    traced_extra_s += secs(t0);
                }
                passes.push(p);
            }
            Err(e) => {
                r.check(Some(e));
                break;
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    let untraced_s = secs(t_run) - traced_extra_s;
    if passes.is_empty() {
        return r;
    }
    let per = |f: &dyn Fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let snap = |p: &Pass, key: &str| field(&p.snapshot, key).unwrap_or(0) as f64;
    // Simulated instructions of the cells the daemon computed, over its
    // own compute time per cell (System::new + System::run).
    let retired_per_cell =
        want.values().map(|c| c.result.retired as f64).sum::<f64>() / want.len().max(1) as f64;
    let each = |f: &dyn Fn(&Pass) -> f64| passes.iter().map(f).collect::<Vec<_>>();
    let mips = fastest_rate(&each(&|p| {
        retired_per_cell * snap(p, "grid_cell_compute_nanos_count")
            / snap(p, "grid_cell_compute_nanos_sum").max(1.0)
            * 1e3
    }));
    r.host_times(
        mips,
        fastest_time(&each(&|p| p.wall_s)),
        per(&|p| p.setup_s),
    );
    r.e2e("peak_rss_mib", per(&|p| p.rss_mib), "MiB");

    if trace {
        let specs: Vec<_> = POOL
            .iter()
            .map(|n| cmpsim_trace::workload(n).expect("paper workload"))
            .collect();
        let (costs, bad) = replay::run(&specs, seed, CodecKind::Fpc);
        for p in bad {
            r.check(Some(p));
        }
        let cells: Vec<CellRun> = want.values().cloned().collect();
        layer_metrics(&mut r, &cells, 1, CodecKind::Fpc, &costs);
        let all = |f: &dyn Fn(&Samples) -> &Vec<f64>| -> Vec<f64> {
            passes
                .iter()
                .flat_map(|p| f(&p.samples).iter().copied())
                .collect()
        };
        let (hit, miss, every) = (
            all(&|s| &s.hit_ms),
            all(&|s| &s.miss_ms),
            all(&|s| &s.all_ms),
        );
        r.layer("serve.hit_req_ms_p50", quantile(&hit, 0.5), "ms");
        r.layer("serve.hit_req_ms_p95", quantile(&hit, 0.95), "ms");
        r.layer("serve.hit_samples", hit.len() as f64, "count");
        r.layer("serve.miss_req_ms_p50", quantile(&miss, 0.5), "ms");
        r.layer("serve.miss_req_ms_p95", quantile(&miss, 0.95), "ms");
        r.layer("serve.miss_samples", miss.len() as f64, "count");
        r.layer(
            "serve.req_per_s",
            per(&|p| p.requests as f64 / p.wall_s),
            "req/s",
        );
        let daemon_ms = per(&|p| snap(p, "serve_request_nanos_p50") / 1e6);
        r.layer("serve.daemon_ms_p50", daemon_ms, "ms");
        let transport: Vec<f64> = passes
            .iter()
            .flat_map(|p| p.transport_ms.iter().copied())
            .collect();
        if transport.len() < every.len() {
            r.check(Some(format!(
                "access log pairs {} of {} requests",
                transport.len(),
                every.len()
            )));
        }
        r.layer("serve.transport_ms_p50", quantile(&transport, 0.5), "ms");
        r.layer(
            "serve.compute_ms_p50",
            per(&|p| snap(p, "grid_cell_compute_nanos_p50") / 1e6),
            "ms",
        );
        // Share of request latency spent simulating: cells each request
        // computed × the daemon's mean compute time per cell.
        let compute_mean_s = per(&|p| {
            snap(p, "grid_cell_compute_nanos_sum")
                / snap(p, "grid_cell_compute_nanos_count").max(1.0)
                / 1e9
        });
        let share = |kinds: &[Kind]| {
            let (mut sim, mut lat) = (0.0, 0.0);
            for (latency, computed, kind) in passes.iter().flat_map(|p| &p.samples.sweeps) {
                if kinds.contains(kind) {
                    sim += *computed as f64 * compute_mean_s;
                    lat += latency;
                }
            }
            if lat == 0.0 {
                0.0
            } else {
                sim / lat
            }
        };
        r.layer("serve.sim_share_hit", share(&[Kind::Hit]), "ratio");
        r.layer("serve.sim_share_miss", share(&[Kind::Miss]), "ratio");
        r.layer(
            "store.lease_wait_us_p50",
            per(&|p| snap(p, "store_lease_wait_nanos_p50") / 1e3),
            "us",
        );
        r.layer(
            "store.hit_rate",
            per(&|p| {
                snap(p, "store_hits") / (snap(p, "store_hits") + snap(p, "store_misses")).max(1.0)
            }),
            "ratio",
        );
        r.layer(
            "store.resident_kib",
            per(&|p| snap(p, "store_resident_bytes") / 1024.0),
            "KiB",
        );
        r.layer(
            "store.get_us_p50",
            median(&persist.iter().map(|p| p.0 .0).collect::<Vec<_>>()),
            "us",
        );
        r.layer(
            "store.publish_us_p50",
            median(&persist.iter().map(|p| p.0 .1).collect::<Vec<_>>()),
            "us",
        );
        r.layer(
            "seallog.append_us",
            median(&persist.iter().map(|p| p.1).collect::<Vec<_>>()),
            "us",
        );
        r.layer(
            "seallog.bytes_per_request",
            per(&|p| p.log_bytes / p.requests as f64),
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

/// Store get/publish costs over the pass's store, for its pool cells.
fn store_replay(dir: &Path, seed: u64, want: &BTreeMap<Key, CellRun>) -> (f64, f64) {
    let base = SystemConfig::paper_default(CORES).with_seed(seed);
    let fp = journal::fingerprint(&base, LEN);
    let entries: Vec<JournalEntry> = want
        .iter()
        .filter(|((_, _, s), _)| *s == seed)
        .map(|((w, _, s), c)| JournalEntry {
            workload: w.clone(),
            variant: c.variant,
            seed: *s,
            result: c.result.clone(),
        })
        .collect();
    store_costs(&dir.join("store"), &dir.join("replay-store"), fp, &entries)
}
