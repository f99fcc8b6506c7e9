//! Replay kernels: drive each layer's public API with a workload's own
//! generator, address and value streams, outside the engine, to get a
//! host cost per call. Every kernel runs twice and folds its results into
//! a digest; the two folds must agree, so the work is both checked and
//! impossible to optimise away.

use crate::common::{fold, FOLD_INIT};
use cmpsim_cache::{
    AccessKind, BlockAddr, SetAssocCache, SetAssocConfig, VscCache, VscConfig, VscLookup,
};
use cmpsim_coherence::{CoreId, DirEntry, L1Request, MsiState};
use cmpsim_fpc::{CodecKind, LINE_BYTES};
use cmpsim_link::{Channel, LinkBandwidth, Message};
use cmpsim_mem::MemoryController;
use cmpsim_prefetch::{PrefetcherConfig, StridePrefetcher};
use cmpsim_trace::{CoreGenerator, TraceEvent, WorkloadSpec};
use std::hint::black_box;
use std::time::Instant;

/// Events replayed per workload spec.
const EVENTS: usize = 50_000;
/// Directory entries the coherence replay spreads lines over.
const DIR_ENTRIES: usize = 1 << 13;

/// Host nanoseconds per call of each layer's replay, averaged over specs.
#[derive(Debug, Default, Clone, Copy)]
pub struct Costs {
    pub gen_ns: f64,
    pub line_bytes_ns: f64,
    /// Indexed like [`CodecKind::all`]: FPC, BDI, ZCA.
    pub sizing_ns: [f64; 3],
    pub l1_ns: f64,
    pub vsc_ns: f64,
    pub pf_ns: f64,
    pub link_ns: f64,
    pub mem_ns: f64,
    pub coh_ns: f64,
    /// Wall time the replays took, for the trace overhead.
    pub total_s: f64,
}

/// One workload's streams, generated once and shared by the kernels.
struct Streams {
    events: Vec<TraceEvent>,
    segments: Vec<u8>,
}

/// Runs `kernel` twice, each time on fresh state from `setup` (built
/// outside the timed region), and returns `(ns per call of the second
/// run, whether both folds agree)`.
fn timed<S>(
    calls: usize,
    mut setup: impl FnMut() -> S,
    mut kernel: impl FnMut(S) -> u64,
) -> (f64, bool) {
    let first = kernel(setup());
    let state = setup();
    let t0 = Instant::now();
    let second = black_box(kernel(state));
    let ns = t0.elapsed().as_nanos() as f64 / calls.max(1) as f64;
    (ns, first == second)
}

/// Replays every layer for each spec; returns the mean costs and the
/// specs whose folds disagreed between repetitions.
pub fn run(specs: &[WorkloadSpec], seed: u64, codec: CodecKind) -> (Costs, Vec<String>) {
    let t_all = Instant::now();
    let mut sum = Costs::default();
    let mut bad = Vec::new();
    for spec in specs {
        let (c, ok) = replay_spec(spec, seed, codec);
        if !ok {
            bad.push(format!("replay fold mismatch on {}", spec.name));
        }
        sum.gen_ns += c.gen_ns;
        sum.line_bytes_ns += c.line_bytes_ns;
        for i in 0..3 {
            sum.sizing_ns[i] += c.sizing_ns[i];
        }
        sum.l1_ns += c.l1_ns;
        sum.vsc_ns += c.vsc_ns;
        sum.pf_ns += c.pf_ns;
        sum.link_ns += c.link_ns;
        sum.mem_ns += c.mem_ns;
        sum.coh_ns += c.coh_ns;
    }
    let n = specs.len().max(1) as f64;
    let mut mean = Costs {
        gen_ns: sum.gen_ns / n,
        line_bytes_ns: sum.line_bytes_ns / n,
        sizing_ns: sum.sizing_ns.map(|x| x / n),
        l1_ns: sum.l1_ns / n,
        vsc_ns: sum.vsc_ns / n,
        pf_ns: sum.pf_ns / n,
        link_ns: sum.link_ns / n,
        mem_ns: sum.mem_ns / n,
        coh_ns: sum.coh_ns / n,
        total_s: 0.0,
    };
    mean.total_s = t_all.elapsed().as_secs_f64();
    (mean, bad)
}

fn replay_spec(spec: &WorkloadSpec, seed: u64, codec: CodecKind) -> (Costs, bool) {
    let mut ok = true;
    let mut c = Costs::default();

    let (gen_ns, same) = timed(
        EVENTS,
        || CoreGenerator::new(spec, 0, seed),
        |mut g| {
            let mut h = FOLD_INIT;
            for _ in 0..EVENTS {
                let ev = g.next_event();
                fold(&mut h, ev.gap ^ ev.event.line().0);
            }
            h
        },
    );
    c.gen_ns = gen_ns;
    ok &= same;

    let mut g = CoreGenerator::new(spec, 0, seed);
    let events: Vec<TraceEvent> = (0..EVENTS).map(|_| g.next_event().event).collect();
    let profile = spec.value_profile(seed);
    let (line_bytes_ns, same) = timed(
        EVENTS,
        || (),
        |()| {
            let mut h = FOLD_INIT;
            for ev in &events {
                let bytes = profile.line_bytes(ev.line().0);
                fold(
                    &mut h,
                    u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes")),
                );
            }
            h
        },
    );
    c.line_bytes_ns = line_bytes_ns;
    ok &= same;

    let lines: Vec<[u8; LINE_BYTES]> = events
        .iter()
        .map(|ev| profile.line_bytes(ev.line().0))
        .collect();
    for (i, kind) in CodecKind::all().into_iter().enumerate() {
        let sizer = kind.segments_fn();
        let (ns, same) = timed(
            lines.len(),
            || (),
            |()| {
                let mut h = FOLD_INIT;
                for line in &lines {
                    fold(&mut h, u64::from(sizer(black_box(line))));
                }
                h
            },
        );
        c.sizing_ns[i] = ns;
        ok &= same;
    }
    let sizer = codec.segments_fn();
    let segments: Vec<u8> = lines.iter().map(sizer).collect();
    let s = Streams { events, segments };

    let n = s.events.len();
    let l1_cfg = SetAssocConfig::with_capacity(64 * 1024, 4);
    let (l1_ns, same) = timed(n, || SetAssocCache::new(l1_cfg), |l1| replay_l1(&s, l1));
    c.l1_ns = l1_ns;
    ok &= same;
    let l2_cfg = VscConfig::compressed_l2(4 * 1024 * 1024);
    let (vsc_ns, same) = timed(n, || VscCache::new(l2_cfg), |l2| replay_vsc(&s, l2));
    c.vsc_ns = vsc_ns;
    ok &= same;
    let (pf_ns, same) = timed(
        n,
        || StridePrefetcher::new(PrefetcherConfig::l2()),
        |pf| replay_prefetch(&s, pf),
    );
    c.pf_ns = pf_ns;
    ok &= same;
    let (link_ns, same) = timed(
        n,
        || Channel::new(LinkBandwidth::GBps(20), 5),
        |link| replay_link(&s, link),
    );
    c.link_ns = link_ns;
    ok &= same;
    let (mem_ns, same) = timed(n, || MemoryController::new(400), |mem| replay_mem(&s, mem));
    c.mem_ns = mem_ns;
    ok &= same;
    let (coh_ns, same) = timed(
        n,
        || vec![DirEntry::new(); DIR_ENTRIES],
        |dir| replay_coherence(&s, dir),
    );
    c.coh_ns = coh_ns;
    ok &= same;
    (c, ok)
}

/// The paper's private L1: 64 KB, 4-way; lookup, fill on miss.
fn replay_l1(s: &Streams, mut l1: SetAssocCache<MsiState>) -> u64 {
    let mut h = FOLD_INIT;
    for ev in &s.events {
        let addr = ev.line();
        let hit = l1.lookup(addr).is_some();
        if !hit {
            if let Some(e) = l1.fill(addr, false, MsiState::Shared) {
                fold(&mut h, e.addr.0);
            }
        }
        fold(&mut h, u64::from(hit));
    }
    h
}

/// The compressed 4 MB L2 (decoupled variable-segment cache); lookup,
/// fill with the line's codec size on miss.
fn replay_vsc(s: &Streams, mut l2: VscCache<DirEntry>) -> u64 {
    let mut h = FOLD_INIT;
    for (ev, &seg) in s.events.iter().zip(&s.segments) {
        let addr = ev.line();
        match l2.lookup(addr) {
            VscLookup::Hit { compressed, .. } => fold(&mut h, u64::from(compressed)),
            VscLookup::VictimTagHit | VscLookup::Miss => {
                for e in l2.fill(addr, seg, false, DirEntry::new()) {
                    fold(&mut h, e.addr.0);
                }
            }
        }
    }
    h
}

/// An L2 stride prefetcher fed the data stream: `on_miss` for every
/// other access and `on_access` for the rest, at the Table 1 degree.
fn replay_prefetch(s: &Streams, mut pf: StridePrefetcher) -> u64 {
    let degree = PrefetcherConfig::l2().startup_prefetches;
    let mut h = FOLD_INIT;
    for (i, ev) in s.events.iter().enumerate() {
        let addr = ev.line();
        if i % 2 == 0 {
            for p in pf.on_miss(addr, degree) {
                fold(&mut h, p.0);
            }
        } else if let Some(p) = pf.on_access(addr, degree) {
            fold(&mut h, p.0);
        }
    }
    h
}

/// The 20 GB/s off-chip link: a request upstream and a sized data
/// response downstream per access.
fn replay_link(s: &Streams, mut link: Channel) -> u64 {
    let mut h = FOLD_INIT;
    for (i, (ev, &seg)) in s.events.iter().zip(&s.segments).enumerate() {
        let now = i as u64 * 8;
        let msg = if i % 2 == 0 {
            Message::read_request(ev.line(), false)
        } else {
            Message::data_response(ev.line(), seg, false)
        };
        let t = link.send(now, &msg);
        fold(&mut h, t.done);
    }
    h
}

/// The memory controller: reads with the line's codec size, and a
/// writeback for every store.
fn replay_mem(s: &Streams, mut mem: MemoryController) -> u64 {
    let mut h = FOLD_INIT;
    for (i, (ev, &seg)) in s.events.iter().zip(&s.segments).enumerate() {
        let addr = ev.line();
        match ev {
            TraceEvent::Data {
                kind: AccessKind::Store,
                ..
            } => mem.write(addr, seg.max(1)),
            _ => {
                let (done, form) = mem.read(addr, i as u64, || seg);
                fold(&mut h, done ^ u64::from(form.segments));
            }
        }
    }
    fold(&mut h, mem.stats().reads);
    h
}

/// The MSI directory: loads as `GetS`, stores as `GetX`, spread over
/// four cores, against a table of directory entries.
fn replay_coherence(s: &Streams, mut dir: Vec<DirEntry>) -> u64 {
    let mut h = FOLD_INIT;
    for (i, ev) in s.events.iter().enumerate() {
        let BlockAddr(line) = ev.line();
        let core = CoreId((i % 4) as u8);
        let req = match ev {
            TraceEvent::Data {
                kind: AccessKind::Store,
                ..
            } => L1Request::GetX,
            _ if i % 8 == 7 => L1Request::PutS,
            _ => L1Request::GetS,
        };
        for a in dir[line as usize % DIR_ENTRIES].handle(core, req) {
            fold(
                &mut h,
                u64::from(a.target().0) + u64::from(a.returns_data()),
            );
        }
    }
    h
}
