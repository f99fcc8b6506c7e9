//! One timed simulation cell, and the per-layer metrics that the
//! engine's deterministic counters and the replay costs derive from a
//! set of cells.

use crate::common::{median, thread_cpu_s, Report};
use crate::replay::Costs;
use cmpsim_core::experiment::SimLength;
use cmpsim_core::{CodecKind, RunResult, SimError, SimStats, System, SystemConfig, Variant};
use cmpsim_trace::WorkloadSpec;

/// A cell computed in-process, with host time split at the engine's
/// two public entry points.
#[derive(Debug, Clone)]
pub struct CellRun {
    pub workload: &'static str,
    pub variant: Variant,
    /// Host CPU seconds of the calling thread in `System::new`.
    pub new_s: f64,
    /// Host CPU seconds of the calling thread in `System::run`.
    pub run_s: f64,
    pub result: RunResult,
}

/// Builds and runs one `(spec, variant)` cell, timing both calls on the
/// thread's CPU clock.
pub fn run_cell(
    spec: &WorkloadSpec,
    base: &SystemConfig,
    variant: Variant,
    len: SimLength,
) -> Result<CellRun, SimError> {
    let cfg = variant.apply(base.clone());
    let t0 = thread_cpu_s();
    let mut sys = System::new(cfg, spec);
    let t1 = thread_cpu_s();
    let result = sys.run(len.warmup, len.measure)?;
    let t2 = thread_cpu_s();
    let (new_s, run_s) = (t1 - t0, t2 - t1);
    Ok(CellRun {
        workload: spec.name,
        variant,
        new_s,
        run_s,
        result,
    })
}

/// Checks the fixed-work contract: every core retires its measured
/// quota, give or take one instruction line per core.
pub fn quota_problem(cell: &CellRun, cores: u8, len: SimLength) -> Option<String> {
    let want = u64::from(cores) * len.measure;
    let got = cell.result.stats.instructions;
    (got < want || got > want + u64::from(cores) * 16).then(|| {
        format!(
            "{} {}: {got} measured instructions, expected {want}",
            cell.workload, cell.variant
        )
    })
}

/// Simulated instructions (warmup + measure, all cores) per host
/// microsecond of `System::run`, i.e. millions per host second.
pub fn sim_mips(cells: &[CellRun]) -> f64 {
    let retired: u64 = cells.iter().map(|c| c.result.retired).sum();
    let run_s: f64 = cells.iter().map(|c| c.run_s).sum();
    ratio(retired as f64 / 1e6, run_s)
}

pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn is_prefetching(v: Variant) -> bool {
    v.apply(SystemConfig::paper_default(1)).prefetch.enabled()
}

fn is_compressing(v: Variant) -> bool {
    v.apply(SystemConfig::paper_default(1)).cache_compression
}

fn codec_index(codec: CodecKind) -> usize {
    CodecKind::all()
        .iter()
        .position(|&k| k == codec)
        .expect("listed codec")
}

/// Engine, trace, fpc, cache, prefetch, link, mem and coherence metrics
/// for `cells` (all passes of a run) and the replay `costs`. Counts come
/// from the measured window; the `*.share` estimates scale them to the
/// whole run (warmup included) and multiply by the replayed cost per
/// call, as a share of `System::run` host time.
pub fn layer_metrics(
    r: &mut Report,
    cells: &[CellRun],
    passes: usize,
    codec: CodecKind,
    c: &Costs,
) {
    let sum = |f: &dyn Fn(&CellRun) -> f64| cells.iter().map(f).sum::<f64>();
    let sum_if = |p: &dyn Fn(&CellRun) -> bool, f: &dyn Fn(&CellRun) -> f64| {
        cells.iter().filter(|c| p(c)).map(f).sum::<f64>()
    };
    fn st(c: &CellRun) -> &SimStats {
        &c.result.stats
    }
    let insts = sum(&|c| c.result.stats.instructions as f64);
    let per_kinst = |x: f64| ratio(x * 1000.0, insts);
    let run_s = sum(&|c| c.run_s);
    let run_ns = run_s * 1e9;
    let pf = |c: &CellRun| is_prefetching(c.variant);
    let compr = |c: &CellRun| is_compressing(c.variant);
    // Whole-run scale: measured-window counts × retired / measured.
    let whole = |c: &CellRun, x: u64| {
        x as f64 * ratio(c.result.retired as f64, c.result.stats.instructions as f64)
    };
    let l1_acc = |c: &CellRun| st(c).l1i.accesses + st(c).l1d.accesses;

    let events = sum(&|c| c.result.events as f64);
    let retired = sum(&|c| c.result.retired as f64);
    r.layer("engine.run_ns_per_event", ratio(run_ns, events), "ns");
    for (label, v) in [
        ("base", Variant::Base),
        ("compr", Variant::BothCompression),
        ("pf", Variant::Prefetch),
        ("pf_compr", Variant::PrefetchCompression),
    ] {
        let s = sum_if(&|c| c.variant == v, &|c| c.run_s);
        r.layer(
            &format!("engine.run_s.{label}"),
            s / passes.max(1) as f64,
            "s",
        );
    }
    r.layer(
        "engine.events_per_kinst",
        ratio(events * 1000.0, retired),
        "count",
    );
    let news: Vec<f64> = cells.iter().map(|c| c.new_s * 1e3).collect();
    r.layer("engine.setup_ms_per_cell", median(&news), "ms");

    r.layer("trace.gen_ns_per_event", c.gen_ns, "ns");
    r.layer("trace.line_bytes_ns", c.line_bytes_ns, "ns");
    r.layer(
        "trace.share",
        ratio(sum(&|x| whole(x, l1_acc(x))) * c.gen_ns, run_ns),
        "ratio",
    );

    for (kind, ns) in CodecKind::all().into_iter().zip(c.sizing_ns) {
        r.layer(&format!("fpc.sizing_ns.{}", kind.label()), ns, "ns");
    }
    let n_compr = sum_if(&compr, &|_| 1.0);
    let ratio_sum = sum_if(&compr, &|x| x.result.stats.compression_ratio());
    r.layer(
        "fpc.compression_ratio",
        if n_compr == 0.0 {
            1.0
        } else {
            ratio_sum / n_compr
        },
        "ratio",
    );
    let sizing = c.sizing_ns[codec_index(codec)];
    let sized = sum_if(&compr, &|x| whole(x, st(x).mem_reads + st(x).mem_writes));
    r.layer("fpc.share", ratio(sized * sizing, run_ns), "ratio");

    let l2_acc = sum(&|x| st(x).l2.accesses as f64);
    r.layer("cache.l1_ns_per_access", c.l1_ns, "ns");
    r.layer("cache.vsc_ns_per_access", c.vsc_ns, "ns");
    r.layer(
        "cache.l1d_accesses_per_kinst",
        per_kinst(sum(&|x| st(x).l1d.accesses as f64)),
        "count",
    );
    r.layer("cache.l2_accesses_per_kinst", per_kinst(l2_acc), "count");
    r.layer(
        "cache.l2_miss_ratio",
        ratio(sum(&|x| st(x).l2.demand_misses as f64), l2_acc),
        "ratio",
    );
    r.layer(
        "cache.l2_compressed_hit_share",
        ratio(
            sum(&|x| st(x).l2_compressed_hits as f64),
            sum(&|x| st(x).l2.hits as f64),
        ),
        "ratio",
    );
    let cache_ns = sum(&|x| whole(x, l1_acc(x)) * c.l1_ns + whole(x, st(x).l2.accesses) * c.vsc_ns);
    r.layer("cache.share", ratio(cache_ns, run_ns), "ratio");

    let pf_insts = sum_if(&pf, &|x| st(x).instructions as f64);
    let l2_issued = sum_if(&pf, &|x| st(x).l2.prefetches_issued as f64);
    let issued_all = sum_if(&pf, &|x| {
        let s = st(x);
        (s.l1i.prefetches_issued + s.l1d.prefetches_issued + s.l2.prefetches_issued) as f64
    });
    let dropped = sum_if(&pf, &|x| st(x).dropped_prefetches as f64);
    r.layer("prefetch.ns_per_call", c.pf_ns, "ns");
    r.layer(
        "prefetch.l2_issued_per_kinst",
        ratio(l2_issued * 1000.0, pf_insts),
        "count",
    );
    r.layer(
        "prefetch.l2_useful_ratio",
        ratio(sum_if(&pf, &|x| st(x).l2.prefetch_hits as f64), l2_issued),
        "ratio",
    );
    r.layer(
        "prefetch.dropped_share",
        ratio(dropped, dropped + issued_all),
        "ratio",
    );
    let pf_calls = sum_if(&pf, &|x| whole(x, l1_acc(x) + st(x).l2.accesses));
    r.layer("prefetch.share", ratio(pf_calls * c.pf_ns, run_ns), "ratio");

    let msgs = sum(&|x| st(x).link.messages as f64);
    r.layer("link.send_ns", c.link_ns, "ns");
    r.layer("link.messages_per_kinst", per_kinst(msgs), "count");
    r.layer(
        "link.bytes_per_inst",
        ratio(sum(&|x| st(x).link.total_bytes as f64), insts),
        "B",
    );
    r.layer(
        "link.avg_queue_cycles",
        ratio(sum(&|x| st(x).link.queue_delay_cycles as f64), msgs),
        "cycles",
    );
    r.layer(
        "link.share",
        ratio(sum(&|x| whole(x, st(x).link.messages)) * c.link_ns, run_ns),
        "ratio",
    );

    let mem_ops = sum(&|x| whole(x, st(x).mem_reads + st(x).mem_writes));
    r.layer("mem.ns_per_op", c.mem_ns, "ns");
    r.layer(
        "mem.reads_per_kinst",
        per_kinst(sum(&|x| st(x).mem_reads as f64)),
        "count",
    );
    r.layer(
        "mem.writes_per_kinst",
        per_kinst(sum(&|x| st(x).mem_writes as f64)),
        "count",
    );
    r.layer("mem.share", ratio(mem_ops * c.mem_ns, run_ns), "ratio");

    r.layer("coherence.ns_per_request", c.coh_ns, "ns");
    r.layer(
        "coherence.invalidations_per_kinst",
        per_kinst(sum(&|x| st(x).coherence.invalidations as f64)),
        "count",
    );
    r.layer(
        "coherence.recalls_per_kinst",
        per_kinst(sum(&|x| st(x).coherence.recalls as f64)),
        "count",
    );
    let coh_calls = sum(&|x| whole(x, st(x).l2.accesses));
    r.layer(
        "coherence.share",
        ratio(coh_calls * c.coh_ns, run_ns),
        "ratio",
    );
}
