#!/usr/bin/env bash
# Tier-1 CI: build, lint and test the whole workspace fully offline, then
# verify no crate manifest has reintroduced a registry dependency.
#
# The workspace is hermetic by construction — every dependency is a
# path dependency on a sibling crate, and the test harness lives in
# crates/harness — so `--offline` must always succeed. Run from
# anywhere inside the repo.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "== tier-1: offline build =="
cargo build --release --offline

echo "== lint: clippy over every target, warnings are errors =="
# Fix a new warning at its site rather than silencing it.
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== tier-1: offline tests (whole workspace) =="
cargo test -q --offline --workspace

echo "== supervision + determinism suites =="
# Named explicitly (they also run as part of --workspace above) so a
# failure in the resilience contract is unmissable in the CI log.
cargo test -q --offline -p cmpsim-harness supervise
cargo test -q --offline --test determinism --test resilience --test chaos

echo "== codec conformance + differential oracle suites =="
# Cross-codec law kit (round-trip, sizing agreement, zero-fill
# monotonicity, never-expands) against FPC/BDI/ZCA, plus the oracle test
# pinning trait-routed FPC byte-for-byte to the historical fast path
# (including the exhaustive 2^16 zero-mask sweep), plus BDI's unit
# tests: the one-pass fit against the per-configuration scan it
# replaced, and every configuration at its window edge. The cache crate's
# suites check both tag stores against models kept with u64 LRU stamps,
# on sets long enough to renumber their byte-sized LRU ranks.
cargo test -q --offline --test codecs
cargo test -q --offline -p cmpsim-fpc --test codec_oracle
cargo test -q --offline -p cmpsim-fpc --lib bdi
cargo test -q --offline -p cmpsim-cache

echo "== invariant-checked smoke cell (CMPSIM_CHECK=1) =="
CMPSIM_CHECK=1 cargo run -q --release --offline --example checked_smoke

echo "== hot-path bit-identity gate (one-worker grid vs seed golden) =="
# The smoke grid's FNV-1a digest over every seed-era result field must
# match tests/golden/grid_digest.txt, recorded from the pre-optimization
# engine: the hot-path data structures (fastmap, event-pool free list,
# word-parallel FPC sizing) must never change simulation results. The
# same run also gates the BDI/ZCA smoke grids against the goldens
# recorded when the pluggable codec suite landed, and the four variants
# the headline grid leaves out (cache-only and link-only compression,
# both adaptive-prefetch variants) against
# tests/golden/grid_digest_variants.txt, and the headline grid on 8 KiB
# L1s and a 64 KiB L2, whose tag stores renumber their per-set LRU ranks
# thousands of times, against tests/golden/grid_digest_small.txt.
cargo run -q --release --offline --example grid_digest

echo "== tracing-inertness gate (grid digest under CMPSIM_TRACE=1) =="
# The flight recorder and cycle sampler must be observe-only: the same
# digest gate, re-run with tracing armed, must match the golden recorded
# without tracing. Telemetry artifacts land in a scratch dir and one is
# schema-checked by the timeline consumer.
trace_dir=$(mktemp -d)
CMPSIM_TRACE=1 CMPSIM_TELEMETRY_DIR="$trace_dir" \
    cargo run -q --release --offline --example grid_digest
ls "$trace_dir"/*.jsonl > /dev/null || {
    echo "traced grid left no telemetry artifacts in $trace_dir" >&2
    exit 1
}
cargo run -q --release --offline --example timeline -- --check \
    "$(ls "$trace_dir"/*.jsonl | head -1)"
rm -rf "$trace_dir"

echo "== perfbench: builds against this tree, held-out seed 23 reproduces =="
# perfbench/ is the repository's benchmark (BENCHMARK.json), a separate
# workspace that calls the crates' public APIs. Building it catches an
# API change that would break the benchmark; one pass of each engine
# workload at its pinned held-out seed catches model drift the smoke
# goldens miss. This checks correctness, not speed: the JSON report's
# last line must say "correct": true.
for workload in table5_fpc bdi_stream; do
    pb_out=$(bash perfbench/run.sh --workload "$workload" --seed 23 --seconds 1 --trace 0)
    echo "$pb_out" | tail -1 | grep -q '"correct": true' || {
        echo "perfbench $workload at seed 23 is not correct:" >&2
        echo "$pb_out" >&2
        exit 1
    }
done

echo "== chaos gates: disarmed inertness + seeded bit-reproducibility =="
# Disarmed inertness is already pinned by the digest gates above: the
# chaos engine is compiled in but unarmed there, and the goldens predate
# it — any leak of fault machinery into a disarmed run churns the
# digest. Armed runs must be bit-reproducible from the seed alone, so
# the chaos smoke (which also asserts 1/2/8-thread invariance and
# prints the per-site fault table) is run twice and diffed byte-for-byte.
chaos_a=$(mktemp) chaos_b=$(mktemp)
CMPSIM_CHAOS=7:0.02 cargo run -q --release --offline --example chaos_smoke > "$chaos_a"
CMPSIM_CHAOS=7:0.02 cargo run -q --release --offline --example chaos_smoke > "$chaos_b"
diff "$chaos_a" "$chaos_b" || {
    echo "armed chaos run is not bit-reproducible from its seed" >&2
    exit 1
}
rm -f "$chaos_a" "$chaos_b"

echo "== codec-throughput gate (vs BENCH_codec_throughput.json baseline) =="
# Measures per-codec compress/decompress rates over six line classes and
# compares them against the committed baseline: print the delta table,
# fail when any fast-over-reference decode ratio (*/decode_speedup,
# both sides timed in this process) falls below half its pinned value,
# and require the FPC dispatch-table decoder to keep its >=2x speedup
# over the in-tree scalar reference on zero-heavy lines. Absolute rates
# follow the host's speed and are printed as information only. The
# baseline is pinned: CI never overwrites it.
cargo run -q --release --offline --example codec_gate

echo "== serve daemon smoke (two sweeps on stdin share the store) =="
# Two identical sweep requests through the daemon: the first computes,
# the second must be served entirely from the store (0 misses) with a
# 100% hit rate and no corrupt records. A {"metrics":1} query on the
# same stream must answer one flat-JSON registry snapshot covering all
# three instrumented layers (store_*, grid_*, serve_*), and the access
# log must come back as a sealed JSONL artifact. A malformed request
# (a number sent as a string) on the same stream must be answered with
# an error line naming the field, and must not count as a sweep.
store_dir=$(mktemp -d)
access_log=$(mktemp -u)
serve_out=$(printf '%s\n' \
    '{"sweep":"ci-cold","workloads":"apsi,mgrid","variants":"base,pf","cores":2,"warmup":2000,"measure":8000,"threads":2}' \
    '{"sweep":"ci-bad","workloads":"apsi","variants":"base","cores":"2","warmup":2000,"measure":8000}' \
    '{"sweep":"ci-warm","workloads":"apsi,mgrid","variants":"base,pf","cores":2,"warmup":2000,"measure":8000,"threads":2}' \
    '{"metrics":1}' \
    | CMPSIM_STORE="$store_dir" CMPSIM_ACCESS_LOG="$access_log" \
        cargo run -q --release --offline -p cmpsim-bench --bin serve)
echo "$serve_out" | grep '"sweep":"ci-warm","done":1' \
        | grep '"store_misses":0' | grep -q '"corrupt_skipped":0' || {
    echo "serve daemon warm sweep was not served from the store:" >&2
    echo "$serve_out" >&2
    exit 1
}
echo "$serve_out" | grep '^{"error":' | grep -q 'cores' || {
    echo "serve daemon did not reject the malformed cores field:" >&2
    echo "$serve_out" >&2
    exit 1
}
metrics_line=$(echo "$serve_out" | grep '^{"metrics":1')
for key in store_hits store_misses store_resident_bytes grid_cells_computed \
        grid_cells_cached serve_requests serve_sweeps serve_request_nanos_p99; do
    echo "$metrics_line" | grep -q "\"$key\":" || {
        echo "serve metrics snapshot is missing \"$key\":" >&2
        echo "$metrics_line" >&2
        exit 1
    }
done
echo "$metrics_line" | grep -q '"serve_sweeps":2' || {
    echo "serve metrics snapshot did not count both sweeps: $metrics_line" >&2
    exit 1
}
head -1 "$access_log" | grep -q '{"cmpsim_log":1}' || {
    echo "serve access log is not a sealed JSONL artifact" >&2
    exit 1
}
rm -f "$access_log"
rm -rf "$store_dir"

echo "== knob surface: serve --help lists every knob, a malformed one stops the run =="
# Every CMPSIM_* variable is declared once (crates/harness/src/knobs.rs):
# `serve --help` must list all 15, and a malformed value must exit with
# status 2 and a message naming the variable instead of falling back.
help_out=$(cargo run -q --release --offline -p cmpsim-bench --bin serve -- --help)
knob_count=$(echo "$help_out" | grep -c '^  CMPSIM_')
[ "$knob_count" -eq 15 ] || {
    echo "serve --help lists $knob_count knobs, expected 15:" >&2
    echo "$help_out" >&2
    exit 1
}
status=0
bad_out=$(CMPSIM_THREADS=abc cargo run -q --release --offline -p cmpsim-bench --bin serve \
    2>&1 < /dev/null) || status=$?
[ "$status" -eq 2 ] && echo "$bad_out" | grep -q 'CMPSIM_THREADS="abc"' || {
    echo "serve with CMPSIM_THREADS=abc exited $status without naming the knob:" >&2
    echo "$bad_out" >&2
    exit 1
}

echo "== result-store + metrics gate (cold -> warm: 0 recomputes, digest unchanged) =="
# The smoke grid runs twice against one scratch store, with service
# metrics armed (they always are): the cold pass computes and publishes
# every cell, the warm pass must compute 0 cells with a >=95% hit rate
# (it achieves 100%), zero CRC/framing errors, and both passes must
# produce the exact grid_digest golden — the store changes *when*
# results are computed, never *what* they are, and counters and latency
# histograms are observe-only. metrics_gate also asserts the registry
# agrees with StoreStats, the warm pass is all cache, the flat-JSON
# snapshot parses under the repo framing with every required key, and
# the Prometheus export is well-formed. ops_dashboard --check drives the
# same registry through the live dashboard renderer. Both run in their
# own scratch stores.
cargo run -q --release --offline --example metrics_gate
cargo run -q --release --offline --example ops_dashboard -- --check > /dev/null

echo "== hermeticity gate: no registry dependencies =="
# A registry dependency in a manifest is one whose spec carries a
# `version` requirement (string or inline-table form) instead of being a
# pure `path`/`workspace = true` reference. The workspace-level versions
# of the cmpsim-* crates live in [workspace.dependencies] with `path`
# keys; anything else is a regression.
violations=$(
    find . -name Cargo.toml -not -path './target/*' -print0 \
        | xargs -0 awk '
            /^\[/ { in_deps = ($0 ~ /dependencies/) }
            in_deps && /^[[:space:]]*[A-Za-z0-9_-]+[[:space:]]*=/ \
                && !/path[[:space:]]*=/ && !/workspace[[:space:]]*=/ {
                print FILENAME ":" FNR ": " $0
            }
        '
)
if [ -n "$violations" ]; then
    echo "registry dependencies found in Cargo.toml manifests:" >&2
    echo "$violations" >&2
    exit 1
fi

# Belt and braces: the resolved dependency graph must contain only
# workspace crates (all paths under this repo, no registry sources).
if cargo tree --offline --workspace --prefix none 2>/dev/null \
        | grep -vE '^\s*$' | grep -v '(/' | grep -q .; then
    echo "cargo tree reports crates outside the workspace:" >&2
    cargo tree --offline --workspace --prefix none | grep -v '(/' >&2
    exit 1
fi

echo "CI OK: offline build + tests passed, dependency graph is workspace-only"
