#!/usr/bin/env bash
# Builds the benchmark and the repository's `serve` daemon from source
# (release profile, offline), then runs the benchmark with the given
# arguments. Run it from the repository root, e.g.
#
#   bash perfbench/run.sh --workload table5_fpc --seed 11 --seconds 10 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default perfbench/target).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "${CARGO_TARGET_DIR:-$here/target}/release/perfbench" "$@"
