#!/usr/bin/env bash
# Builds the shipped binaries (`repro`, `hpcfail-serve`) and the
# benchmark binary from source, then runs one workload:
#
#   bash perfbench/run.sh --workload serve-hot --seed 7 --seconds 10 --trace 0
#
# Run from the repository root. Build output goes to stderr; the last
# line of stdout is the JSON result.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --quiet -p hpcfail-bench -p hpcfail-serve >&2
cargo build --release --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" --bin-dir "$CARGO_TARGET_DIR/release" "$@"
