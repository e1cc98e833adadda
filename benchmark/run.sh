#!/usr/bin/env bash
# Builds pibench from source (offline) and runs it.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1   one workload (the driver's form)
#   benchmark/run.sh --seed N [--trace] [--out FILE]                 all five workloads
#   benchmark/run.sh --selfcheck [--seed N]                          all five, twice, compared; writes baseline/seed.json
#
# Works from any directory; everything it writes stays under benchmark/
# (or under CARGO_TARGET_DIR when that is set).
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2

PIBENCH_RUSTC="$(rustc --version)"
PIBENCH_COMMIT="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
export PIBENCH_RUSTC PIBENCH_COMMIT

# Region files live in benchmark/out/pibench-<pid>; the program removes
# the directory itself, this removes it when the program was killed.
"$CARGO_TARGET_DIR/release/pibench" --scratch benchmark/out "$@" &
pid=$!
trap 'kill "$pid" 2>/dev/null || true; wait "$pid" 2>/dev/null || true; rm -rf "benchmark/out/pibench-$pid"' EXIT
status=0
wait "$pid" || status=$?
exit "$status"
