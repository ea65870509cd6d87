#!/usr/bin/env bash
# The benchmark's one command. Builds the driver (offline, into the repo's
# own target directory unless CARGO_TARGET_DIR says otherwise) and runs it
# from the repository root.
#
#   run.sh --workload W --seed N --seconds S --trace 0|1   one workload, one
#                                     JSON result line (BENCHMARK.json's command)
#   run.sh [--seed N] [--seconds S]   all four workloads, untraced and traced,
#                                     -> benchmark/out/results.json + trace_*.json
#   run.sh --quick                    3 rounds each, and validate BENCHMARK.json
#   run.sh --check-repeat             two sets of ten runs must agree within bounds
#   run.sh --emit-manifest            print BENCHMARK.json from the catalogue
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# A relative CARGO_TARGET_DIR is relative to where the caller stands.
case "${CARGO_TARGET_DIR:=$here/../target}" in
  /*) ;;
  *) CARGO_TARGET_DIR="$PWD/$CARGO_TARGET_DIR" ;;
esac
export CARGO_TARGET_DIR
# Every number is taken at pool width 1 from a single driver thread.
export TRIMGRAD_THREADS=1
cd "$here/.."

start=$(date +%s.%N)
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
build_s=$(awk -v a="$start" -v b="$(date +%s.%N)" 'BEGIN { printf "%.3f", b - a }')

exec "$CARGO_TARGET_DIR/release/trimgrad-benchmark" --build-s "$build_s" "$@"
