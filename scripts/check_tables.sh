#!/usr/bin/env bash
# Holds the published record to the code: rebuilds every deterministic
# results/ table into OUT_DIR (default: a fresh temporary directory) and
# fails unless each is byte for byte the committed file. Fig 3 trains its
# configurations in about half a minute (release, one core). Fig 5 stays out:
# its encode column is wall-clock; Fig 4 takes minutes. The fleet run (about
# two seconds) is held by its registry outputs, which carry every netsim.*
# metric, the tenant-scoped trims and the SLO verdicts; fleet.txt stays out,
# as its last line names the output directory.
#
#   bash scripts/check_tables.sh [OUT_DIR]
set -euo pipefail
cd "$(dirname "$0")/.."

out=${1:-$(mktemp -d)}
mkdir -p "$out"
cargo build --release -q -p trimgrad-bench --bins

status=0
for table in layout_table baseline_drops queue_closedloop lowrank_ablation fsdp_gather fig3_tta; do
  # The binaries also write telemetry snapshots; keep them out of results/.
  TRIMGRAD_SNAPSHOT_DIR="$out" "./target/release/$table" >"$out/$table.txt"
  if cmp -s "$out/$table.txt" "results/$table.txt"; then
    echo "$table: matches results/$table.txt"
  else
    echo "$table: differs from results/$table.txt (regenerate it with scripts/reproduce.sh):" >&2
    diff "results/$table.txt" "$out/$table.txt" >&2 || true
    status=1
  fi
done

TRIMGRAD_SNAPSHOT_DIR="$out" ./target/release/fleet >"$out/fleet.txt"
for file in fleet.snapshot.json dashboard.html; do
  if cmp -s "$out/$file" "results/$file"; then
    echo "fleet: $file matches results/$file"
  else
    echo "fleet: $file differs from results/$file (regenerate it with scripts/reproduce.sh)" >&2
    status=1
  fi
done
exit "$status"
