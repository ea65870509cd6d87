#!/usr/bin/env bash
# Holds the benchmark's output to the committed trajectory: runs each
# workload's pinned epoch traced at seed 11 and compares its
# bench.output_digest with the last line of results/BENCH_round.jsonl.
# A digest that differs fails the check unless that line says why in
# digest_change; a workload whose recorded digest is null is reported and
# not compared.
#
#   bash scripts/check_digests.sh
set -euo pipefail
cd "$(dirname "$0")/.."

last=$(tail -n 1 results/BENCH_round.jsonl)
recorded=$(sed -n 's/.*"output_digest": {\([^}]*\)}.*/\1/p' <<<"$last")
change=$(sed -n 's/.*"digest_change": \(null\|"[^"]*"\).*/\1/p' <<<"$last")
if [[ -z "$recorded" || -z "$change" ]]; then
  echo "check_digests: cannot read the last line of results/BENCH_round.jsonl" >&2
  exit 2
fi

status=0
# Workload and its pinned epoch (benchmark/README.md).
for pinned in codec_loopback:8 train_fabric:16 netsim_storm:3 train_inject:40; do
  workload=${pinned%%:*}
  rounds=${pinned##*:}
  want=$(grep -o "\"$workload\": [0-9a-z]*" <<<"$recorded" | awk '{print $2}')
  got=$(bash benchmark/run.sh --workload "$workload" --seed 11 --trace 1 --rounds "$rounds" |
    awk -v w="$workload" '$1 == "metric" && $2 == w && $3 == "bench.output_digest" { print $5 }')
  if [[ -z "$got" ]]; then
    echo "$workload: the run printed no bench.output_digest" >&2
    status=1
  elif [[ "$want" == null || -z "$want" ]]; then
    echo "$workload: digest $got (none recorded)"
  elif [[ "$got" == "$want" ]]; then
    echo "$workload: digest $got (recorded)"
  elif [[ "$change" != null ]]; then
    echo "$workload: digest $got, recorded $want; digest_change $change"
  else
    echo "$workload: digest $got, recorded $want, and the last line of results/BENCH_round.jsonl has no digest_change" >&2
    status=1
  fi
done
exit "$status"
