#!/bin/sh
# The simulated perfbench metrics CI pins, in one place: which keys each
# run is compared on, the comparison, and the re-pin.
#
#   sh .github/perfbench-sim.sh check WORKLOAD TRACE RUN.txt
#       compares the run's pinned keys (the last stdout line of
#       `perfbench/run.sh --workload WORKLOAD --seed 1 --trace TRACE`)
#       with WORKLOAD's object in .github/perfbench-sim.json; leaves the
#       run's keys in sim-WORKLOAD-traceTRACE.json in the current
#       directory and exits non-zero on any difference
#   sh .github/perfbench-sim.sh regen
#       runs every workload for 2 s at seed 1, untraced and traced, in
#       the checkout's root, and rewrites .github/perfbench-sim.json
#       from those runs (`make perfbench-sim`)
#
# The keys: sim_* untraced (the end-to-end metrics BENCHMARK.json
# bounds); *_per_op, *.sim_cyc, trace.* and, on the kv workloads,
# store.* traced. The traced run prints the store probes for every
# workload, and compose runs no store, so compose pins no store.* key.
# Host metrics are never pinned: they follow the machine. The metrics
# come from the first 1100 ops, so 2 s runs give the values of longer
# ones.
set -eu
root=$(cd "$(dirname "$0")/.." && pwd)
pinned_file=$root/.github/perfbench-sim.json
workloads="kv-resident kv-spill-write compose"

# the keys a run of workload $1 at --trace $2 is compared on
pattern() {
  case "$2:$1" in
    0:*) echo '^sim_' ;;
    1:compose) echo '_per_op$|[.]sim_cyc$|^trace[.]' ;;
    *) echo '_per_op$|[.]sim_cyc$|^trace[.]|^store[.]' ;;
  esac
}

# a run's pinned keys, in the order perfbench prints them
run_keys() {
  tail -n 1 "$3" \
    | jq --arg re "$(pattern "$1" "$2")" \
        '.metrics | with_entries(select(.key | test($re))) | map_values(.value)'
}

case "${1:-}" in
  check)
    case "$#:${3:-}" in
      4:0 | 4:1) ;;
      *) echo "usage: $0 check WORKLOAD 0|1 RUN.txt" >&2; exit 2 ;;
    esac
    out="sim-$2-trace$3.json"
    run_keys "$2" "$3" "$4" | jq -S . > "$out"
    jq -S --arg w "$2" --arg re "$(pattern "$2" "$3")" \
      '.[$w] | with_entries(select(.key | test($re)))' "$pinned_file" \
      | diff -u - "$out"
    ;;
  regen)
    cd "$root"
    new="$pinned_file.new"
    trap 'rm -f "$new" "$new.tmp"' EXIT
    echo '{}' > "$new"
    for w in $workloads; do
      for t in 0 1; do
        run="perf-$w-trace$t.txt"
        sh perfbench/run.sh --workload "$w" --seed 1 --seconds 2 --trace "$t" > "$run"
        tail -n 1 "$run" | jq -e '.correct == true and .failed == 0' > /dev/null \
          || { echo "perfbench $w --trace $t: oracle failed" >&2; exit 1; }
        run_keys "$w" "$t" "$run" > "sim-$w-trace$t.json"
        jq --arg w "$w" --slurpfile keys "sim-$w-trace$t.json" \
          '.[$w] = ((.[$w] // {}) + $keys[0])' "$new" > "$new.tmp"
        mv "$new.tmp" "$new"
      done
    done
    mv "$new" "$pinned_file"
    ;;
  *)
    echo "usage: $0 check WORKLOAD 0|1 RUN.txt | regen" >&2
    exit 2
    ;;
esac
