#!/usr/bin/env bash
# End-to-end benchmark (README.md): builds a Release binary of the simulator
# from this checkout, then runs each workload in its own process.
#
#   bash bench/e2e/run.sh [--seed N] [--seconds S] [--trace] [--smoke]
#       runs every workload and prints every metric with its unit, median,
#       sample count and the verification verdict; exits 1 if any operation
#       failed. --smoke runs each workload at ~1/50 scale against its stored
#       digests (seeds 1 and 2), in well under 30 s once built.
#   bash bench/e2e/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       runs one workload; the last stdout line is its JSON result.
#   --record rewrites expected/<workload>.<scale>.seed<N>.txt from this
#       code (only when the simulator's output is meant to change).
#
# Build products and outputs (JSONL sink, layers.json, chrome traces) go
# to .bench_build/e2e at the root of the checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/.bench_build/e2e"
out="$build/out"

workload="" seed=1 seconds=20 trace=0 smoke=0 record=0
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) workload="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --trace)
      if [ $# -gt 1 ] && { [ "$2" = 0 ] || [ "$2" = 1 ]; }; then
        trace="$2"; shift 2
      else
        trace=1; shift
      fi ;;
    --smoke) smoke=1; shift ;;
    --record) record=1; shift ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done

mkdir -p "$build/tmp" "$out"
export TMPDIR="$build/tmp"  # keep compiler temporaries inside the checkout
generator=()
if command -v ninja >/dev/null 2>&1; then generator=(-G Ninja); fi
if [ ! -f "$build/build.ninja" ] && [ ! -f "$build/Makefile" ]; then
  cmake -S "$here" -B "$build" "${generator[@]}" \
    -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" --target leime_e2e -j 4 >&2

args=(--seed "$seed" --seconds "$seconds" --trace "$trace"
      --out-dir "$out" --expected-dir "$here/expected")
if [ "$smoke" = 1 ]; then args+=(--smoke); fi
if [ "$record" = 1 ]; then args+=(--record); fi

if [ -n "$workload" ]; then
  exec "$build/leime_e2e" --workload "$workload" "${args[@]}"
fi

status=0
seeds=("$seed")
if [ "$smoke" = 1 ] && [ "$record" = 0 ]; then seeds=(1 2); fi
for s in "${seeds[@]}"; do
  args[1]="$s"
  for w in campus_sweep fleet_100k fleet_100k_sharded wild_1k; do
    log="$out/$w.seed$s.log"
    "$build/leime_e2e" --workload "$w" "${args[@]}" > "$log" || status=1
    cat "$log"
    if ! tail -n 1 "$log" | grep -q '"failed": 0,'; then status=1; fi
  done
done
exit "$status"
