#!/usr/bin/env bash
# Lints every metric name registered in the source tree against the
# naming contract enforced at runtime by obs::MetricsRegistry:
#
#     ^leime_[a-z0-9_]+$
#
# The registry throws on a bad name, but only on the code path that
# registers it — a misnamed metric behind a rarely-taken branch would
# ship. This lint catches them statically: every string literal passed
# to counter(...) / gauge(...) / histogram(...) under src/, bench/ and
# examples/ must match. tests/ is exempt (negative tests register bad
# names on purpose). Run by CI (.github/workflows/ci.yml, obs job).
#
# Names composed at run time (leime_net_*, leime_attr_*, leime_slo_*), the
# _total suffix on counters and one registration site per name are
# checked on the live registry of a run with every pillar on, by
# Golden.ObsOutputFilesAreByteStable (tests/runtime/golden_test.cpp).
set -euo pipefail
cd "$(dirname "$0")/.."

pattern='^leime_[a-z0-9_]+$'
fail=0
found=0

# Registration sites with a literal first argument, e.g.
#   registry.counter("leime_tasks_generated_total")
#   reg->histogram("leime_tct_seconds", {...})
while IFS=: read -r file line name; do
  found=$((found + 1))
  if ! [[ "$name" =~ $pattern ]]; then
    echo "BAD  $file:$line  '$name' does not match $pattern" >&2
    fail=1
  fi
done < <(grep -rnoE '(counter|gauge|histogram)\s*\(\s*"[^"]*"' \
           --include='*.cpp' --include='*.h' src bench examples \
         | sed -E 's/\s*\((counter|gauge|histogram)\s*\(\s*"/:\1("/' \
         | sed -E 's/:(counter|gauge|histogram)\("([^"]*)"$/:\2/')

if [[ "$found" -eq 0 ]]; then
  echo "lint_metric_names: no registration sites found — lint is broken" >&2
  exit 2
fi

# Second pass: profiler section/counter names (src/prof, DESIGN.md §9).
# Dot-separated so they can never collide with the underscore-only metric
# namespace above, and each name must be unique across instrumentation
# sites — two sites sharing a name would merge into one node and make the
# flamegraph lie about where time went. Comment lines are skipped (the
# profiler header quotes example names in its docs).
#
# Two names are shared by exactly two sites on purpose, because the e2e
# benchmark's layer map (bench/e2e/layers.cpp) sums each pair as one layer:
#   leime.sim.event_loop   the single-queue and the sharded event loop,
#                          both read as sim.event_loop_s;
#   leime.bench.ini_parse  parsing and freeing the INI file (bench/e2e),
#                          together read as util.ini.parse_s.
# A third site for either, or any other repeat, still fails.
prof_pattern='^leime\.[a-z0-9_.]+$'
prof_found=0
declare -A prof_seen prof_sites
declare -A prof_shared=([leime.sim.event_loop]=2 [leime.bench.ini_parse]=2)
while IFS=: read -r file line name; do
  prof_found=$((prof_found + 1))
  if ! [[ "$name" =~ $prof_pattern ]]; then
    echo "BAD  $file:$line  '$name' does not match $prof_pattern" >&2
    fail=1
  fi
  prof_sites[$name]=$(( ${prof_sites[$name]:-0} + 1 ))
  if (( prof_sites[$name] > ${prof_shared[$name]:-1} )); then
    echo "DUP  $file:$line  '$name' already used at ${prof_seen[$name]}" >&2
    fail=1
  fi
  prof_seen[$name]="${prof_seen[$name]:-$file:$line}"
done < <(grep -rn --include='*.cpp' --include='*.h' \
           -E 'LEIME_PROF_(SCOPE|COUNT)\(\s*"' src bench examples \
         | grep -vE '^[^:]+:[0-9]+:\s*//' \
         | sed -E 's/^([^:]+):([0-9]+):.*LEIME_PROF_(SCOPE|COUNT)\(\s*"([^"]*)".*/\1:\2:\4/')

if [[ "$prof_found" -eq 0 ]]; then
  echo "lint_metric_names: no profiler sites found — lint is broken" >&2
  exit 2
fi

if [[ "$fail" -ne 0 ]]; then
  exit 1
fi
echo "lint_metric_names: $found registered names all match $pattern"
echo "lint_metric_names: $prof_found profiler names all match $prof_pattern, no duplicates beyond the two shared names"
