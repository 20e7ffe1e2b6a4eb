#!/usr/bin/env bash
# Repo verification gate.
#
#   1. Tier-1: configure + build + full ctest suite (ROADMAP.md contract).
#   2. Zero-alloc: the EventQueue steady-state allocation gate, the
#      attribution pillar's (an attributed task allocates nothing once the
#      ledger covers its peak) and the routed fabric's (steady-state flows
#      allocate nothing once the flow pool covers their peak), run
#      explicitly so the DESIGN.md §10, §13 and §11 properties show up by
#      name even though they also ride inside sim_test and net_test.
#   3. Policy: the differential/property suite proving the [policy] fast
#      paths (memo cache, warm-started B&B, batched eq. 20) result-
#      identical to the reference searches (DESIGN.md §12), run explicitly
#      even though it also rides inside ctest.
#   4. Bench: re-measure micro_sim, micro_exit_setting, tab_topology,
#      tab_latency_breakdown and tab_regret and gate them against
#      bench/baselines/ with scripts/bench_compare.py (counters strict
#      everywhere — including the warm-vs-cold B&B evaluation ratio, the
#      attribution waterfall/hop/conservation counters and the fast-path
#      regret counters — wall medians same-host only), then run the
#      end-to-end smoke (bench/e2e/run.sh --smoke), which checks every
#      workload's output digests against bench/e2e/expected/. Skipped when
#      python3 is unavailable.
#   5. TSan:   rebuild the parallel-runtime, shared-policy-engine, obs and
#              sim tests with -DLEIME_SANITIZE=thread and re-run them,
#              guarding the executor thread pool, policy::Engine locking,
#              the provenance recorder and the shard barrier protocol
#              (ShardPool + the sharded window loop, via sim_test's
#              Sharded*/ShardPool* suites and runtime_test's sharded
#              golden) against data races. Skipped (with a notice) when
#              the toolchain lacks libtsan.
#
# Env knobs: JOBS (parallel build jobs, default nproc),
#            LEIME_SKIP_TSAN=1 to run only the earlier passes,
#            LEIME_SKIP_BENCH=1 to skip the bench gates and the e2e smoke.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"

echo "== tier-1: build + ctest =="
cmake -B build -S . >/dev/null
cmake --build build -j "$JOBS"
ctest --test-dir build --output-on-failure -j "$JOBS"

echo "== zero-alloc: EventQueue, attribution and fabric steady-state gates =="
./build/tests/sim_test --gtest_filter='EventQueueAlloc.*'
./build/tests/sim_test \
  --gtest_filter='AttributionAlloc.SteadyStateTaskAllocatesNothing'
./build/tests/net_test \
  --gtest_filter='Fabric.SteadyStateFlowsRunWithZeroAllocations'

echo "== policy: differential equivalence suite =="
./build/tests/policy_test

if [[ "${LEIME_SKIP_BENCH:-0}" == "1" ]]; then
  echo "== bench gate skipped (LEIME_SKIP_BENCH=1) =="
elif command -v python3 >/dev/null 2>&1; then
  echo "== bench gate: micro_sim + micro_exit_setting + tab_topology +"
  echo "   tab_latency_breakdown + tab_regret =="
  (cd build && ./bench/micro_sim --out BENCH_micro_sim.json >/dev/null)
  python3 scripts/bench_compare.py build/BENCH_micro_sim.json bench/baselines/
  (cd build && ./bench/micro_exit_setting \
    --out BENCH_micro_exit_setting.json >/dev/null)
  python3 scripts/bench_compare.py build/BENCH_micro_exit_setting.json \
    bench/baselines/
  (cd build && ./bench/tab_topology --out BENCH_tab_topology.json >/dev/null)
  python3 scripts/bench_compare.py build/BENCH_tab_topology.json \
    bench/baselines/
  (cd build && ./bench/tab_latency_breakdown \
    --out BENCH_tab_latency_breakdown.json >/dev/null)
  python3 scripts/bench_compare.py build/BENCH_tab_latency_breakdown.json \
    bench/baselines/
  (cd build && ./bench/tab_regret --out BENCH_tab_regret.json >/dev/null)
  python3 scripts/bench_compare.py build/BENCH_tab_regret.json \
    bench/baselines/
  echo "== e2e smoke: every workload against its stored seed-1/2 digests =="
  bash bench/e2e/run.sh --smoke >/dev/null
else
  echo "== bench gate skipped: python3 unavailable =="
fi

if [[ "${LEIME_SKIP_TSAN:-0}" == "1" ]]; then
  echo "== tsan pass skipped (LEIME_SKIP_TSAN=1) =="
  exit 0
fi

probe="$(mktemp)"
if echo 'int main(){}' | "${CXX:-c++}" -fsanitize=thread -x c++ - -o "$probe" \
    2>/dev/null; then
  rm -f "$probe"
  echo "== tsan: runtime + sim + policy + obs tests under -fsanitize=thread =="
  cmake -B build-tsan -S . -DLEIME_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j "$JOBS" \
    --target runtime_test sim_test policy_test obs_test
  ctest --test-dir build-tsan --output-on-failure \
    -R '^(runtime_test|sim_test|policy_test|obs_test)$'
else
  rm -f "$probe"
  echo "== tsan pass skipped: ThreadSanitizer unavailable on this toolchain =="
fi

echo "== check.sh: all passes OK =="
