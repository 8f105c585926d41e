#!/usr/bin/env bash
# Tier-2 correctness gate for the Inversion reproduction.
#
# Runs the full ctest suite under ASan+UBSan and under TSan (both with the
# 2PL/latch discipline instrumentation enabled), then clang-tidy over src/.
# Any sanitizer report, test failure, discipline violation, or clang-tidy
# diagnostic fails the gate.
#
# Usage:
#   scripts/check.sh            # everything
#   scripts/check.sh asan       # just the ASan+UBSan leg
#   scripts/check.sh tsan       # just the TSan leg
#   scripts/check.sh tidy       # just clang-tidy
#   scripts/check.sh tsa        # invfs_lint + clang thread safety analysis
#   scripts/check.sh metrics    # just the metrics-overhead smoke gate
#   scripts/check.sh torture    # just the crash-recovery torture sweep (ASan)
#   scripts/check.sh load       # just the open-loop loadgen SLO smoke
#   scripts/check.sh net        # the network-fault sweep + faulted rpc load
set -euo pipefail

cd "$(dirname "$0")/.."
ROOT=$(pwd)
JOBS=${JOBS:-$(nproc)}
LEG=${1:-all}

run_sanitized() {
  local name=$1 preset=$2
  local dir="$ROOT/build-$name"
  echo "==> [$name] configure (INVFS_SANITIZE=$preset, INVFS_DEBUG_INVARIANTS=ON)"
  cmake -B "$dir" -S "$ROOT" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DINVFS_SANITIZE="$preset" \
        -DINVFS_DEBUG_INVARIANTS=ON >/dev/null
  echo "==> [$name] build"
  cmake --build "$dir" -j "$JOBS" -- --no-print-directory
  echo "==> [$name] ctest"
  # halt_on_error makes any sanitizer report a test failure; TSan's
  # second_deadlock_stack improves lock-order reports.
  env ASAN_OPTIONS=halt_on_error=1:detect_leaks=1 \
      UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
      TSAN_OPTIONS=halt_on_error=1:second_deadlock_stack=1 \
      ctest --test-dir "$dir" --output-on-failure -j "$JOBS"
  echo "==> [$name] clean"
}

run_tidy() {
  if ! command -v clang-tidy >/dev/null 2>&1; then
    echo "==> [tidy] clang-tidy not installed; skipping (install clang-tidy to run this leg)"
    return 0
  fi
  local dir="$ROOT/build-tidy"
  echo "==> [tidy] configure (compile database)"
  cmake -B "$dir" -S "$ROOT" -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
  echo "==> [tidy] clang-tidy over src/ (any diagnostic fails)"
  # WarningsAsErrors: '*' in .clang-tidy turns every diagnostic into an error,
  # so a non-zero exit here is the gate failing.
  find src -name '*.cc' -print0 |
    xargs -0 -n 4 -P "$JOBS" clang-tidy -p "$dir" --quiet
  echo "==> [tidy] clean"
}

run_tsa() {
  # Static concurrency gate, two parts:
  #   1. invfs_lint — the project's own invariant checker (naked std sync
  #      primitives, device I/O under a shard mutex, condition waits holding
  #      extra locks, crash-point catalog/placement). Pure C++, runs on any
  #      toolchain, no excuses.
  #   2. clang -Werror=thread-safety over the whole tree, plus the negative
  #      compile-fail cases in tests/compile_fail. The analysis only exists
  #      in clang, so this half is skipped (loudly) when clang++ is missing;
  #      part 1 and the GCC build still run everywhere.
  local dir="$ROOT/build-tsa"
  echo "==> [tsa] build + run invfs_lint over src/"
  cmake -B "$dir" -S "$ROOT" -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
  cmake --build "$dir" -j "$JOBS" --target invfs_lint -- --no-print-directory
  "$dir/src/lint/invfs_lint" "$ROOT/src"
  echo "==> [tsa] invfs_lint self-tests (fixtures must trip their rules)"
  ctest --test-dir "$dir" -R '^lint_' --output-on-failure
  if ! command -v clang++ >/dev/null 2>&1; then
    echo "==> [tsa] clang++ not installed; skipping thread safety analysis" \
         "(install clang to run the annotated build and compile-fail cases)"
    return 0
  fi
  local cdir="$ROOT/build-tsa-clang"
  echo "==> [tsa] clang build with -Werror=thread-safety"
  cmake -B "$cdir" -S "$ROOT" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DCMAKE_CXX_COMPILER=clang++ >/dev/null
  cmake --build "$cdir" -j "$JOBS" -- --no-print-directory
  echo "==> [tsa] compile-fail cases (annotation violations must not build)"
  ctest --test-dir "$cdir" -R '^compile_fail_' --output-on-failure
  echo "==> [tsa] clean"
}

run_metrics_overhead() {
  # Smoke gate on observability cost, vs a build with the instrumentation
  # compiled out (-DINVFS_NO_METRICS=ON), two benchmarks with two budgets:
  #
  #   BM_BufferHit (INVFS_METRICS_BUDGET, default 5%): the hottest
  #   instrumented loop in the engine. Its budget is tight because the hit
  #   path carries only striped counters — never a span; a span leaking into
  #   it trips this gate immediately.
  #
  #   BM_FileWriteRead (INVFS_SPAN_BUDGET, default 200%): the span-heaviest
  #   request path (p_write/p_read entry spans + latency histograms). Its
  #   bare fast path is ~200ns of buffered-chunk memcpy, while one span
  #   costs ~100ns (two steady_clock reads bound it from below), so a 5%
  #   budget is structurally impossible for *any* per-request timing; the
  #   generous budget instead catches regressions — instrumentation sneaking
  #   into a per-page or per-byte loop blows far past it.
  #
  # Median of several repetitions keeps machine noise from tripping either.
  local budget=${INVFS_METRICS_BUDGET:-5}
  local span_budget=${INVFS_SPAN_BUDGET:-200}
  local reps=${INVFS_METRICS_REPS:-7}
  local on_dir="$ROOT/build-metrics-on" off_dir="$ROOT/build-metrics-off"
  echo "==> [metrics] configure+build bench_micro (instrumented and INVFS_NO_METRICS)"
  cmake -B "$on_dir" -S "$ROOT" -DCMAKE_BUILD_TYPE=Release \
        -DINVFS_NO_METRICS=OFF >/dev/null
  cmake -B "$off_dir" -S "$ROOT" -DCMAKE_BUILD_TYPE=Release \
        -DINVFS_NO_METRICS=ON >/dev/null
  cmake --build "$on_dir" -j "$JOBS" --target bench_micro -- --no-print-directory
  cmake --build "$off_dir" -j "$JOBS" --target bench_micro -- --no-print-directory

  median_cpu_time() {
    # $1 = build dir, $2 = benchmark name. CSV rows:
    # name,iterations,real_time,cpu_time,... — pick the *_median aggregate
    # row's cpu_time.
    "$1/bench/bench_micro" --benchmark_filter="^$2\$" \
        --benchmark_repetitions="$reps" --benchmark_report_aggregates_only=true \
        --benchmark_format=csv 2>/dev/null |
      awk -F, -v row="\"$2_median\"" '$1 == row { print $4 }'
  }

  gate_benchmark() {
    # Alternate the two binaries over several passes and keep each one's best
    # median: machine noise (e.g. the build that just saturated every core)
    # inflates both, and the minimum is the stable estimate of the true cost.
    local bench=$1 budget=$2
    echo "==> [metrics] run $bench (3 alternating passes, $reps repetitions each)"
    local on_ns="" off_ns="" pass v
    for pass in 1 2 3; do
      v=$(median_cpu_time "$on_dir" "$bench")
      on_ns=$(awk -v a="$on_ns" -v b="$v" 'BEGIN { print (a == "" || b+0 < a+0) ? b : a }')
      v=$(median_cpu_time "$off_dir" "$bench")
      off_ns=$(awk -v a="$off_ns" -v b="$v" 'BEGIN { print (a == "" || b+0 < a+0) ? b : a }')
    done
    if [[ -z "$on_ns" || -z "$off_ns" ]]; then
      echo "==> [metrics] FAILED: could not parse $bench output" >&2
      exit 1
    fi
    echo "==> [metrics] $bench median cpu_time: instrumented=${on_ns}ns bare=${off_ns}ns"
    awk -v on="$on_ns" -v off="$off_ns" -v budget="$budget" -v bench="$bench" 'BEGIN {
      pct = (on / off - 1) * 100
      printf "==> [metrics] %s overhead: %.2f%% (budget %s%%)\n", bench, pct, budget
      exit (pct > budget) ? 1 : 0
    }' || { echo "==> [metrics] FAILED: $bench instrumentation overhead over budget" >&2; exit 1; }
  }

  gate_benchmark BM_BufferHit "$budget"
  gate_benchmark BM_FileWriteRead "$span_budget"
}

run_torture() {
  # Crash-recovery torture sweep under ASan: a fixed seed and scaled-up
  # plan enumerate 172 crash schedules (47 crash-point occurrences plus 125
  # device-write halts); each one snapshots the halted image, recovers it,
  # and runs the judge: the structural checker, no leaked locks or
  # transactions, and the acked/landed file-state oracle. Deterministic: a
  # failure reproduces with the printed schedule name.
  local dir="$ROOT/build-asan"
  echo "==> [torture] configure+build invfs_torture (INVFS_SANITIZE=address)"
  cmake -B "$dir" -S "$ROOT" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DINVFS_SANITIZE=address \
        -DINVFS_DEBUG_INVARIANTS=ON >/dev/null
  cmake --build "$dir" -j "$JOBS" --target invfs_torture -- --no-print-directory
  echo "==> [torture] main sweep (seed 1337, 172 schedules)"
  env ASAN_OPTIONS=halt_on_error=1:detect_leaks=1 \
      "$dir/src/fault/invfs_torture" \
        --seed 1337 --txns 60 --files 16 --buffers 20 \
        --occurrences 8 --write-schedules 120
  echo "==> [torture] create-heavy sweep (seed 1338, reaches btree.split)"
  env ASAN_OPTIONS=halt_on_error=1:detect_leaks=1 \
      "$dir/src/fault/invfs_torture" \
        --seed 1338 --txns 300 --files 400 --occurrences 2 --no-write-sweep
  echo "==> [torture] clean"
}

run_load() {
  # Open-loop load observatory smoke: the builtin four-tenant mix at its 1x
  # size, fixed seed, ~5 sim seconds. --check makes invfs_loadgen exit
  # non-zero if any per-tenant load objective reports VIOLATED or the span
  # ring dropped records — so a latency regression in the engine, a broken
  # tenant behavior, or an undersized default ring all fail this gate. The
  # baseline mix offers ~0.35 utilization, far from saturation: a VIOLATED
  # verdict here is a real regression, not load-test noise.
  local dir="$ROOT/build-load"
  echo "==> [load] configure+build invfs_loadgen (Release)"
  cmake -B "$dir" -S "$ROOT" -DCMAKE_BUILD_TYPE=Release >/dev/null
  cmake --build "$dir" -j "$JOBS" --target invfs_loadgen -- --no-print-directory
  echo "==> [load] builtin mix, seed 42, 5 sim seconds, --check"
  "$dir/src/load/invfs_loadgen" --seconds 5 --seed 42 --check
}

run_net() {
  # Unreliable-network gate, two halves:
  #
  #   1. invfs_torture --net-faults — the at-most-once sweep: every wire
  #      fault kind (request/response drop, duplicate delivery, response
  #      truncation, connection reset) crossed with occurrence positions over
  #      a recorded RPC workload (70 schedules at seed 4242). Each schedule
  #      must leave acked ops applied exactly once, failed ops invisible, no
  #      orphaned locks or transactions, and a structurally sound image.
  #      Deterministic: a failure replays by its printed name.
  #
  #   2. invfs_loadgen --transport rpc --net-drop 0.01 --check — the builtin
  #      four-tenant fleet on the priced wire with 1% frame loss. --check
  #      fails on any op error (a wire fault leaking through retry + DRC),
  #      any SLO violation, or span-ring drops. The p99 overrides account for
  #      the RPC protocol cost plus retry timeouts — the builtin targets are
  #      calibrated for the in-process path.
  local dir="$ROOT/build-load"
  echo "==> [net] configure+build invfs_torture + invfs_loadgen (Release)"
  cmake -B "$dir" -S "$ROOT" -DCMAKE_BUILD_TYPE=Release >/dev/null
  cmake --build "$dir" -j "$JOBS" --target invfs_torture invfs_loadgen \
        -- --no-print-directory
  echo "==> [net] at-most-once sweep (seed 4242)"
  "$dir/src/fault/invfs_torture" --net-faults --seed 4242
  echo "==> [net] rpc fleet with 1% drop, seed 42, 5 sim seconds, --check"
  "$dir/src/load/invfs_loadgen" --transport rpc --net-drop 0.01 \
      --seconds 5 --seed 42 --check \
      --profile mail:p99=4000000 --profile analytics:p99=5000000 \
      --profile audit:p99=3000000 --profile archive:p99=6000000
}

case "$LEG" in
  asan) run_sanitized asan address ;;
  tsan) run_sanitized tsan thread ;;
  tidy) run_tidy ;;
  tsa) run_tsa ;;
  metrics) run_metrics_overhead ;;
  torture) run_torture ;;
  load) run_load ;;
  net) run_net ;;
  all)
    run_sanitized asan address
    run_sanitized tsan thread
    run_tidy
    run_tsa
    run_metrics_overhead
    run_torture
    run_load
    run_net
    ;;
  *)
    echo "unknown leg '$LEG' (want asan, tsan, tidy, tsa, metrics, torture, load, net, or all)" >&2
    exit 2
    ;;
esac

echo "==> check.sh: all requested legs passed"
