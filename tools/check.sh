#!/usr/bin/env bash
# Correctness-check driver: runs the warning-clean build, the sanitizer
# matrix and the clang-tidy pass locally or in CI.
#
#   tools/check.sh              # full matrix: dev, asan-ubsan, tsan, obs, lint, tidy
#   tools/check.sh dev          # RelWithDebInfo + -Werror + full ctest + zh-lint
#   tools/check.sh asan         # Debug + ASan/UBSan + full ctest
#   tools/check.sh tsan         # Debug + TSan + concurrency test suites
#   tools/check.sh faults       # fault-injection suites (dev + asan-ubsan)
#   tools/check.sh resume       # kill/resume soak: abort-point sweep + journal fuzz
#   tools/check.sh query        # batch query engine: bit-identity against zhist hist
#   tools/check.sh obs          # trace/report end-to-end + ZH_OBS=OFF build
#   tools/check.sh lint         # zh-lint project invariants + header check
#   tools/check.sh tidy         # clang-tidy over src/ (needs clang-tidy)
#
# Each stage configures its own build tree (build-dev, build-asan-ubsan,
# build-tsan, build-tidy) via CMakePresets.json, so stages never poison
# each other's caches. Every stage builds with ZH_WERROR=ON: warnings are
# errors here even when the default developer build keeps them advisory.
set -euo pipefail

cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc 2>/dev/null || echo 2)}"
CTEST_PARALLEL="${CTEST_PARALLEL:-${JOBS}}"

# Bounds of the obs stage: span coverage of the single-process and the
# merged cluster trace (percent of the root span), and the dormant-span
# overhead (percent, the median ON/OFF time ratio of OBS_OVERHEAD_PAIRS
# pairs of runs). Constants, not environment overrides: an override
# could only loosen a gate.
readonly OBS_MIN_COVERAGE=95
readonly OBS_CLUSTER_MIN_COVERAGE=80
readonly OBS_TOL_PCT=2
readonly OBS_OVERHEAD_PAIRS=60

# Concurrency suites exercised under TSan: ThreadPool + the device's
# block launches, thrust-analog primitives, the MPI-like cluster layer
# (including the delay-injection and crash-recovery paths, and the
# metrics row each rank writes into the shared result), the Step-2 tile
# sweep (per-chunk scratch on the pool), the Step-4 refinement strategies
# (parallel edge-index build + scanline kernels), the stress mix, and
# every entry point against the oracle (the inside count's plain
# increments into owned zone rows and atomic merges of split ones).
TSAN_FILTER='*ThreadPool*:*Primitive*:*Comm*:*Partition*:*Cluster*:*Stress*:*Device*:*Fault*:*Obs*:*Step2*:*Refine*:*Checkpoint*:*TraceCausal*:*QueryEngine*:*EntryPoint*'

# Fault-tolerance suites: deterministic delay injection, deadline-bounded
# receives, crash recovery (a silent worker is never declared dead),
# corruption-detecting I/O, the parser corpus, and the checkpoint-journal
# torn-write/bit-flip/resume suites.
FAULT_FILTER='*Fault*:*ClusterRecovery*:*ParserRobustness*:*CorruptIo*:*Journal*:*Checkpoint*'

log() { printf '\n\033[1;34m== %s ==\033[0m\n' "$*"; }

configure_and_build() {
  local preset="$1"
  log "configure (${preset})"
  cmake --preset "${preset}" >/dev/null
  log "build (${preset}, -j${JOBS})"
  cmake --build --preset "${preset}" -j "${JOBS}"
}

run_dev() {
  configure_and_build dev
  log "ctest (dev)"
  ctest --preset dev -j "${CTEST_PARALLEL}"
  # Step-4 strategy gate: scanline must stay bit-identical to brute,
  # >= 3x cheaper in edge tests, and no slower on a dense-edge fixture
  # (the bench exits nonzero otherwise).
  log "step-4 refinement gate (bench_step4_refine)"
  ZH_BENCH_JSON=- ./build-dev/bench/bench_step4_refine
  # Project-invariant gate: the tree must be zh-lint-clean (layering DAG,
  # error discipline, index widths, hygiene; see DESIGN.md §7).
  log "zh-lint (dev flow)"
  ./build-dev/tools/zh_lint/zh-lint .
}

run_lint() {
  # Static project invariants: zh-lint (layering DAG, Status discipline,
  # 64-bit index widths, hygiene, suppression audit) plus the compiler-
  # verified header self-containment target. The JSON report lands next
  # to the build tree for the CI artifact upload.
  configure_and_build dev
  log "zh-lint (full tree, JSON report)"
  ./build-dev/tools/zh_lint/zh-lint . --json build-dev/zh-lint-report.json
  log "header self-containment (check_headers)"
  cmake --build build-dev --target check_headers -j "${JOBS}"
}

run_asan() {
  configure_and_build asan-ubsan
  log "ctest (asan-ubsan)"
  ctest --preset asan-ubsan -j "${CTEST_PARALLEL}"
}

run_tsan() {
  configure_and_build tsan
  log "concurrency suites (tsan)"
  TSAN_OPTIONS="halt_on_error=1:second_deadlock_stack=1" \
    ./build-tsan/tests/zh_tests --gtest_filter="${TSAN_FILTER}" \
    --gtest_brief=1
}

run_faults() {
  # Fault scenarios under both the optimized build (timing-sensitive
  # paths at full speed) and ASan/UBSan (memory safety when recovery
  # and corrupted-input paths fire).
  configure_and_build dev
  log "fault-injection suites (dev)"
  ./build-dev/tests/zh_tests --gtest_filter="${FAULT_FILTER}" \
    --gtest_brief=1
  configure_and_build asan-ubsan
  log "fault-injection suites (asan-ubsan)"
  ./build-asan-ubsan/tests/zh_tests --gtest_filter="${FAULT_FILTER}" \
    --gtest_brief=1
}

run_resume() {
  # Kill/resume soak harness (DESIGN.md 5d): a scripted process abort
  # (exit 43, a simulated SIGKILL) at every crash point and several
  # occurrences, each followed by `zhist --resume`, must reproduce the
  # uninterrupted whole-raster run bit for bit -- including the
  # journal_record abort, which leaves a torn half-frame on disk. The
  # torn-write/bit-flip fuzz suites then run under ASan/UBSan, and the
  # journaling overhead gate closes the stage.
  configure_and_build dev
  local tmp="build-dev/resume-check"
  rm -rf "${tmp}" && mkdir -p "${tmp}"
  local zhist=./build-dev/tools/zhist

  # The golden run is one whole-raster pipeline call: the executor path,
  # independent of the cluster driver every resumed run goes through.
  log "golden whole-raster run (dev)"
  "${zhist}" synth "${tmp}/dem.zgrid" --rows 300 --cols 300
  "${zhist}" zones "${tmp}/zones.tsv" --zones 20
  "${zhist}" hist "${tmp}/dem.zgrid" "${tmp}/zones.tsv" \
    -o "${tmp}/golden.csv" --bins 128 --tile 64

  # One interrupted run + one resume; verifies exit codes, bit-identity
  # against the golden CSV, and (when the journal held records) that the
  # run report shows journal.partitions_skipped > 0.
  kill_resume_case() {
    local name="$1" plan="$2"
    local ck="${tmp}/ck-${name}"
    rm -rf "${ck}"
    local rc=0
    "${zhist}" hist "${tmp}/dem.zgrid" "${tmp}/zones.tsv" \
      -o "${tmp}/out-${name}.csv" --bins 128 --tile 64 --ranks 3 \
      --partitions 4x4 --checkpoint-dir "${ck}" \
      --fault-plan "${plan}" >/dev/null 2>&1 || rc=$?
    if [[ "${rc}" -ne 0 && "${rc}" -ne 43 ]]; then
      echo "abort run '${name}' exited ${rc} (expected 0 or 43)" >&2
      return 1
    fi
    if [[ "${rc}" -eq 0 ]]; then
      # The abort occurrence was never reached: the run completed; its
      # output must already match the golden run.
      cmp "${tmp}/out-${name}.csv" "${tmp}/golden.csv"
      return 0
    fi
    local resume_rc=0
    "${zhist}" hist "${tmp}/dem.zgrid" "${tmp}/zones.tsv" \
      -o "${tmp}/out-${name}.csv" --bins 128 --tile 64 --ranks 3 \
      --partitions 4x4 --checkpoint-dir "${ck}" --resume --report \
      >"${tmp}/report-${name}.txt" 2>"${tmp}/stderr-${name}.txt" ||
      resume_rc=$?
    if [[ "${resume_rc}" -ne 0 ]]; then
      echo "resume '${name}' exited ${resume_rc}" >&2
      cat "${tmp}/stderr-${name}.txt" >&2
      return 1
    fi
    cmp "${tmp}/out-${name}.csv" "${tmp}/golden.csv"
    # "resume: N of M partitions journaled" -- when N > 0 the run report
    # must account for the skipped partitions.
    local journaled
    journaled="$(sed -n 's/^resume: \([0-9]*\) of .*/\1/p' \
      "${tmp}/stderr-${name}.txt")"
    if [[ -n "${journaled}" && "${journaled}" -gt 0 ]]; then
      local skipped
      skipped="$(sed -n \
        's/^ *journal\.partitions_skipped *\([0-9]*\)$/\1/p' \
        "${tmp}/report-${name}.txt" | head -n1)"
      if [[ -z "${skipped}" || "${skipped}" -eq 0 ]]; then
        echo "resume '${name}': ${journaled} partitions journaled but" \
          "journal.partitions_skipped not positive in the run report" >&2
        return 1
      fi
    fi
  }

  log "kill-at-every-abort-point sweep + resume bit-identity (dev)"
  local point occ
  for point in startup partition_start partition_done result_sent \
    before_finish journal_record; do
    for occ in 0 2 5; do
      echo "  abort=${point}#${occ}"
      kill_resume_case "${point}-${occ}" "abort=${point}#${occ}"
    done
  done

  log "double-interrupted resume (kill, resume+kill, resume)"
  # Kill mid-journal-append, then kill the RESUME mid-append too (torn
  # tail both times); the second resume must still land bit-identical.
  local ck="${tmp}/ck-double" rc
  rm -rf "${ck}"
  rc=0
  "${zhist}" hist "${tmp}/dem.zgrid" "${tmp}/zones.tsv" \
    -o "${tmp}/out-double.csv" --bins 128 --tile 64 --ranks 3 \
    --partitions 4x4 --checkpoint-dir "${ck}" \
    --fault-plan "abort=journal_record#0" >/dev/null 2>&1 || rc=$?
  [[ "${rc}" -eq 43 ]] || {
    echo "first kill exited ${rc} (expected 43)" >&2
    return 1
  }
  rc=0
  "${zhist}" hist "${tmp}/dem.zgrid" "${tmp}/zones.tsv" \
    -o "${tmp}/out-double.csv" --bins 128 --tile 64 --ranks 3 \
    --partitions 4x4 --checkpoint-dir "${ck}" --resume \
    --fault-plan "abort=journal_record#1" >/dev/null 2>&1 || rc=$?
  [[ "${rc}" -eq 43 ]] || {
    echo "killed resume exited ${rc} (expected 43)" >&2
    return 1
  }
  "${zhist}" hist "${tmp}/dem.zgrid" "${tmp}/zones.tsv" \
    -o "${tmp}/out-double.csv" --bins 128 --tile 64 --ranks 3 \
    --partitions 4x4 --checkpoint-dir "${ck}" --resume --report \
    >"${tmp}/report-double.txt" 2>"${tmp}/stderr-double.txt"
  cmp "${tmp}/out-double.csv" "${tmp}/golden.csv"
  grep -q "^resume: [1-9]" "${tmp}/stderr-double.txt"

  log "journal torn-write/bit-flip fuzz suites (asan-ubsan)"
  configure_and_build asan-ubsan
  ./build-asan-ubsan/tests/zh_tests \
    --gtest_filter='*Journal*:*Checkpoint*' --gtest_brief=1

  log "checkpoint journaling overhead gate (dev)"
  ZH_BENCH_JSON=build-dev/BENCH_checkpoint_overhead.json \
    ./build-dev/bench/bench_checkpoint_overhead
}

run_query() {
  # Batch query engine gate (DESIGN.md §9): every `zhist query --batch`
  # output is compared byte-for-byte against an independent `zhist hist`
  # run over the same raster and zones.
  configure_and_build dev
  local tmp="build-dev/query-check"
  rm -rf "${tmp}" && mkdir -p "${tmp}"
  local zhist=./build-dev/tools/zhist

  log "golden independent runs (zhist hist)"
  "${zhist}" synth "${tmp}/dem.zgrid" --rows 400 --cols 400
  "${zhist}" zones "${tmp}/zones_a.tsv" --zones 24
  "${zhist}" zones "${tmp}/zones_b.tsv" --zones 24 --seed 9
  "${zhist}" hist "${tmp}/dem.zgrid" "${tmp}/zones_a.tsv" \
    -o "${tmp}/golden_a.csv" --bins 128 --tile 32
  "${zhist}" hist "${tmp}/dem.zgrid" "${tmp}/zones_b.tsv" \
    -o "${tmp}/golden_b.csv" --bins 128 --tile 32

  log "batch run: bit-identity (zhist query)"
  cat > "${tmp}/spec.json" <<EOF
{
  "tile": 32,
  "queries": [
    {"raster": "${tmp}/dem.zgrid", "zones": "${tmp}/zones_a.tsv",
     "bins": 128, "out": "${tmp}/q0.csv"},
    {"raster": "${tmp}/dem.zgrid", "zones": "${tmp}/zones_b.tsv",
     "bins": 128, "out": "${tmp}/q1.csv"},
    {"raster": "${tmp}/dem.zgrid", "zones": "${tmp}/zones_a.tsv",
     "bins": 128, "out": "${tmp}/q2.csv"}
  ]
}
EOF
  "${zhist}" query --batch "${tmp}/spec.json" \
    --metrics "${tmp}/query.metrics.json"
  cmp "${tmp}/q0.csv" "${tmp}/golden_a.csv"
  cmp "${tmp}/q1.csv" "${tmp}/golden_b.csv"
  cmp "${tmp}/q2.csv" "${tmp}/golden_a.csv"
  ./build-dev/tools/validate_obs metrics "${tmp}/query.metrics.json"
}

run_obs() {
  # End-to-end observability gate: a traced+metered run must produce
  # schema-valid outputs whose spans cover the run, the per-rank metrics
  # table must survive fault injection, and the kill-switch build
  # (ZH_OBS=OFF, every span a no-op) must stay warning-clean and
  # within OBS_TOL_PCT percent of the instrumented build's runtime.
  configure_and_build dev
  local tmp="build-dev/obs-check"
  rm -rf "${tmp}" && mkdir -p "${tmp}"

  log "end-to-end trace + metrics + report (dev)"
  ./build-dev/tools/zhist synth "${tmp}/dem.zgrid" --rows 600 --cols 600
  ./build-dev/tools/zhist zones "${tmp}/zones.tsv" --zones 40
  ./build-dev/tools/zhist hist "${tmp}/dem.zgrid" "${tmp}/zones.tsv" \
    -o "${tmp}/hist.csv" --bins 256 --report \
    --trace "${tmp}/run.trace.json" --metrics "${tmp}/run.metrics.json"
  ./build-dev/tools/validate_obs trace "${tmp}/run.trace.json" \
    --min-coverage "${OBS_MIN_COVERAGE}"
  ./build-dev/tools/validate_obs metrics "${tmp}/run.metrics.json"

  log "unwritable --trace/--metrics paths fail fast (dev)"
  if ./build-dev/tools/zhist hist "${tmp}/dem.zgrid" "${tmp}/zones.tsv" \
    -o "${tmp}/hist-neg.csv" --trace /nonexistent-zh-dir/x.json \
    2>/dev/null; then
    echo "expected nonzero exit for unwritable --trace path" >&2
    return 1
  fi

  log "per-rank metrics table under fault injection (dev)"
  ./build-dev/tools/zhist hist "${tmp}/dem.zgrid" "${tmp}/zones.tsv" \
    -o "${tmp}/hist-cluster.csv" --bins 256 --tile 64 --ranks 3 \
    --fault-plan "seed=5,delay=0.05,crash=2@partition_done" \
    --metrics "${tmp}/cluster.metrics.json"
  ./build-dev/tools/validate_obs metrics "${tmp}/cluster.metrics.json" \
    --require-ranks 3

  log "merged cluster trace: causal flow graph + critical path (dev)"
  # A fault-injected 4-rank run must still yield ONE merged trace whose
  # flow edges all resolve (zh_trace exits nonzero on a dangling recv)
  # and whose critical path tiles the wall clock. Span coverage gets a
  # lower floor than the single-process gate: the crashed rank's window
  # is a legitimate instrumentation gap.
  ./build-dev/tools/zhist hist "${tmp}/dem.zgrid" "${tmp}/zones.tsv" \
    -o "${tmp}/hist-trace.csv" --bins 256 --tile 64 --ranks 4 \
    --partitions 4x4 \
    --fault-plan "seed=5,delay=0.05,crash=2@partition_done" \
    --trace "${tmp}/cluster.trace.json" \
    --metrics "${tmp}/trace.metrics.json"
  ./build-dev/tools/validate_obs trace "${tmp}/cluster.trace.json" \
    --min-coverage "${OBS_CLUSTER_MIN_COVERAGE}"
  ./build-dev/tools/zh_trace/zh_trace "${tmp}/cluster.trace.json" \
    --min-coverage 0.95 --report "${tmp}/cluster.critpath.json"

  log "bench regression differ gates (zh_perf)"
  # Committed baselines compared against themselves must pass ...
  ./build-dev/tools/zh_perf/zh_perf --baseline-dir . --dir .
  # ... and a synthetically regressed copy must fail the gate.
  mkdir -p "${tmp}/perf-regressed"
  sed 's/"step_total":/"step_total":9e9,"zz_synthetic_orig":/' \
    BENCH_table2.json > "${tmp}/perf-regressed/BENCH_table2.json"
  if ./build-dev/tools/zh_perf/zh_perf BENCH_table2.json \
    "${tmp}/perf-regressed/BENCH_table2.json" >/dev/null; then
    echo "zh_perf accepted a synthetically regressed report" >&2
    return 1
  fi

  log "kill-switch build (ZH_OBS=OFF)"
  configure_and_build obs-off
  ./build-obs-off/tests/zh_tests --gtest_filter='*Obs*' --gtest_brief=1

  log "dormant-instrumentation overhead (ON vs OFF build)"
  # OBS_OVERHEAD_PAIRS pairs of runs of both builds' bench, alternating
  # which runs first; each run reports the time of one pipeline run,
  # measured over at least 50 ms. The median of the pairs' ON/OFF ratios
  # may exceed 1 by at most OBS_TOL_PCT percent. Pairing cancels the
  # host's level shifts: when every time dropped by a third mid-gate, the
  # two unpaired medians read -2.6% for an ON build 5% slower.
  local times="${tmp}/overhead.txt" pair on off
  : >"${times}"
  obs_bench() {  # <build dir>: print its bench's seconds per run
    ZH_BENCH_JSON="$1/BENCH_obs_overhead.json" \
      "./$1/bench/bench_obs_overhead" |
      sed -n 's/^ZH_OBS_BENCH_SECONDS=//p'
  }
  for ((pair = 0; pair < OBS_OVERHEAD_PAIRS; ++pair)); do
    if ((pair % 2 == 0)); then
      on="$(obs_bench build-dev)"
      off="$(obs_bench build-obs-off)"
    else
      off="$(obs_bench build-obs-off)"
      on="$(obs_bench build-dev)"
    fi
    echo "${on} ${off}" >>"${times}"
  done
  awk -v tol="${OBS_TOL_PCT}" -v pairs="${OBS_OVERHEAD_PAIRS}" '
    function median(v, n,   i, j, t) {
      for (i = 2; i <= n; ++i) {
        for (j = i; j > 1 && v[j - 1] > v[j]; --j) {
          t = v[j]; v[j] = v[j - 1]; v[j - 1] = t;
        }
      }
      return n % 2 ? v[(n + 1) / 2] : (v[n / 2] + v[n / 2 + 1]) / 2;
    }
    NF == 2 && $1 > 0 && $2 > 0 {
      ++n; ratio[n] = $1 / $2; on[n] = $1; off[n] = $2;
    }
    END {
      if (n != pairs) {
        printf "  obs overhead: %d of %d pairs timed\n", n, pairs \
          > "/dev/stderr";
        exit 1;
      }
      pct = (median(ratio, n) - 1.0) * 100.0;
      printf "  obs ON %.5fs vs OFF %.5fs (medians); median ON/OFF of %d " \
             "pairs: %+.2f%% (tolerance %s%%)\n", median(on, n),
             median(off, n), n, pct, tol;
      exit (pct <= tol + 0.0) ? 0 : 1;
    }' "${times}"
}

run_tidy() {
  if ! command -v clang-tidy >/dev/null 2>&1; then
    log "clang-tidy not found -- skipping lint stage"
    echo "install clang-tidy (>= 15) to run the lint gate locally" >&2
    return 0
  fi
  configure_and_build tidy
  log "clang-tidy (src/)"
  local sources
  mapfile -t sources < <(find src -name '*.cpp' | sort)
  local runner
  if runner="$(command -v run-clang-tidy)"; then
    "${runner}" -quiet -p build-tidy -j "${JOBS}" "${sources[@]}"
  else
    clang-tidy -p build-tidy --quiet "${sources[@]}"
  fi
}

stages=("$@")
if [[ ${#stages[@]} -eq 0 ]]; then
  stages=(dev asan tsan obs lint tidy)
fi

for stage in "${stages[@]}"; do
  case "${stage}" in
    dev) run_dev ;;
    asan | asan-ubsan) run_asan ;;
    tsan) run_tsan ;;
    faults) run_faults ;;
    resume) run_resume ;;
    query) run_query ;;
    obs) run_obs ;;
    lint) run_lint ;;
    tidy) run_tidy ;;
    *)
      echo "unknown stage '${stage}' (expected: dev asan tsan faults resume query obs lint tidy)" >&2
      exit 2
      ;;
  esac
done

log "all requested stages passed"
