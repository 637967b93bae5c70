// Machine-readable run reports (schema "zh-run-report-v1").
//
// One JSON schema serves three producers: `zhist --metrics`, the
// cluster master's per-rank table, and bench/bench_util.hpp's
// BENCH_*.json entries -- so every recorded run is self-describing
// (git sha, config, step times, work counters, rank table). A report
// prints what the run returned.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/timer.hpp"

namespace zh::obs {

/// Everything one run wants to record. Field groups are optional: an
/// empty rank table or counter list is simply omitted from the JSON.
struct RunReport {
  std::string tool;      ///< e.g. "zhist hist", "bench_table2_steps"
  std::string workload;  ///< free-form description of the input

  /// Ordered configuration key/values (tile size, zones, ranks, ...).
  std::vector<std::pair<std::string, std::string>> config;

  /// Step 0-4 + overhead breakdown; set has_times when populated.
  StepTimes times;
  bool has_times = false;

  /// Additional named timings emitted into "times_s" alongside (or
  /// instead of) the step breakdown -- for benches whose wall times do
  /// not map onto Steps 0-4 (e.g. checkpoint base vs journaled walls).
  /// Keys share the times_s namespace, so zh_perf diffs them like any
  /// step timing; avoid colliding with step0..4/overhead_*/step_total/
  /// end_to_end.
  std::vector<std::pair<std::string, double>> extra_times;

  /// Exact work counters (WorkCounters flattened by the caller, plus
  /// anything run-specific).
  std::vector<std::pair<std::string, std::uint64_t>> counters;

  /// Per-rank table (cluster runs): one row per rank, one entry per
  /// column name; `rank_states` optionally labels each rank's outcome.
  std::vector<std::string> rank_columns;
  std::vector<std::vector<std::uint64_t>> rank_rows;
  std::vector<std::string> rank_states;
};

/// Short git revision the binary was configured from ("unknown" when
/// the build was not in a git checkout).
[[nodiscard]] const char* build_git_sha();

/// Serialize as zh-run-report-v1 JSON.
[[nodiscard]] std::string report_json(const RunReport& report);

/// Write report_json() to `path`; throws IoError when the path is not
/// writable or the write fails.
void write_report_json(const std::string& path, const RunReport& report);

/// Human-readable summary (the `zhist --report` output): Table-2 style
/// step breakdown plus counters and the per-rank table.
void print_report(std::FILE* out, const RunReport& report);

}  // namespace zh::obs
