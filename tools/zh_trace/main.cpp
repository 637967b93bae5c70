// zh_trace -- causal analyzer for merged cluster traces.
//
// Usage:
//   zh_trace <merged_trace.json> [options]
//     --report <out.json>      write a zh-trace-report-v1 document
//     --min-coverage <frac>    fail unless the critical path tiles at
//                              least this fraction of the wall time (a
//                              number from 0 to 1)
//     --validate-only          only check the flow graph, skip analysis
//
// Exit codes: 0 = ok; 1 = invalid flow graph (dangling recv), dropped
// events, or coverage below threshold; 2 = usage or unreadable input.
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>

#include "common/error.hpp"
#include "trace_analysis.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: zh_trace <merged_trace.json> [--report out.json] "
               "[--min-coverage frac] [--validate-only]\n");
  return 2;
}

// The --min-coverage value: the whole token must be one finite number
// from 0 to 1 (from_chars skips no whitespace and takes no '+').
std::optional<double> parse_fraction(const char* token) {
  double value = 0.0;
  const char* end = token + std::strlen(token);
  const auto [ptr, ec] = std::from_chars(token, end, value);
  if (ec != std::errc() || ptr != end || !std::isfinite(value) ||
      value < 0.0 || value > 1.0) {
    return std::nullopt;
  }
  return value;
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace_path;
  std::string report_path;
  double min_coverage = 0.0;
  bool validate_only = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--report" && i + 1 < argc) {
      report_path = argv[++i];
    } else if (arg == "--min-coverage" && i + 1 < argc) {
      const std::optional<double> v = parse_fraction(argv[++i]);
      if (!v) return usage();
      min_coverage = *v;
    } else if (arg == "--validate-only") {
      validate_only = true;
    } else if (!arg.empty() && arg[0] == '-') {
      return usage();
    } else if (trace_path.empty()) {
      trace_path = arg;
    } else {
      return usage();
    }
  }
  if (trace_path.empty()) return usage();

  try {
    const zh::trace::TraceModel model = zh::trace::load_trace_file(trace_path);
    const zh::trace::FlowCheck flows = zh::trace::validate_flows(model);
    std::printf("zh_trace: %s: %zu spans, %zu sends, %zu recvs\n",
                trace_path.c_str(), model.spans.size(), flows.sends,
                flows.recvs);
    for (const std::string& err : flows.errors) {
      std::fprintf(stderr, "zh_trace: ERROR: %s\n", err.c_str());
    }
    if (model.dropped_events > 0) {
      std::fprintf(stderr,
                   "zh_trace: ERROR: trace is truncated (%llu dropped "
                   "events); analysis would be misleading\n",
                   static_cast<unsigned long long>(model.dropped_events));
    }
    bool failed = !flows.ok() || model.dropped_events > 0;
    if (!validate_only) {
      const zh::trace::CriticalPath cp = zh::trace::critical_path(model);
      const std::vector<zh::trace::RankStats> ranks =
          zh::trace::rank_breakdown(model, cp);

      std::printf(
          "critical path: wall %lld us = work %lld + transit %lld + idle "
          "%lld (coverage %.4f)\n",
          static_cast<long long>(cp.wall_us),
          static_cast<long long>(cp.work_us),
          static_cast<long long>(cp.transit_us),
          static_cast<long long>(cp.idle_us), cp.coverage);
      for (const zh::trace::RankStats& r : ranks) {
        std::printf(
            "  rank %3d: %6zu spans, busy %lld us (%.1f%%), comm-wait %lld "
            "us, crit-work %lld us\n",
            r.rank, r.span_count, static_cast<long long>(r.busy_us),
            r.utilization * 100.0, static_cast<long long>(r.comm_wait_us),
            static_cast<long long>(r.crit_work_us));
      }
      if (!report_path.empty()) {
        const std::string json =
            zh::trace::trace_report_json(model, flows, cp, ranks);
        std::ofstream out(report_path,
                          std::ios::binary | std::ios::trunc);
        if (!out.good()) {
          std::fprintf(stderr, "zh_trace: cannot write %s\n",
                       report_path.c_str());
          return 2;
        }
        out.write(json.data(), static_cast<std::streamsize>(json.size()));
        out.flush();
        std::printf("wrote %s\n", report_path.c_str());
      }
      if (cp.coverage + 1e-9 < min_coverage) {
        std::fprintf(stderr,
                     "zh_trace: ERROR: critical-path coverage %.4f below "
                     "required %.4f\n",
                     cp.coverage, min_coverage);
        failed = true;
      }
    }
    if (failed) {
      std::fprintf(stderr, "zh_trace: FAILED\n");
      return 1;
    }
    std::printf("zh_trace: OK\n");
    return 0;
  } catch (const zh::Error& e) {
    std::fprintf(stderr, "zh_trace: %s\n", e.what());
    return 2;
  }
}
