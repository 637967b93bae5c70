#include "obs/report.hpp"

#include <charconv>
#include <cinttypes>
#include <fstream>

#include "common/contracts.hpp"
#include "common/error.hpp"
#include "common/memory.hpp"
#include "obs/json.hpp"

namespace zh::obs {

namespace {

#if defined(ZH_GIT_SHA)
constexpr const char* kGitSha = ZH_GIT_SHA;
#else
constexpr const char* kGitSha = "unknown";
#endif

void append_number(std::string& out, double v) {
  // to_chars, not snprintf: %g honors LC_NUMERIC, and a comma decimal
  // point would make the emitted report invalid JSON. to_chars formats
  // as %.9g does in the C locale, regardless of the global locale.
  char buf[32];
  const auto [end, ec] =
      std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::general, 9);
  ZH_ASSERT(ec == std::errc(), "double did not fit a 32-byte buffer");
  out.append(buf, end);
}

void append_kv(std::string& out, const char* key, double v, bool& first) {
  if (!first) out += ",";
  first = false;
  out += "\"";
  out += key;
  out += "\":";
  append_number(out, v);
}

}  // namespace

const char* build_git_sha() { return kGitSha; }

std::string report_json(const RunReport& report) {
  std::string out;
  out.reserve(4096);
  out += "{\"schema\":\"zh-run-report-v1\",\"tool\":\"";
  out += json_escape(report.tool);
  out += "\",\"workload\":\"";
  out += json_escape(report.workload);
  out += "\",\"git_sha\":\"";
  out += json_escape(build_git_sha());
  out += "\",\"peak_rss_bytes\":";
  out += std::to_string(peak_rss_bytes());

  out += ",\"config\":{";
  bool first = true;
  for (const auto& [k, v] : report.config) {
    if (!first) out += ",";
    first = false;
    out += "\"";
    out += json_escape(k);
    out += "\":\"";
    out += json_escape(v);
    out += "\"";
  }
  out += "}";

  if (report.has_times || !report.extra_times.empty()) {
    out += ",\"times_s\":{";
    first = true;
    if (report.has_times) {
      for (std::size_t i = 0; i < StepTimes::kSteps; ++i) {
        char key[8];
        std::snprintf(key, sizeof(key), "step%zu", i);
        append_kv(out, key, report.times.seconds[i], first);
      }
      append_kv(out, "overhead_transfer", report.times.overhead.transfer,
                first);
      append_kv(out, "overhead_merge", report.times.overhead.merge, first);
      append_kv(out, "overhead_output", report.times.overhead.output, first);
      append_kv(out, "overhead_total", report.times.overhead.total(), first);
      append_kv(out, "step_total", report.times.step_total(), first);
      append_kv(out, "end_to_end", report.times.end_to_end(), first);
    }
    for (const auto& [k, v] : report.extra_times) {
      append_kv(out, json_escape(k).c_str(), v, first);
    }
    out += "}";
  }

  if (!report.counters.empty()) {
    out += ",\"counters\":{";
    first = true;
    for (const auto& [k, v] : report.counters) {
      if (!first) out += ",";
      first = false;
      out += "\"";
      out += json_escape(k);
      out += "\":";
      out += std::to_string(v);
    }
    out += "}";
  }

  if (!report.rank_columns.empty() && !report.rank_rows.empty()) {
    out += ",\"ranks\":{\"columns\":[";
    first = true;
    for (const std::string& c : report.rank_columns) {
      if (!first) out += ",";
      first = false;
      out += "\"";
      out += json_escape(c);
      out += "\"";
    }
    out += "],\"rows\":[";
    first = true;
    for (const std::vector<std::uint64_t>& row : report.rank_rows) {
      if (!first) out += ",";
      first = false;
      out += "[";
      bool f2 = true;
      for (std::uint64_t v : row) {
        if (!f2) out += ",";
        f2 = false;
        out += std::to_string(v);
      }
      out += "]";
    }
    out += "]";
    if (!report.rank_states.empty()) {
      out += ",\"states\":[";
      first = true;
      for (const std::string& s : report.rank_states) {
        if (!first) out += ",";
        first = false;
        out += "\"";
        out += json_escape(s);
        out += "\"";
      }
      out += "]";
    }
    out += "}";
  }

  out += "}";
  return out;
}

void write_report_json(const std::string& path, const RunReport& report) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ZH_REQUIRE_IO(out.good(), "cannot open report file for writing: ", path);
  const std::string json = report_json(report);
  out.write(json.data(), static_cast<std::streamsize>(json.size()));
  out.flush();
  ZH_REQUIRE_IO(out.good(), "failed writing report file: ", path);
}

void print_report(std::FILE* out, const RunReport& report) {
  std::fprintf(out, "=== run report: %s (git %s) ===\n", report.tool.c_str(),
               build_git_sha());
  if (!report.workload.empty()) {
    std::fprintf(out, "workload: %s\n", report.workload.c_str());
  }
  for (const auto& [k, v] : report.config) {
    std::fprintf(out, "  config %-24s %s\n", k.c_str(), v.c_str());
  }
  if (report.has_times) {
    for (std::size_t i = 0; i < StepTimes::kSteps; ++i) {
      std::fprintf(out, "  %-52s %9.4f s\n", StepTimes::step_name(i).c_str(),
                   report.times.seconds[i]);
    }
    std::fprintf(out, "  %-52s %9.4f s\n", "Overhead: transfer",
                 report.times.overhead.transfer);
    std::fprintf(out, "  %-52s %9.4f s\n", "Overhead: merge",
                 report.times.overhead.merge);
    std::fprintf(out, "  %-52s %9.4f s\n", "Overhead: output",
                 report.times.overhead.output);
    std::fprintf(out, "  %-52s %9.4f s\n", "Runtimes of steps (total)",
                 report.times.step_total());
    std::fprintf(out, "  %-52s %9.4f s\n", "End-to-end runtime",
                 report.times.end_to_end());
  }
  for (const auto& [k, v] : report.extra_times) {
    std::fprintf(out, "  %-52s %9.4f s\n", k.c_str(), v);
  }
  if (!report.counters.empty()) {
    std::fprintf(out, "counters:\n");
    for (const auto& [k, v] : report.counters) {
      std::fprintf(out, "  %-40s %20" PRIu64 "\n", k.c_str(), v);
    }
  }
  if (!report.rank_columns.empty() && !report.rank_rows.empty()) {
    std::fprintf(out, "per-rank metrics:\n  %-6s", "rank");
    for (const std::string& c : report.rank_columns) {
      std::fprintf(out, " %14s", c.c_str());
    }
    if (!report.rank_states.empty()) std::fprintf(out, "  state");
    std::fprintf(out, "\n");
    for (std::size_t r = 0; r < report.rank_rows.size(); ++r) {
      std::fprintf(out, "  %-6zu", r);
      for (std::uint64_t v : report.rank_rows[r]) {
        std::fprintf(out, " %14" PRIu64, v);
      }
      if (r < report.rank_states.size()) {
        std::fprintf(out, "  %s", report.rank_states[r].c_str());
      }
      std::fprintf(out, "\n");
    }
  }
  std::fprintf(out, "peak RSS: %.1f MiB\n",
               static_cast<double>(peak_rss_bytes()) / (1024.0 * 1024.0));
}

}  // namespace zh::obs
