// validate_obs: schema checker for the observability outputs.
//
//   validate_obs trace <file> [--min-coverage PCT]
//     Chrome trace_event JSON: structural check of every event ("X"
//     spans plus "s"/"f" flow-edge ends, which need a positive id),
//     then a coverage check -- the union of all other "X" spans clipped
//     to the longest span's window must cover at least PCT (a number
//     from 0 to 100, default 95) percent of it. Catches both malformed
//     traces and instrumentation gaps (a pipeline phase nobody wrapped
//     in a span).
//   validate_obs metrics <file> [--require-ranks N]
//     zh-run-report-v1 JSON: schema + required keys; with
//     --require-ranks N (an integer, at least 0), the per-rank table
//     must exist and have N rows.
//     Every counter must be a non-negative number named in one closed
//     list: the WorkCounters names append_work_counters emits plus the
//     cluster and journal counters zhist adds -- a typo'd or renamed
//     counter fails instead of passing unvalidated.
//
// Exits 0 when valid, 1 with a one-line reason otherwise (CI asserts on
// the exit code and shows the reason in the log), and 2 with the usage
// text on a malformed command line.
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "obs/json.hpp"

namespace {

using zh::obs::JsonValue;

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  validate_obs trace <file> [--min-coverage PCT]\n"
               "  validate_obs metrics <file> [--require-ranks N]\n");
  std::exit(2);
}

// A flag value: the whole token must be one number of T (from_chars
// skips no whitespace and takes no '+'). Anything else, or a value `ok`
// refuses, is a usage error.
template <typename T, typename Ok>
T parse_flag(const char* token, Ok ok) {
  T value{};
  const char* end = token + std::strlen(token);
  const auto [ptr, ec] = std::from_chars(token, end, value);
  if (ec != std::errc() || ptr != end || !ok(value)) usage();
  return value;
}

int fail(const std::string& why) {
  std::fprintf(stderr, "validate_obs: %s\n", why.c_str());
  return 1;
}

const JsonValue* need(const JsonValue& obj, const char* key) {
  if (!obj.is_object()) return nullptr;
  return obj.find(key);
}

bool is_finite_number(const JsonValue* v) {
  return v != nullptr && v->is_number();
}

int check_trace(const std::string& path, double min_coverage_pct) {
  const JsonValue doc = zh::obs::parse_json_file(path);
  const JsonValue* events = need(doc, "traceEvents");
  if (events == nullptr || !events->is_array()) {
    return fail("missing traceEvents array");
  }

  struct Interval {
    double begin;
    double end;
  };
  std::vector<Interval> spans;
  std::size_t complete_events = 0;
  std::size_t flow_events = 0;
  for (std::size_t i = 0; i < events->arr.size(); ++i) {
    const JsonValue& e = events->arr[i];
    const JsonValue* ph = need(e, "ph");
    const JsonValue* name = need(e, "name");
    if (ph == nullptr || !ph->is_string() || name == nullptr ||
        !name->is_string()) {
      return fail("event " + std::to_string(i) + ": missing ph/name");
    }
    if (!is_finite_number(need(e, "pid"))) {
      return fail("event " + std::to_string(i) + ": missing pid");
    }
    if (ph->str == "M") continue;  // process_name metadata (no tid)
    if (!is_finite_number(need(e, "tid"))) {
      return fail("event " + std::to_string(i) + ": missing tid");
    }
    if (ph->str == "s" || ph->str == "f") {
      // Flow-edge ends (comm send -> recv). Chrome binds them by id, so
      // a missing or zero id silently detaches the arrow -- fail loudly.
      const JsonValue* id = need(e, "id");
      const JsonValue* ts = need(e, "ts");
      if (!is_finite_number(id) || id->number <= 0) {
        return fail("event " + std::to_string(i) + ": flow \"" + ph->str +
                    "\" without positive id");
      }
      if (!is_finite_number(ts) || ts->number < 0) {
        return fail("event " + std::to_string(i) + ": flow event bad ts");
      }
      ++flow_events;
      continue;
    }
    if (ph->str != "X") {
      return fail("event " + std::to_string(i) + ": unexpected ph \"" +
                  ph->str + "\"");
    }
    const JsonValue* ts = need(e, "ts");
    const JsonValue* dur = need(e, "dur");
    if (!is_finite_number(ts) || !is_finite_number(dur) || ts->number < 0 ||
        dur->number < 0) {
      return fail("event " + std::to_string(i) + ": bad ts/dur");
    }
    ++complete_events;
    spans.push_back({ts->number, ts->number + dur->number});
  }
  if (complete_events == 0) return fail("no complete (\"X\") events");

  // Coverage: the longest span is the run's root (e.g. pipeline.run);
  // every other span, clipped to its window, must jointly cover most of
  // it -- otherwise some phase of the run is uninstrumented.
  std::size_t root = 0;
  for (std::size_t i = 1; i < spans.size(); ++i) {
    if (spans[i].end - spans[i].begin > spans[root].end - spans[root].begin) {
      root = i;
    }
  }
  const Interval window = spans[root];
  const double window_us = window.end - window.begin;
  std::vector<Interval> clipped;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (i == root) continue;
    const double b = std::max(spans[i].begin, window.begin);
    const double e = std::min(spans[i].end, window.end);
    if (e > b) clipped.push_back({b, e});
  }
  std::sort(clipped.begin(), clipped.end(),
            [](const Interval& a, const Interval& b) {
              return a.begin < b.begin;
            });
  double covered_us = 0.0;
  double cursor = window.begin;
  for (const Interval& s : clipped) {
    const double b = std::max(s.begin, cursor);
    if (s.end > b) {
      covered_us += s.end - b;
      cursor = s.end;
    }
  }
  const double pct =
      window_us > 0.0 ? 100.0 * covered_us / window_us : 100.0;
  std::printf("validate_obs: trace ok: %zu spans, %zu flow ends, coverage "
              "%.1f%% of the %.0f us root span\n",
              complete_events, flow_events, pct, window_us);
  if (pct < min_coverage_pct) {
    return fail("span coverage " + std::to_string(pct) +
                "% below required " + std::to_string(min_coverage_pct) + "%");
  }
  return 0;
}

int check_metrics(const std::string& path, long require_ranks) {
  const JsonValue doc = zh::obs::parse_json_file(path);
  const JsonValue* schema = need(doc, "schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->str != "zh-run-report-v1") {
    return fail("schema is not zh-run-report-v1");
  }
  for (const char* key : {"tool", "git_sha"}) {
    const JsonValue* v = need(doc, key);
    if (v == nullptr || !v->is_string() || v->str.empty()) {
      return fail(std::string("missing string field \"") + key + "\"");
    }
  }
  const JsonValue* times = need(doc, "times_s");
  if (times != nullptr) {
    for (const char* key :
         {"step0", "step1", "step2", "step3", "step4", "overhead_transfer",
          "overhead_merge", "overhead_output", "step_total", "end_to_end"}) {
      if (!is_finite_number(need(*times, key))) {
        return fail(std::string("times_s missing \"") + key + "\"");
      }
    }
  }
  const JsonValue* counters = need(doc, "counters");
  if (counters != nullptr && !counters->is_object()) {
    return fail("counters is not an object");
  }
  if (counters != nullptr) {
    // Every counter a report can carry: the WorkCounters names
    // append_work_counters emits, then what zhist adds for cluster runs
    // and for runs with a journal.
    static const char* const kKnownCounters[] = {
        "cells_total",        "tiles_total",
        "candidate_pairs",    "pairs_inside",
        "pairs_intersect",    "polygon_vertices",
        "aggregate_bin_adds", "pip_cell_tests",
        "pip_edge_tests",     "pip_rows_scanned",
        "pip_run_cells",      "cells_in_polygons",
        "values_clamped",     "compressed_bytes",
        "raw_bytes",          "comm_bytes",
        "journal.records_written",
        "journal.partitions_skipped",
        "journal.resume_ms",
        "journal.torn_bytes",
    };
    for (const auto& [name, value] : counters->obj) {
      bool known = false;
      for (const char* key : kKnownCounters) {
        if (name == key) known = true;
      }
      if (!known) {
        return fail("counter \"" + name + "\" is not a known counter");
      }
      if (!value.is_number() || value.number < 0) {
        return fail("counter \"" + name + "\" is not a non-negative number");
      }
    }
  }
  const JsonValue* ranks = need(doc, "ranks");
  if (require_ranks >= 0) {
    if (ranks == nullptr) return fail("ranks table required but absent");
    const JsonValue* columns = need(*ranks, "columns");
    const JsonValue* rows = need(*ranks, "rows");
    if (columns == nullptr || !columns->is_array() || rows == nullptr ||
        !rows->is_array()) {
      return fail("ranks table missing columns/rows");
    }
    if (rows->arr.size() != static_cast<std::size_t>(require_ranks)) {
      return fail("ranks table has " + std::to_string(rows->arr.size()) +
                  " rows, expected " + std::to_string(require_ranks));
    }
    for (const JsonValue& row : rows->arr) {
      if (!row.is_array() || row.arr.size() != columns->arr.size()) {
        return fail("rank row width does not match columns");
      }
    }
  }
  std::printf("validate_obs: metrics ok (%s)\n", path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) usage();
  const std::string mode = argv[1];
  const std::string path = argv[2];
  double min_coverage = 95.0;
  long require_ranks = -1;
  for (int i = 3; i < argc; ++i) {
    if (std::strcmp(argv[i], "--min-coverage") == 0 && i + 1 < argc) {
      min_coverage = parse_flag<double>(argv[++i], [](double v) {
        return std::isfinite(v) && v >= 0.0 && v <= 100.0;
      });
    } else if (std::strcmp(argv[i], "--require-ranks") == 0 && i + 1 < argc) {
      require_ranks =
          parse_flag<long>(argv[++i], [](long v) { return v >= 0; });
    } else {
      usage();
    }
  }
  try {
    if (mode == "trace") return check_trace(path, min_coverage);
    if (mode == "metrics") return check_metrics(path, require_ranks);
  } catch (const zh::Error& e) {
    return fail(e.what());
  } catch (const std::exception& e) {
    return fail(e.what());
  }
  usage();
}
