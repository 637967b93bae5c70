// Analysis library behind the zh_trace tool: loads a merged Chrome
// trace_event JSON file (as produced by `zhist --trace` cluster runs),
// validates its causal flow graph, computes the run's critical path,
// and summarizes per-rank utilization. Lives in a static library (like
// zh_lint_lib) so tests can drive every pass in-process; main.cpp is a
// thin CLI around it.
//
// Critical path model: starting from the latest span end, walk
// backwards through time. Inside a span, time is "work"; when a
// matched recv ("f") flow event interrupts the span, the path jumps
// through the flow edge to the sender's lane ("transit" time covers
// the send->recv interval); when a lane has no active span, the gap to
// the previous span end is "idle" (and the walk may hop to whichever
// lane was last active). The walk tiles [begin, end] with contiguous
// segments, so segment durations sum to the measured wall time by
// construction -- `coverage` reports the tiled fraction and only drops
// below 1 if the defensive iteration cap fires.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace zh::trace {

/// One completed span ("X" event) of the merged trace. pid follows the
/// exporter's convention: 0 = host process, r+1 = cluster rank r.
struct SpanRec {
  std::string name;
  std::string cat;
  int pid = 0;
  std::uint32_t tid = 0;
  std::int64_t ts_us = 0;
  std::int64_t dur_us = 0;
  std::uint64_t id = 0;      ///< span id from args (0 when absent)
  std::uint64_t parent = 0;  ///< parent span id from args
};

/// One end of a flow edge ("s" send / "f" finish).
struct FlowEnd {
  std::uint64_t flow_id = 0;
  int pid = 0;
  std::uint32_t tid = 0;
  std::int64_t ts_us = 0;
  char phase = 's';
};

/// In-memory model of one merged trace file.
struct TraceModel {
  std::vector<SpanRec> spans;
  std::vector<FlowEnd> flows;
  std::int64_t begin_us = 0;  ///< earliest span start (0 when empty)
  std::int64_t end_us = 0;    ///< latest span end
  std::uint64_t dropped_events = 0;  ///< otherData.dropped_events
};

/// Parse a Chrome trace_event document into a TraceModel. Accepts
/// phases M (skipped), X, s, and f; anything else, a negative
/// timestamp/duration, or a flow event without an id is malformed.
/// Throws IoError.
[[nodiscard]] TraceModel load_trace(const obs::JsonValue& doc);

/// Slurp + parse `path` and build the model. Throws IoError.
[[nodiscard]] TraceModel load_trace_file(const std::string& path);

/// Flow-graph validation verdict. A dangling recv -- an "f" whose flow
/// id has no matching "s" anywhere in the merged file -- means the
/// sender's events went missing (a dropped or truncated buffer); that is
/// the corruption this validator exists to catch. Unmatched sends are legal
/// (the receiver may have died before receiving, or the message was
/// dropped and never recovered).
struct FlowCheck {
  std::size_t sends = 0;
  std::size_t recvs = 0;
  std::size_t unmatched_sends = 0;   ///< "s" with no "f" (lost/unreceived)
  std::size_t dangling_recvs = 0;    ///< "f" with no "s" -- INVALID graph
  std::vector<std::string> errors;   ///< one message per dangling recv
  [[nodiscard]] bool ok() const { return dangling_recvs == 0; }
};

[[nodiscard]] FlowCheck validate_flows(const TraceModel& m);

/// One segment of the critical path, in wall-clock order after the
/// backward walk is reversed. kWork = inside a span on [pid, tid];
/// kTransit = crossing a send->recv flow edge; kIdle = no span active
/// on the lane the path was waiting on.
struct PathSegment {
  enum class Kind : std::uint8_t { kWork, kTransit, kIdle };
  Kind kind = Kind::kWork;
  int pid = 0;
  std::uint32_t tid = 0;
  std::string name;  ///< span name, "flow", or "idle"
  std::int64_t start_us = 0;
  std::int64_t end_us = 0;
};

struct CriticalPath {
  std::vector<PathSegment> segments;  ///< contiguous, earliest first
  std::int64_t wall_us = 0;     ///< end_us - begin_us of the model
  std::int64_t work_us = 0;
  std::int64_t transit_us = 0;
  std::int64_t idle_us = 0;
  double coverage = 1.0;  ///< tiled fraction of [begin, end]; 1 unless capped
};

[[nodiscard]] CriticalPath critical_path(const TraceModel& m);

/// Per-rank utilization/idle breakdown plus critical-path attribution.
struct RankStats {
  int rank = -1;  ///< -1 = host process (pid 0)
  std::size_t span_count = 0;
  std::int64_t busy_us = 0;       ///< union of span intervals on the rank
  std::int64_t comm_wait_us = 0;  ///< summed comm.recv time
  std::int64_t last_end_us = 0;   ///< when the rank's last span ended
  std::int64_t crit_work_us = 0;  ///< critical-path work on this rank
  double utilization = 0.0;       ///< busy_us / wall_us
};

[[nodiscard]] std::vector<RankStats> rank_breakdown(const TraceModel& m,
                                                    const CriticalPath& cp);

/// Serialize everything as a zh-trace-report-v1 JSON document (schema
/// described in DESIGN.md section 6).
[[nodiscard]] std::string trace_report_json(const TraceModel& m,
                                            const FlowCheck& flows,
                                            const CriticalPath& cp,
                                            const std::vector<RankStats>& ranks);

}  // namespace zh::trace
