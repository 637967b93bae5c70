#include "trace_analysis.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <unordered_map>
#include <unordered_set>

#include "common/error.hpp"

namespace zh::trace {

namespace {

std::int64_t as_i64(const obs::JsonValue& v) {
  return static_cast<std::int64_t>(std::llround(v.number));
}

std::uint64_t as_u64(const obs::JsonValue& v) {
  return static_cast<std::uint64_t>(std::llround(v.number));
}

/// A lane is one timeline row of the trace: a (pid, tid) pair.
using LaneKey = std::pair<int, std::uint32_t>;

struct Lane {
  std::vector<std::size_t> spans;  ///< indices into model.spans, by ts
  std::vector<std::size_t> flows;  ///< indices into model.flows, by ts
};

std::map<LaneKey, Lane> build_lanes(const TraceModel& m) {
  std::map<LaneKey, Lane> lanes;
  for (std::size_t i = 0; i < m.spans.size(); ++i) {
    lanes[{m.spans[i].pid, m.spans[i].tid}].spans.push_back(i);
  }
  for (std::size_t i = 0; i < m.flows.size(); ++i) {
    lanes[{m.flows[i].pid, m.flows[i].tid}].flows.push_back(i);
  }
  for (auto& [key, lane] : lanes) {
    std::sort(lane.spans.begin(), lane.spans.end(),
              [&m](std::size_t a, std::size_t b) {
                return m.spans[a].ts_us < m.spans[b].ts_us;
              });
    std::sort(lane.flows.begin(), lane.flows.end(),
              [&m](std::size_t a, std::size_t b) {
                return m.flows[a].ts_us < m.flows[b].ts_us;
              });
  }
  return lanes;
}

void append_kv_u64(std::string& out, const char* key, std::uint64_t v,
                   bool& first) {
  if (!first) out += ",";
  first = false;
  out += "\"";
  out += key;
  out += "\":";
  out += std::to_string(v);
}

void append_kv_i64(std::string& out, const char* key, std::int64_t v,
                   bool& first) {
  if (!first) out += ",";
  first = false;
  out += "\"";
  out += key;
  out += "\":";
  out += std::to_string(v);
}

void append_kv_double(std::string& out, const char* key, double v,
                      bool& first) {
  if (!first) out += ",";
  first = false;
  char buf[48];
  std::snprintf(buf, sizeof(buf), "\"%s\":%.6g", key, v);
  out += buf;
}

}  // namespace

TraceModel load_trace(const obs::JsonValue& doc) {
  ZH_REQUIRE_IO(doc.is_object(), "trace root is not a JSON object");
  const obs::JsonValue* events = doc.find("traceEvents");
  ZH_REQUIRE_IO(events != nullptr && events->is_array(),
                "trace has no traceEvents array");
  TraceModel m;
  bool any_span = false;
  for (const obs::JsonValue& e : events->arr) {
    ZH_REQUIRE_IO(e.is_object(), "trace event is not an object");
    const obs::JsonValue* ph = e.find("ph");
    ZH_REQUIRE_IO(ph != nullptr && ph->is_string() && ph->str.size() == 1,
                  "trace event has no single-character ph");
    const char phase = ph->str[0];
    if (phase == 'M') continue;  // metadata (process_name etc.)
    ZH_REQUIRE_IO(phase == 'X' || phase == 's' || phase == 'f',
                  "unsupported trace event phase: ", ph->str);
    const obs::JsonValue* ts = e.find("ts");
    const obs::JsonValue* pid = e.find("pid");
    const obs::JsonValue* tid = e.find("tid");
    ZH_REQUIRE_IO(ts != nullptr && ts->is_number() && pid != nullptr &&
                      pid->is_number() && tid != nullptr && tid->is_number(),
                  "trace event missing ts/pid/tid");
    ZH_REQUIRE_IO(ts->number >= 0, "trace event has negative timestamp");
    const obs::JsonValue* name = e.find("name");
    if (phase == 'X') {
      const obs::JsonValue* dur = e.find("dur");
      ZH_REQUIRE_IO(dur != nullptr && dur->is_number() && dur->number >= 0,
                    "X event missing/negative dur");
      SpanRec s;
      if (name != nullptr && name->is_string()) s.name = name->str;
      if (const obs::JsonValue* cat = e.find("cat");
          cat != nullptr && cat->is_string()) {
        s.cat = cat->str;
      }
      s.pid = static_cast<int>(as_i64(*pid));
      s.tid = static_cast<std::uint32_t>(as_u64(*tid));
      s.ts_us = as_i64(*ts);
      s.dur_us = as_i64(*dur);
      if (const obs::JsonValue* args = e.find("args");
          args != nullptr && args->is_object()) {
        if (const obs::JsonValue* id = args->find("id");
            id != nullptr && id->is_number()) {
          s.id = as_u64(*id);
        }
        if (const obs::JsonValue* parent = args->find("parent");
            parent != nullptr && parent->is_number()) {
          s.parent = as_u64(*parent);
        }
      }
      if (!any_span || s.ts_us < m.begin_us) m.begin_us = s.ts_us;
      if (!any_span || s.ts_us + s.dur_us > m.end_us) {
        m.end_us = s.ts_us + s.dur_us;
      }
      any_span = true;
      m.spans.push_back(std::move(s));
    } else {
      const obs::JsonValue* id = e.find("id");
      ZH_REQUIRE_IO(id != nullptr && id->is_number() && id->number > 0,
                    "flow event missing positive id");
      FlowEnd f;
      f.flow_id = as_u64(*id);
      f.pid = static_cast<int>(as_i64(*pid));
      f.tid = static_cast<std::uint32_t>(as_u64(*tid));
      f.ts_us = as_i64(*ts);
      f.phase = phase;
      m.flows.push_back(f);
    }
  }
  if (const obs::JsonValue* other = doc.find("otherData");
      other != nullptr && other->is_object()) {
    if (const obs::JsonValue* dropped = other->find("dropped_events");
        dropped != nullptr && dropped->is_number()) {
      m.dropped_events = as_u64(*dropped);
    }
  }
  return m;
}

TraceModel load_trace_file(const std::string& path) {
  return load_trace(obs::parse_json_file(path));
}

FlowCheck validate_flows(const TraceModel& m) {
  FlowCheck check;
  std::unordered_set<std::uint64_t> send_ids;
  for (const FlowEnd& f : m.flows) {
    if (f.phase == 's') {
      ++check.sends;
      send_ids.insert(f.flow_id);
    }
  }
  std::unordered_set<std::uint64_t> recv_ids;
  for (const FlowEnd& f : m.flows) {
    if (f.phase != 'f') continue;
    ++check.recvs;
    recv_ids.insert(f.flow_id);
    if (send_ids.count(f.flow_id) == 0) {
      ++check.dangling_recvs;
      check.errors.push_back(detail::format_parts(
          "dangling flow recv: id ", f.flow_id, " at ts ", f.ts_us, " (pid ",
          f.pid, ") has no matching send anywhere in the trace"));
    }
  }
  for (const std::uint64_t id : send_ids) {
    if (recv_ids.count(id) == 0) ++check.unmatched_sends;
  }
  return check;
}

CriticalPath critical_path(const TraceModel& m) {
  CriticalPath cp;
  if (m.spans.empty()) return cp;
  cp.wall_us = m.end_us - m.begin_us;

  const std::map<LaneKey, Lane> lanes = build_lanes(m);

  // First send per flow id (duplicate sends should not exist; duplicate
  // recvs of one send do, under dup fault plans).
  std::unordered_map<std::uint64_t, const FlowEnd*> send_by_id;
  for (const FlowEnd& f : m.flows) {
    if (f.phase == 's') send_by_id.emplace(f.flow_id, &f);
  }

  // Innermost span active at `t` on `lane`: latest-starting span with
  // ts < t <= ts + dur (strictly earlier start guarantees progress).
  const auto active_span = [&](const Lane& lane,
                               std::int64_t t) -> const SpanRec* {
    const SpanRec* best = nullptr;
    for (const std::size_t idx : lane.spans) {
      const SpanRec& s = m.spans[idx];
      if (s.ts_us >= t) break;  // sorted by ts
      if (s.ts_us + s.dur_us >= t) best = &s;
    }
    return best;
  };

  // Start at the lane owning the latest span end.
  LaneKey cur_lane{};
  {
    std::int64_t best_end = m.begin_us - 1;
    for (const auto& [key, lane] : lanes) {
      for (const std::size_t idx : lane.spans) {
        const SpanRec& s = m.spans[idx];
        if (s.ts_us + s.dur_us > best_end) {
          best_end = s.ts_us + s.dur_us;
          cur_lane = key;
        }
      }
    }
  }

  std::int64_t cursor = m.end_us;
  const std::size_t cap = (m.spans.size() + m.flows.size()) * 4 + 64;
  std::size_t steps = 0;
  const auto push = [&cp](PathSegment::Kind kind, LaneKey lane,
                          std::string name, std::int64_t start,
                          std::int64_t end) {
    if (end <= start) return;  // zero-length steps carry no time
    PathSegment seg;
    seg.kind = kind;
    seg.pid = lane.first;
    seg.tid = lane.second;
    seg.name = std::move(name);
    seg.start_us = start;
    seg.end_us = end;
    cp.segments.push_back(std::move(seg));
  };

  while (cursor > m.begin_us && steps++ < cap) {
    const Lane& lane = lanes.at(cur_lane);
    if (const SpanRec* span = active_span(lane, cursor); span != nullptr) {
      // Latest matched incoming flow inside this span and before the
      // cursor: the moment this lane's progress became dependent on a
      // message -- the path crosses to the sender there.
      const FlowEnd* recv = nullptr;
      const FlowEnd* send = nullptr;
      for (const std::size_t idx : lane.flows) {
        const FlowEnd& f = m.flows[idx];
        if (f.ts_us > cursor) break;  // sorted by ts
        if (f.phase != 'f' || f.ts_us < span->ts_us) continue;
        const auto it = send_by_id.find(f.flow_id);
        if (it == send_by_id.end()) continue;  // dangling; validator's job
        const FlowEnd* s = it->second;
        // The jump must move the walk strictly left; skew-inverted
        // edges (send stamped after recv) are skipped.
        if (s->ts_us >= cursor || s->ts_us > f.ts_us) continue;
        recv = &f;
        send = s;
      }
      if (recv != nullptr) {
        push(PathSegment::Kind::kWork, cur_lane, span->name, recv->ts_us,
             cursor);
        push(PathSegment::Kind::kTransit, cur_lane, "flow", send->ts_us,
             recv->ts_us);
        cur_lane = {send->pid, send->tid};
        cursor = send->ts_us;
      } else {
        push(PathSegment::Kind::kWork, cur_lane, span->name, span->ts_us,
             cursor);
        cursor = span->ts_us;
      }
      continue;
    }
    // Nothing active here: the lane was idle. Rewind to the best anchor
    // across all lanes -- the latest span end at/before the cursor, or
    // the cursor itself where some other lane is still active (then the
    // path hops lanes with no time charged).
    LaneKey best_lane = cur_lane;
    std::int64_t best_anchor = m.begin_us;
    bool found = false;
    for (const auto& [key, other] : lanes) {
      if (active_span(other, cursor) != nullptr) {
        best_lane = key;
        best_anchor = cursor;
        found = true;
        break;
      }
      for (const std::size_t idx : other.spans) {
        const SpanRec& s = m.spans[idx];
        const std::int64_t end = s.ts_us + s.dur_us;
        if (s.ts_us >= cursor) break;
        if (end <= cursor && (!found || end > best_anchor)) {
          best_anchor = end;
          best_lane = key;
          found = true;
        }
      }
    }
    push(PathSegment::Kind::kIdle, cur_lane, "idle", best_anchor, cursor);
    if (!found) break;  // nothing anywhere before the cursor
    if (best_anchor == cursor && best_lane == cur_lane) break;  // defensive
    cur_lane = best_lane;
    cursor = best_anchor;
  }

  std::reverse(cp.segments.begin(), cp.segments.end());
  for (const PathSegment& seg : cp.segments) {
    const std::int64_t d = seg.end_us - seg.start_us;
    switch (seg.kind) {
      case PathSegment::Kind::kWork:
        cp.work_us += d;
        break;
      case PathSegment::Kind::kTransit:
        cp.transit_us += d;
        break;
      case PathSegment::Kind::kIdle:
        cp.idle_us += d;
        break;
    }
  }
  cp.coverage = cp.wall_us <= 0
                    ? 1.0
                    : static_cast<double>(m.end_us - cursor) /
                          static_cast<double>(cp.wall_us);
  return cp;
}

std::vector<RankStats> rank_breakdown(const TraceModel& m,
                                      const CriticalPath& cp) {
  // Busy time = union of span intervals per pid (spans nest and
  // overlap across tids; double-counting would report >100%
  // utilization).
  std::map<int, std::vector<std::pair<std::int64_t, std::int64_t>>> intervals;
  std::map<int, RankStats> by_pid;
  for (const SpanRec& s : m.spans) {
    RankStats& r = by_pid[s.pid];
    r.rank = s.pid - 1;
    ++r.span_count;
    r.last_end_us = std::max(r.last_end_us, s.ts_us + s.dur_us);
    if (s.name == "comm.recv") r.comm_wait_us += s.dur_us;
    intervals[s.pid].emplace_back(s.ts_us, s.ts_us + s.dur_us);
  }
  for (auto& [pid, ivs] : intervals) {
    std::sort(ivs.begin(), ivs.end());
    std::int64_t busy = 0;
    bool open = false;
    std::int64_t cur_lo = 0;
    std::int64_t cur_hi = 0;
    for (const auto& [lo, hi] : ivs) {
      if (!open || lo > cur_hi) {
        if (open) busy += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
        open = true;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (open) busy += cur_hi - cur_lo;
    by_pid[pid].busy_us = busy;
  }
  for (const PathSegment& seg : cp.segments) {
    if (seg.kind == PathSegment::Kind::kWork) {
      by_pid[seg.pid].crit_work_us += seg.end_us - seg.start_us;
    }
  }
  const std::int64_t wall = m.end_us - m.begin_us;
  std::vector<RankStats> out;
  out.reserve(by_pid.size());
  for (auto& [pid, r] : by_pid) {
    r.utilization = wall > 0 ? static_cast<double>(r.busy_us) /
                                   static_cast<double>(wall)
                             : 0.0;
    out.push_back(r);
  }
  return out;
}

std::string trace_report_json(const TraceModel& m, const FlowCheck& flows,
                              const CriticalPath& cp,
                              const std::vector<RankStats>& ranks) {
  std::string out;
  out.reserve(4096);
  out += "{\"schema\":\"zh-trace-report-v1\"";
  bool first = false;
  append_kv_i64(out, "begin_us", m.begin_us, first);
  append_kv_i64(out, "end_us", m.end_us, first);
  append_kv_i64(out, "wall_us", m.end_us - m.begin_us, first);
  append_kv_u64(out, "spans", m.spans.size(), first);
  append_kv_u64(out, "dropped_events", m.dropped_events, first);

  out += ",\"flows\":{";
  first = true;
  append_kv_u64(out, "sends", flows.sends, first);
  append_kv_u64(out, "recvs", flows.recvs, first);
  append_kv_u64(out, "unmatched_sends", flows.unmatched_sends, first);
  append_kv_u64(out, "dangling_recvs", flows.dangling_recvs, first);
  out += "}";

  out += ",\"critical_path\":{";
  first = true;
  append_kv_i64(out, "total_us", cp.work_us + cp.transit_us + cp.idle_us,
                first);
  append_kv_i64(out, "work_us", cp.work_us, first);
  append_kv_i64(out, "transit_us", cp.transit_us, first);
  append_kv_i64(out, "idle_us", cp.idle_us, first);
  append_kv_double(out, "coverage", cp.coverage, first);
  out += ",\"segments\":[";
  first = true;
  for (const PathSegment& seg : cp.segments) {
    if (!first) out += ",";
    first = false;
    out += "{\"kind\":\"";
    switch (seg.kind) {
      case PathSegment::Kind::kWork:
        out += "work";
        break;
      case PathSegment::Kind::kTransit:
        out += "transit";
        break;
      case PathSegment::Kind::kIdle:
        out += "idle";
        break;
    }
    out += "\",\"pid\":";
    out += std::to_string(seg.pid);
    out += ",\"tid\":";
    out += std::to_string(seg.tid);
    out += ",\"name\":\"";
    out += obs::json_escape(seg.name);
    out += "\",\"start_us\":";
    out += std::to_string(seg.start_us);
    out += ",\"end_us\":";
    out += std::to_string(seg.end_us);
    out += "}";
  }
  out += "]}";

  out += ",\"ranks\":[";
  first = true;
  for (const RankStats& r : ranks) {
    if (!first) out += ",";
    first = false;
    out += "{";
    bool f2 = true;
    append_kv_i64(out, "rank", r.rank, f2);
    append_kv_u64(out, "spans", r.span_count, f2);
    append_kv_i64(out, "busy_us", r.busy_us, f2);
    append_kv_i64(out, "comm_wait_us", r.comm_wait_us, f2);
    append_kv_i64(out, "last_end_us", r.last_end_us, f2);
    append_kv_i64(out, "crit_work_us", r.crit_work_us, f2);
    append_kv_double(out, "utilization", r.utilization, f2);
    out += "}";
  }
  out += "]";

  // Straggler attribution: ranks ordered by critical-path work; the
  // head of the list bounds end-to-end latency.
  std::vector<const RankStats*> by_crit;
  for (const RankStats& r : ranks) by_crit.push_back(&r);
  std::sort(by_crit.begin(), by_crit.end(),
            [](const RankStats* a, const RankStats* b) {
              return a->crit_work_us > b->crit_work_us;
            });
  out += ",\"stragglers\":[";
  first = true;
  for (const RankStats* r : by_crit) {
    if (r->crit_work_us <= 0) break;
    if (!first) out += ",";
    first = false;
    out += "{";
    bool f2 = true;
    append_kv_i64(out, "rank", r->rank, f2);
    append_kv_i64(out, "crit_work_us", r->crit_work_us, f2);
    append_kv_double(out, "crit_share",
                     cp.work_us > 0 ? static_cast<double>(r->crit_work_us) /
                                          static_cast<double>(cp.work_us)
                                    : 0.0,
                     f2);
    out += "}";
  }
  out += "]}";
  return out;
}

}  // namespace zh::trace
