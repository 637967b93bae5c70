#include "obs/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <set>

#include "common/error.hpp"
#include "obs/json.hpp"

namespace zh::obs {

namespace detail {
std::atomic<bool> g_trace_enabled{false};
}  // namespace detail

namespace {

using Clock = std::chrono::steady_clock;

// A thread drops events past this point instead of growing without
// bound (a runaway trace of a long run must not OOM the process).
constexpr std::size_t kMaxEventsPerThread = 1u << 20;

struct ThreadTraceBuffer;

// Process-global view of all per-thread buffers. Leaked on purpose so
// threads exiting during static destruction can still retire safely.
struct TraceRegistry {
  std::mutex mu;
  std::vector<ThreadTraceBuffer*> live;
  std::vector<TraceEvent> retired;
  std::uint32_t next_tid = 1;
  std::atomic<std::uint64_t> dropped{0};
  std::atomic<std::uint64_t> next_span_id{1};
  std::atomic<std::uint64_t> next_flow_id{1};
  Clock::time_point epoch = Clock::now();
};

TraceRegistry& registry() {
  // zh-lint-ignore(naked-new): leaky singleton; must survive detached threads at exit
  static TraceRegistry* r = new TraceRegistry();
  return *r;
}

struct ThreadTraceBuffer {
  std::mutex mu;  // serializes this thread's appends vs snapshot/clear
  std::vector<TraceEvent> events;
  std::uint32_t tid = 0;

  ThreadTraceBuffer() {
    TraceRegistry& r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    tid = r.next_tid++;
    r.live.push_back(this);
  }

  ~ThreadTraceBuffer() {
    TraceRegistry& r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    r.retired.insert(r.retired.end(), events.begin(), events.end());
    std::erase(r.live, this);
  }
};

ThreadTraceBuffer& local_buffer() {
  thread_local ThreadTraceBuffer buffer;
  return buffer;
}

thread_local std::int32_t t_rank = -1;

// The calling thread's stack of open Span ids; top is the parent of
// whatever is recorded next on this thread.
thread_local std::vector<std::uint64_t> t_span_stack;

void append_event(ThreadTraceBuffer& b, const TraceEvent& e) {
  std::lock_guard<std::mutex> lock(b.mu);
  if (b.events.size() >= kMaxEventsPerThread) {
    registry().dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  b.events.push_back(e);
}

}  // namespace

namespace detail {

std::uint64_t push_span() {
  const std::uint64_t id =
      registry().next_span_id.fetch_add(1, std::memory_order_relaxed);
  t_span_stack.push_back(id);
  return id;
}

void pop_span(const char* name, const char* cat, std::int64_t ts_us,
              std::uint64_t id) {
  // Spans are strictly LIFO per thread (RAII), so the matching id is on
  // top; tolerate a mismatch anyway rather than corrupt the stack.
  if (!t_span_stack.empty() && t_span_stack.back() == id) {
    t_span_stack.pop_back();
  }
  TraceEvent e;
  e.name = name;
  e.cat = cat;
  e.ts_us = ts_us;
  e.dur_us = now_us() - ts_us;
  e.rank = t_rank;
  e.id = id;
  e.parent = t_span_stack.empty() ? 0 : t_span_stack.back();
  ThreadTraceBuffer& b = local_buffer();
  e.tid = b.tid;
  append_event(b, e);
}

}  // namespace detail

void set_trace_enabled(bool on) {
  detail::g_trace_enabled.store(on, std::memory_order_relaxed);
}

void set_thread_rank(std::int32_t r) { t_rank = r; }

std::int32_t thread_rank() { return t_rank; }

std::int64_t now_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                               registry().epoch)
      .count();
}

void record_span(const char* name, const char* cat, std::int64_t ts_us,
                 std::int64_t dur_us) {
  TraceEvent e;
  e.name = name;
  e.cat = cat;
  e.ts_us = ts_us;
  e.dur_us = dur_us;
  e.rank = t_rank;
  e.id = registry().next_span_id.fetch_add(1, std::memory_order_relaxed);
  e.parent = t_span_stack.empty() ? 0 : t_span_stack.back();
  ThreadTraceBuffer& b = local_buffer();
  e.tid = b.tid;
  append_event(b, e);
}

void record_flow(char phase, const char* name, const char* cat,
                 std::uint64_t flow_id, std::int64_t ts_us) {
  TraceEvent e;
  e.name = name;
  e.cat = cat;
  e.ts_us = ts_us;
  e.rank = t_rank;
  e.parent = t_span_stack.empty() ? 0 : t_span_stack.back();
  e.flow_id = flow_id;
  e.phase = phase;
  ThreadTraceBuffer& b = local_buffer();
  e.tid = b.tid;
  append_event(b, e);
}

std::uint64_t next_flow_id() {
  return registry().next_flow_id.fetch_add(1, std::memory_order_relaxed);
}

std::vector<TraceEvent> trace_snapshot() {
  TraceRegistry& r = registry();
  std::vector<TraceEvent> out;
  {
    std::lock_guard<std::mutex> lock(r.mu);
    out = r.retired;
    for (ThreadTraceBuffer* b : r.live) {
      std::lock_guard<std::mutex> blk(b->mu);
      out.insert(out.end(), b->events.begin(), b->events.end());
    }
  }
  std::sort(out.begin(), out.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return a.ts_us < b.ts_us;
            });
  return out;
}

void trace_clear() {
  TraceRegistry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  r.retired.clear();
  for (ThreadTraceBuffer* b : r.live) {
    std::lock_guard<std::mutex> blk(b->mu);
    b->events.clear();
  }
  r.dropped.store(0, std::memory_order_relaxed);
}

std::uint64_t trace_dropped() {
  return registry().dropped.load(std::memory_order_relaxed);
}

std::string chrome_trace_json() {
  const std::vector<TraceEvent> events = trace_snapshot();
  std::string out;
  out.reserve(events.size() * 128 + 256);
  out += "{\"traceEvents\":[";
  // Name trace "processes": pid 0 is the host process, pid r+1 is
  // cluster rank r (pid 0 is reserved so rank 0 gets its own lane).
  std::set<std::int32_t> pids;
  for (const TraceEvent& e : events) pids.insert(e.rank < 0 ? 0 : e.rank + 1);
  bool first = true;
  for (std::int32_t pid : pids) {
    if (!first) out += ",";
    first = false;
    char buf[128];
    if (pid == 0) {
      std::snprintf(buf, sizeof(buf),
                    "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,"
                    "\"args\":{\"name\":\"host\"}}");
    } else {
      std::snprintf(buf, sizeof(buf),
                    "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,"
                    "\"args\":{\"name\":\"rank %d\"}}",
                    pid, pid - 1);
    }
    out += buf;
  }
  for (const TraceEvent& e : events) {
    if (!first) out += ",";
    first = false;
    const std::int32_t pid = e.rank < 0 ? 0 : e.rank + 1;
    out += "{\"name\":\"";
    out += json_escape(e.name);
    out += "\",\"cat\":\"";
    out += json_escape(e.cat);
    if (e.phase == 's' || e.phase == 'f') {
      out += "\",\"ph\":\"";
      out += e.phase;
      out += "\",\"id\":";
      out += std::to_string(e.flow_id);
      out += ",\"ts\":";
      out += std::to_string(e.ts_us);
      if (e.phase == 'f') out += ",\"bp\":\"e\"";
    } else {
      out += "\",\"ph\":\"X\",\"ts\":";
      out += std::to_string(e.ts_us);
      out += ",\"dur\":";
      out += std::to_string(e.dur_us);
    }
    out += ",\"pid\":";
    out += std::to_string(pid);
    out += ",\"tid\":";
    out += std::to_string(e.tid);
    if (e.phase == 'X' && e.id != 0) {
      out += ",\"args\":{\"id\":";
      out += std::to_string(e.id);
      out += ",\"parent\":";
      out += std::to_string(e.parent);
      out += "}";
    }
    out += "}";
  }
  out += "],\"displayTimeUnit\":\"ms\",\"otherData\":{\"tool\":\"zonalhist\","
         "\"dropped_events\":";
  out += std::to_string(trace_dropped());
  out += "}}";
  return out;
}

void write_chrome_trace(const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ZH_REQUIRE_IO(out.good(), "cannot open trace file for writing: ", path);
  const std::string json = chrome_trace_json();
  out.write(json.data(), static_cast<std::streamsize>(json.size()));
  out.flush();
  ZH_REQUIRE_IO(out.good(), "failed writing trace file: ", path);
}

}  // namespace zh::obs
