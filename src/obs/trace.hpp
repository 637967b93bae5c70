// Scoped trace spans with thread/rank attribution, exported as Chrome
// trace_event JSON (chrome://tracing / Perfetto loadable).
//
// Design goals, in order:
//  1. near-zero cost when disabled: Span's constructor is one relaxed
//     atomic load; the ZH_TRACE_SPAN macro compiles away entirely when
//     the ZH_OBS CMake option is OFF;
//  2. no cross-thread contention when enabled: each thread appends to
//     its own buffer; the only lock taken on the hot path is that
//     thread's private mutex, contended only by a snapshot/clear in
//     flight (rare);
//  3. events survive thread exit: per-thread buffers retire into a
//     process-global list so spans recorded by short-lived cluster rank
//     threads and pool workers still appear in the export. A cluster
//     rank's buffer retires when its thread exits, before run_cluster
//     returns, so one registry holds the merged timeline of every rank,
//     crashed ones included.
//
// Causal model (cross-rank tracing): every RAII span gets a process-
// unique id and records the id of the span enclosing it on the same
// thread, so the export carries the call tree, not just intervals. A
// message send records an "s" flow event and passes its flow id along
// with the message; the matching receive records an "f" event with the
// same id, so send->recv pairs become edges of a causal graph that
// tools/zh_trace walks for critical-path analysis.
//
// Timestamps are microseconds on the steady clock relative to a
// process-wide epoch, which is what the trace_event "ts" field wants.
// Every rank is a thread of this process, so all ranks share that clock.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace zh::obs {

namespace detail {
// Storage lives in trace.cpp; exposed so the enabled-check inlines to
// one relaxed load at every instrumentation site.
extern std::atomic<bool> g_trace_enabled;

/// Open a span on the calling thread: allocates a process-unique id and
/// pushes it on the thread's open-span stack. Returns the id.
[[nodiscard]] std::uint64_t push_span();

/// Close the span opened by the matching push_span: pops the stack and
/// records the completed event (parent = the id now on top).
void pop_span(const char* name, const char* cat, std::int64_t ts_us,
              std::uint64_t id);
}  // namespace detail

/// Whether span recording is on. Off by default; flipping it on is what
/// `zhist --trace` and the tests do.
inline bool trace_enabled() {
  return detail::g_trace_enabled.load(std::memory_order_relaxed);
}

/// Turn span recording on/off (process-wide).
void set_trace_enabled(bool on);

/// Attribute spans recorded by the calling thread to cluster rank `r`
/// (-1 = not a rank thread; exported with pid 0). run_cluster tags each
/// rank thread so a trace of a cluster run groups by rank in the viewer.
void set_thread_rank(std::int32_t r);

/// The calling thread's rank attribution (-1 when unset).
[[nodiscard]] std::int32_t thread_rank();

/// Microseconds since the process trace epoch (steady clock).
[[nodiscard]] std::int64_t now_us();

/// One recorded event. phase 'X' is a completed span; phases 's'/'f'
/// are the send/finish ends of a flow edge (flow_id pairs them up).
struct TraceEvent {
  const char* name = "";  ///< static-storage string (macro call sites)
  const char* cat = "";   ///< taxonomy bucket, e.g. "pipeline", "comm"
  std::int64_t ts_us = 0;
  std::int64_t dur_us = 0;
  std::uint32_t tid = 0;     ///< stable per-thread id (registration order)
  std::int32_t rank = -1;    ///< cluster rank, -1 for the host process
  std::uint64_t id = 0;      ///< span id ('X'); 0 for manual/flow events
  std::uint64_t parent = 0;  ///< enclosing span id on the same thread, or 0
  std::uint64_t flow_id = 0;  ///< flow-edge id ('s'/'f'); 0 otherwise
  char phase = 'X';          ///< 'X' span, 's' flow send, 'f' flow finish
};

/// Record a completed span for the calling thread. Instrumentation
/// normally goes through the Span RAII type / ZH_TRACE_SPAN macro; this
/// is the primitive they bottom out in (and what tests call directly).
/// Manually recorded spans get a fresh id and the calling thread's
/// current open span as parent.
void record_span(const char* name, const char* cat, std::int64_t ts_us,
                 std::int64_t dur_us);

/// Record one end of a flow edge ('s' = send, 'f' = finish/receive) for
/// the calling thread. `name`/`cat` must be string literals.
void record_flow(char phase, const char* name, const char* cat,
                 std::uint64_t flow_id, std::int64_t ts_us);

/// Allocate a process-unique flow id (never 0).
[[nodiscard]] std::uint64_t next_flow_id();

/// RAII span: times construction-to-destruction and records it if
/// tracing was enabled at construction. `name` and `cat` must outlive
/// the program (string literals).
class Span {
 public:
  Span(const char* name, const char* cat) : name_(name), cat_(cat) {
    if (trace_enabled()) {
      start_us_ = now_us();
      id_ = detail::push_span();
    } else {
      start_us_ = kDisabled;
    }
  }
  ~Span() {
    if (start_us_ != kDisabled) {
      detail::pop_span(name_, cat_, start_us_, id_);
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  static constexpr std::int64_t kDisabled = -1;
  const char* name_;
  const char* cat_;
  std::int64_t start_us_;
  std::uint64_t id_ = 0;
};

/// Copy out every recorded event (live buffers + retired threads),
/// sorted by start time.
[[nodiscard]] std::vector<TraceEvent> trace_snapshot();

/// Drop all recorded events (live and retired). Does not change the
/// enabled flag.
void trace_clear();

/// Events dropped because a thread hit its buffer cap (export notes
/// this so a truncated trace is never mistaken for a complete one).
[[nodiscard]] std::uint64_t trace_dropped();

/// Serialize the current snapshot as Chrome trace_event JSON. Span ids
/// ride in each "X" event's args; flow edges export as "s"/"f" events.
[[nodiscard]] std::string chrome_trace_json();

/// Write chrome_trace_json() to `path`. Throws IoError when the path is
/// not writable or the write fails.
void write_chrome_trace(const std::string& path);

}  // namespace zh::obs

// Instrumentation macros. When the ZH_OBS CMake option is OFF these
// compile to nothing, so hot loops carry no trace code at all; when ON
// they cost one relaxed load while tracing is disabled at runtime.
#if defined(ZH_ENABLE_OBS)
#define ZH_OBS_CAT2_(a, b) a##b
#define ZH_OBS_CAT_(a, b) ZH_OBS_CAT2_(a, b)
/// Open a scoped span named `name` in category `cat` covering the rest
/// of the enclosing block.
#define ZH_TRACE_SPAN(name, cat) \
  ::zh::obs::Span ZH_OBS_CAT_(zh_obs_span_, __LINE__)(name, cat)
#else
#define ZH_TRACE_SPAN(name, cat) \
  do {                           \
  } while (false)
#endif
