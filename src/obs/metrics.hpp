// Named counters / histogram-stats / latency histograms with a
// thread-local sharded implementation.
//
// Hot-path cost model: an instrumentation site (ZH_COUNTER_ADD etc.)
// pays one relaxed load of the enabled flag; when metrics are on it
// adds one interned-id lookup (a function-local static, resolved once
// per call site) plus a relaxed atomic RMW on a slot private to the
// calling thread. No lock is ever taken on the update path; shard
// growth and snapshot/reset take the shard's mutex, which updates never
// touch because a shard only grows when a *new* metric id first appears
// on that thread.
//
// Shards retire into a global accumulator on thread exit so counts from
// short-lived pool workers and cluster rank threads survive until
// report time.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/latency_histogram.hpp"

namespace zh::obs {

namespace detail {
extern std::atomic<bool> g_metrics_enabled;
}  // namespace detail

/// Whether metric updates are recorded. Off by default.
inline bool metrics_enabled() {
  return detail::g_metrics_enabled.load(std::memory_order_relaxed);
}

/// Turn metric recording on/off (process-wide).
void set_metrics_enabled(bool on);

// Merge semantics per kind (how per-thread shards combine at snapshot):
//   kCounter  -- sum across shards; monotone by construction.
//   kStat     -- count/sum/min/max of double samples.
//   kLatency  -- log-linear histogram (latency_histogram.hpp): buckets
//                add element-wise, so merges are exact, associative and
//                commutative, and quantiles survive aggregation.
enum class MetricKind : std::uint8_t {
  kCounter,   ///< monotonically increasing u64 (merge: sum)
  kStat,      ///< double samples; merge: count/sum/min/max
  kLatency,   ///< log-linear latency histogram; merge: per-bucket sum
};

/// Dense id of an interned metric name. Call sites cache it in a
/// function-local static so interning happens once per site.
using MetricId = std::uint32_t;

/// Intern `name` with `kind`. Re-interning an existing name returns the
/// same id; re-interning with a different kind throws InvalidArgument
/// (one name, one meaning).
MetricId metric_id(const char* name, MetricKind kind);

/// Add `delta` to counter `id` (calling thread's shard).
void counter_add(MetricId id, std::uint64_t delta);

/// Record one sample into stat `id`.
void stat_record(MetricId id, double sample);

/// Record one latency sample in seconds into histogram `id` (kLatency).
/// Lock-free after the calling thread's first sample for this id (the
/// first sample allocates the thread's bucket array under the shard
/// mutex; every later one is a relaxed fetch_add on a private bucket).
void latency_record(MetricId id, double seconds);

/// Merged view of one metric across all shards (live + retired).
struct MetricRecord {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  std::uint64_t value = 0;  ///< counter sum; sample count for the others
  // Stat fields (kStat/kLatency; count doubles as the sample count).
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;  ///< 0 when count == 0
  double max = 0.0;
  // Merged histogram (kLatency only; empty otherwise).
  LatencyHistogram latency;
};

/// Merge every shard and return all registered metrics in registration
/// order. Metrics never updated report zeros.
[[nodiscard]] std::vector<MetricRecord> metrics_snapshot();

/// Zero all recorded values (live shards and retired accumulators).
/// Registered names/ids survive.
void metrics_reset();

}  // namespace zh::obs

#include "obs/trace.hpp"

namespace zh::obs {
/// Either subsystem active -- instrumentation that wraps work (e.g. the
/// ThreadPool task shim) checks this so idle runs skip the wrapper.
inline bool profiling_enabled() { return metrics_enabled() || trace_enabled(); }
}  // namespace zh::obs

// Instrumentation macros; no-ops when the ZH_OBS CMake option is OFF.
// `name` must be a string literal (it is interned once per call site).
#if defined(ZH_ENABLE_OBS)
#define ZH_COUNTER_ADD(name, delta)                                          \
  do {                                                                       \
    if (::zh::obs::metrics_enabled()) {                                      \
      static const ::zh::obs::MetricId zh_obs_id_ =                          \
          ::zh::obs::metric_id(name, ::zh::obs::MetricKind::kCounter);       \
      ::zh::obs::counter_add(zh_obs_id_,                                     \
                             static_cast<std::uint64_t>(delta));             \
    }                                                                        \
  } while (false)
#define ZH_STAT_RECORD(name, sample)                                         \
  do {                                                                       \
    if (::zh::obs::metrics_enabled()) {                                      \
      static const ::zh::obs::MetricId zh_obs_id_ =                          \
          ::zh::obs::metric_id(name, ::zh::obs::MetricKind::kStat);          \
      ::zh::obs::stat_record(zh_obs_id_, static_cast<double>(sample));       \
    }                                                                        \
  } while (false)
#define ZH_LATENCY_RECORD(name, seconds)                                     \
  do {                                                                       \
    if (::zh::obs::metrics_enabled()) {                                      \
      static const ::zh::obs::MetricId zh_obs_id_ =                          \
          ::zh::obs::metric_id(name, ::zh::obs::MetricKind::kLatency);       \
      ::zh::obs::latency_record(zh_obs_id_, static_cast<double>(seconds));   \
    }                                                                        \
  } while (false)
#else
#define ZH_COUNTER_ADD(name, delta) \
  do {                              \
  } while (false)
#define ZH_STAT_RECORD(name, sample) \
  do {                               \
  } while (false)
#define ZH_LATENCY_RECORD(name, seconds) \
  do {                                   \
  } while (false)
#endif
