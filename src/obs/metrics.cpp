#include "obs/metrics.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <deque>
#include <limits>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "common/error.hpp"

namespace zh::obs {

namespace detail {
std::atomic<bool> g_metrics_enabled{false};
}  // namespace detail

namespace {

// One thread's storage for one metric. deque growth in the owning
// shard never moves existing Slots, so concurrent snapshot readers can
// hold references across a grow (they take the shard mutex anyway; the
// stability matters for the *updating* thread racing a snapshot).
// Per-thread latency buckets, allocated lazily on the first sample for
// that (thread, metric) pair so slots for the other kinds stay small.
// C++20 value-initialized atomics start at zero.
struct LatencyBuckets {
  std::array<std::atomic<std::uint64_t>, kLatencyBucketCount> counts{};
};

struct Slot {
  std::atomic<std::uint64_t> count{0};  ///< counter/gauge value; stat count
  std::atomic<double> sum{0.0};
  std::atomic<double> min{std::numeric_limits<double>::infinity()};
  std::atomic<double> max{-std::numeric_limits<double>::infinity()};
  /// kGaugeSet: global set-sequence ticket of the last set on this
  /// thread; 0 means never set. The merge keeps the highest ticket.
  std::atomic<std::uint64_t> seq{0};
  /// kLatency only. Written by the owning thread under the shard mutex
  /// (once), read by snapshot/reset under the same mutex; the owner's
  /// later unlocked reads race nothing (same thread wrote it).
  std::unique_ptr<LatencyBuckets> latency;
};

// Plain merged totals (retired-shard accumulator and snapshot rows).
struct Totals {
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
  std::uint64_t seq = 0;                ///< kGaugeSet merge ticket
  std::vector<std::uint64_t> latency;   ///< kLatency bucket sums
};

// Ticket dispenser for gauge_set ordering across threads.
std::atomic<std::uint64_t> g_gauge_set_seq{0};

struct Shard;

struct Meta {
  std::string name;
  MetricKind kind;
};

// Leaked on purpose: rank/pool threads may exit (and retire their
// shards) during static destruction.
struct MetricsRegistry {
  std::mutex mu;  // guards ids/metas/shards/retired
  std::unordered_map<std::string, MetricId> ids;
  std::vector<Meta> metas;
  std::vector<Shard*> shards;
  std::vector<Totals> retired;
};

MetricsRegistry& registry() {
  // zh-lint-ignore(naked-new): leaky singleton; must survive detached threads at exit
  static MetricsRegistry* r = new MetricsRegistry();
  return *r;
}

void merge_slot(const Meta& meta, const Slot& slot, Totals& into) {
  const std::uint64_t c = slot.count.load(std::memory_order_relaxed);
  switch (meta.kind) {
    case MetricKind::kCounter:
      into.count += c;
      break;
    case MetricKind::kGauge:
      if (c > into.count) into.count = c;
      break;
    case MetricKind::kGaugeSet: {
      // Acquire pairs with the release in gauge_set(): observing the
      // ticket implies observing the value stored just before it.
      const std::uint64_t sq = slot.seq.load(std::memory_order_acquire);
      if (sq > into.seq) {
        into.seq = sq;
        into.count = slot.count.load(std::memory_order_relaxed);
      }
      break;
    }
    case MetricKind::kStat: {
      into.count += c;
      into.sum += slot.sum.load(std::memory_order_relaxed);
      const double mn = slot.min.load(std::memory_order_relaxed);
      const double mx = slot.max.load(std::memory_order_relaxed);
      if (mn < into.min) into.min = mn;
      if (mx > into.max) into.max = mx;
      break;
    }
    case MetricKind::kLatency: {
      into.sum += slot.sum.load(std::memory_order_relaxed);
      const double mn = slot.min.load(std::memory_order_relaxed);
      const double mx = slot.max.load(std::memory_order_relaxed);
      if (mn < into.min) into.min = mn;
      if (mx > into.max) into.max = mx;
      if (slot.latency != nullptr) {
        if (into.latency.empty()) into.latency.assign(kLatencyBucketCount, 0);
        // Count the buckets read here, not `c`: a sample recorded while
        // this loop runs would otherwise leave a mid-run snapshot's
        // count and bucket total disagreeing.
        for (std::size_t i = 0; i < kLatencyBucketCount; ++i) {
          const std::uint64_t n =
              slot.latency->counts[i].load(std::memory_order_relaxed);
          into.latency[i] += n;
          into.count += n;
        }
      }
      break;
    }
  }
}

struct Shard {
  std::mutex mu;  // grow / snapshot / reset; never taken by updates
  std::deque<Slot> slots;

  Shard() {
    MetricsRegistry& r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    r.shards.push_back(this);
  }

  ~Shard() {
    MetricsRegistry& r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    if (r.retired.size() < slots.size()) r.retired.resize(slots.size());
    for (std::size_t id = 0; id < slots.size(); ++id) {
      merge_slot(r.metas[id], slots[id], r.retired[id]);
    }
    std::erase(r.shards, this);
  }

  Slot& slot(MetricId id) {
    if (id >= slots.size()) {
      std::lock_guard<std::mutex> lock(mu);
      while (slots.size() <= id) slots.emplace_back();
    }
    return slots[id];
  }
};

Shard& local_shard() {
  thread_local Shard shard;
  return shard;
}

void atomic_add_double(std::atomic<double>& a, double delta) {
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + delta,
                                  std::memory_order_relaxed)) {
  }
}

void atomic_min_double(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (v < cur &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void atomic_max_double(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (v > cur &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

}  // namespace

void set_metrics_enabled(bool on) {
  detail::g_metrics_enabled.store(on, std::memory_order_relaxed);
}

MetricId metric_id(const char* name, MetricKind kind) {
  MetricsRegistry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  auto [it, inserted] = r.ids.emplace(name, 0);
  if (inserted) {
    it->second = static_cast<MetricId>(r.metas.size());
    r.metas.push_back(Meta{name, kind});
    return it->second;
  }
  ZH_REQUIRE(r.metas[it->second].kind == kind,
             "metric '", name, "' re-registered with a different kind");
  return it->second;
}

void counter_add(MetricId id, std::uint64_t delta) {
  local_shard().slot(id).count.fetch_add(delta, std::memory_order_relaxed);
}

void gauge_max(MetricId id, std::uint64_t value) {
  std::atomic<std::uint64_t>& a = local_shard().slot(id).count;
  std::uint64_t cur = a.load(std::memory_order_relaxed);
  while (value > cur &&
         !a.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
}

void gauge_set(MetricId id, std::uint64_t value) {
  Slot& s = local_shard().slot(id);
  const std::uint64_t ticket =
      g_gauge_set_seq.fetch_add(1, std::memory_order_relaxed) + 1;
  s.count.store(value, std::memory_order_relaxed);
  // Release after the value: a merge that sees this ticket sees the
  // value that came with it.
  s.seq.store(ticket, std::memory_order_release);
}

void stat_record(MetricId id, double sample) {
  Slot& s = local_shard().slot(id);
  s.count.fetch_add(1, std::memory_order_relaxed);
  atomic_add_double(s.sum, sample);
  atomic_min_double(s.min, sample);
  atomic_max_double(s.max, sample);
}

void latency_record(MetricId id, double seconds) {
  Shard& sh = local_shard();
  Slot& s = sh.slot(id);
  if (s.latency == nullptr) {
    // First sample for this (thread, metric): allocate the bucket array
    // under the shard mutex so a concurrent snapshot never races the
    // pointer install. Later samples skip this entirely.
    std::lock_guard<std::mutex> lock(sh.mu);
    s.latency = std::make_unique<LatencyBuckets>();
  }
  const double v = std::isnan(seconds) ? 0.0 : seconds;
  s.latency->counts[latency_bucket_index(seconds)].fetch_add(
      1, std::memory_order_relaxed);
  s.count.fetch_add(1, std::memory_order_relaxed);
  atomic_add_double(s.sum, v);
  atomic_min_double(s.min, v);
  atomic_max_double(s.max, v);
}

std::vector<MetricRecord> metrics_snapshot() {
  MetricsRegistry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  std::vector<Totals> totals(r.metas.size());
  for (std::size_t id = 0; id < r.retired.size(); ++id) {
    totals[id] = r.retired[id];
  }
  for (Shard* shard : r.shards) {
    std::lock_guard<std::mutex> slock(shard->mu);
    const std::size_t n = std::min(shard->slots.size(), totals.size());
    for (std::size_t id = 0; id < n; ++id) {
      merge_slot(r.metas[id], shard->slots[id], totals[id]);
    }
  }
  std::vector<MetricRecord> out(r.metas.size());
  for (std::size_t id = 0; id < r.metas.size(); ++id) {
    MetricRecord& rec = out[id];
    rec.name = r.metas[id].name;
    rec.kind = r.metas[id].kind;
    switch (rec.kind) {
      case MetricKind::kCounter:
      case MetricKind::kGauge:
      case MetricKind::kGaugeSet:
        rec.value = totals[id].count;
        break;
      case MetricKind::kStat:
        rec.count = totals[id].count;
        rec.sum = totals[id].sum;
        rec.min = totals[id].count ? totals[id].min : 0.0;
        rec.max = totals[id].count ? totals[id].max : 0.0;
        rec.value = totals[id].count;
        break;
      case MetricKind::kLatency: {
        rec.count = totals[id].count;
        rec.sum = totals[id].sum;
        rec.min = totals[id].count ? totals[id].min : 0.0;
        rec.max = totals[id].count ? totals[id].max : 0.0;
        rec.value = totals[id].count;
        for (std::size_t i = 0; i < totals[id].latency.size(); ++i) {
          rec.latency.add_bucket(i, totals[id].latency[i]);
        }
        if (!rec.latency.empty()) {
          rec.latency.set_stats(rec.sum, rec.min, rec.max);
        }
        break;
      }
    }
  }
  return out;
}

void metrics_reset() {
  MetricsRegistry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  r.retired.assign(r.retired.size(), Totals{});
  for (Shard* shard : r.shards) {
    std::lock_guard<std::mutex> slock(shard->mu);
    for (Slot& s : shard->slots) {
      s.count.store(0, std::memory_order_relaxed);
      s.sum.store(0.0, std::memory_order_relaxed);
      s.min.store(std::numeric_limits<double>::infinity(),
                  std::memory_order_relaxed);
      s.max.store(-std::numeric_limits<double>::infinity(),
                  std::memory_order_relaxed);
      s.seq.store(0, std::memory_order_relaxed);
      if (s.latency != nullptr) {
        for (std::atomic<std::uint64_t>& b : s.latency->counts) {
          b.store(0, std::memory_order_relaxed);
        }
      }
    }
  }
}

}  // namespace zh::obs
