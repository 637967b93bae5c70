// Prometheus text-exposition (v0.0.4) rendering of the metrics
// registry, plus the format linter that validate_obs and the tests
// share.
//
// Name mapping (dots become underscores, everything gets a zh_ prefix):
//   counter  cache.hits      -> zh_cache_hits_total        TYPE counter
//   gauge    cache.bytes     -> zh_cache_bytes             TYPE gauge
//   stat     foo.bar         -> zh_foo_bar                 TYPE summary
//   latency  latency.query   -> zh_query_latency_seconds   TYPE summary
// Latency series render as summaries with quantile labels (0.5, 0.9,
// 0.95, 0.99) plus _sum/_count. A `latency.` prefix is dropped and the
// remainder gets a `_latency_seconds` suffix, so `latency.query`
// becomes the conventional `zh_query_latency_seconds`.
//
// With a RollingWindow attached, each counter additionally gets
// `<name>_rate{window="Ns"}` (per-second rate over the trailing window)
// and each latency family gets `<family>_window{window="Ns",quantile="q"}`
// windowed quantiles.
#pragma once

#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/rolling_window.hpp"

namespace zh::obs {

struct ExpositionOptions {
  /// Optional rolling window; adds *_rate and *_window series.
  const RollingWindow* window = nullptr;
  /// Trailing window the *_rate / *_window series cover.
  double window_seconds = 60.0;
  /// Monotone "now" matching the clock used for RollingWindow::push.
  double now_seconds = 0.0;
};

/// Map a registry metric name to its Prometheus family name.
[[nodiscard]] std::string prometheus_family_name(const std::string& name,
                                                 MetricKind kind);

/// Render a snapshot as Prometheus text exposition v0.0.4.
[[nodiscard]] std::string prometheus_exposition(
    const std::vector<MetricRecord>& snapshot,
    const ExpositionOptions& options = {});

/// Lint exposition text: HELP/TYPE lines present for every sampled
/// family (TYPE before the first sample), metric names match
/// [a-zA-Z_:][a-zA-Z0-9_:]*, label syntax parses, sample values parse,
/// and no series (name + label set) appears twice. Returns one message
/// per problem; empty means the text passes.
[[nodiscard]] std::vector<std::string> lint_exposition(
    const std::string& text);

}  // namespace zh::obs
