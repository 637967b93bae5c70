// Prometheus exposition + embedded /metrics server: the renderer's
// output passes the shared format linter, the linter catches the
// defects it exists for (bad names, missing TYPE, duplicate series),
// and the HTTP server answers real loopback GETs with quantile series
// while recording its own serve.* metrics. Obs* suite names keep this
// file in the TSan matrix (the server test runs a background thread).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <string>
#include <vector>

#include "obs/exposition.hpp"
#include "obs/metrics.hpp"
#include "obs/metrics_server.hpp"

namespace zh {
namespace {

struct ObsGuard {
  ObsGuard() {
    obs::set_metrics_enabled(false);
    obs::metrics_reset();
  }
  ~ObsGuard() {
    obs::set_metrics_enabled(false);
    obs::metrics_reset();
  }
};

/// Blocking one-shot HTTP GET against 127.0.0.1:port; returns the full
/// response (status line + headers + body), empty string on failure.
std::string http_get(std::uint16_t port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return {};
  }
  const std::string req = "GET " + path + " HTTP/1.0\r\n\r\n";
  std::size_t sent = 0;
  while (sent < req.size()) {
    const ssize_t n = ::send(fd, req.data() + sent, req.size() - sent, 0);
    if (n <= 0) {
      ::close(fd);
      return {};
    }
    sent += static_cast<std::size_t>(n);
  }
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

void populate_registry() {
  obs::set_metrics_enabled(true);
  const obs::MetricId hits =
      obs::metric_id("cache.hits", obs::MetricKind::kCounter);
  const obs::MetricId misses =
      obs::metric_id("cache.misses", obs::MetricKind::kCounter);
  const obs::MetricId bytes =
      obs::metric_id("cache.bytes", obs::MetricKind::kGaugeSet);
  const obs::MetricId query =
      obs::metric_id("latency.query", obs::MetricKind::kLatency);
  obs::counter_add(hits, 75);
  obs::counter_add(misses, 25);
  obs::gauge_set(bytes, 1 << 20);
  for (int i = 1; i <= 200; ++i) obs::latency_record(query, i * 1e-4);
}

TEST(ObsExposition, FamilyNameMapping) {
  using obs::MetricKind;
  EXPECT_EQ(obs::prometheus_family_name("cache.hits", MetricKind::kCounter),
            "zh_cache_hits_total");
  EXPECT_EQ(obs::prometheus_family_name("cache.bytes", MetricKind::kGaugeSet),
            "zh_cache_bytes");
  EXPECT_EQ(obs::prometheus_family_name("latency.query", MetricKind::kLatency),
            "zh_query_latency_seconds");
  EXPECT_EQ(
      obs::prometheus_family_name("latency.journal_fsync",
                                  MetricKind::kLatency),
      "zh_journal_fsync_latency_seconds");
}

TEST(ObsExposition, RendersAndPassesOwnLinter) {
  ObsGuard guard;
  populate_registry();
  const std::string text =
      obs::prometheus_exposition(obs::metrics_snapshot());

  EXPECT_NE(text.find("# TYPE zh_cache_hits_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("zh_cache_hits_total 75"), std::string::npos);
  EXPECT_NE(text.find("# TYPE zh_query_latency_seconds summary"),
            std::string::npos);
  EXPECT_NE(text.find("zh_query_latency_seconds{quantile=\"0.99\"}"),
            std::string::npos);
  EXPECT_NE(text.find("zh_query_latency_seconds_count 200"),
            std::string::npos);

  const std::vector<std::string> problems = obs::lint_exposition(text);
  for (const std::string& p : problems) ADD_FAILURE() << p;
}

TEST(ObsExposition, WindowedSeriesRenderWhenWindowAttached) {
  ObsGuard guard;
  populate_registry();
  obs::RollingWindow win(120.0, 16);
  win.push(0.0, obs::metrics_snapshot());
  const obs::MetricId hits =
      obs::metric_id("cache.hits", obs::MetricKind::kCounter);
  const obs::MetricId query =
      obs::metric_id("latency.query", obs::MetricKind::kLatency);
  obs::counter_add(hits, 600);
  for (int i = 0; i < 10; ++i) obs::latency_record(query, 2.0);
  win.push(60.0, obs::metrics_snapshot());

  obs::ExpositionOptions opts;
  opts.window = &win;
  opts.window_seconds = 60.0;
  opts.now_seconds = 60.0;
  const std::string text =
      obs::prometheus_exposition(obs::metrics_snapshot(), opts);

  // 600 more hits over the trailing 60 s -> 10/s. The rate series is a
  // gauge, so the counter's _total suffix intentionally drops.
  EXPECT_NE(text.find("zh_cache_hits_rate{window=\"60s\"} 10"),
            std::string::npos);
  EXPECT_NE(
      text.find("zh_query_latency_seconds_window{window=\"60s\",quantile="),
      std::string::npos);
  const std::vector<std::string> problems = obs::lint_exposition(text);
  for (const std::string& p : problems) ADD_FAILURE() << p;
}

TEST(ObsExpositionLint, CatchesInjectedDefects) {
  const std::string good =
      "# HELP zh_x_total help\n"
      "# TYPE zh_x_total counter\n"
      "zh_x_total 1\n";
  EXPECT_TRUE(obs::lint_exposition(good).empty());

  // Illegal metric name (leading digit).
  EXPECT_FALSE(obs::lint_exposition("# HELP 9bad h\n# TYPE 9bad counter\n"
                                    "9bad 1\n")
                   .empty());
  // Sample without a TYPE line.
  EXPECT_FALSE(obs::lint_exposition("zh_untyped 1\n").empty());
  // Duplicate series (same name + label set).
  EXPECT_FALSE(obs::lint_exposition(good + "zh_x_total 2\n").empty());
  // Unparsable sample value.
  EXPECT_FALSE(obs::lint_exposition("# HELP zh_y h\n# TYPE zh_y gauge\n"
                                    "zh_y banana\n")
                   .empty());
  // Malformed label syntax.
  EXPECT_FALSE(obs::lint_exposition("# HELP zh_z h\n# TYPE zh_z gauge\n"
                                    "zh_z{oops 1\n")
                   .empty());
  // Empty exposition is a problem, not a pass.
  EXPECT_FALSE(obs::lint_exposition("").empty());
}

TEST(ObsServe, MetricsAndHealthOverLoopback) {
  ObsGuard guard;
  populate_registry();

  obs::MetricsServerOptions opt;
  opt.port = 0;  // ephemeral
  opt.tick_seconds = 0.01;
  obs::MetricsServer server(opt);
  ASSERT_NE(server.port(), 0);

  const std::string health = http_get(server.port(), "/healthz");
  EXPECT_NE(health.find("200 OK"), std::string::npos);
  EXPECT_NE(health.find("ok"), std::string::npos);

  const std::string response = http_get(server.port(), "/metrics");
  ASSERT_NE(response.find("200 OK"), std::string::npos);
  EXPECT_NE(response.find("text/plain; version=0.0.4"), std::string::npos);
  const std::size_t body_at = response.find("\r\n\r\n");
  ASSERT_NE(body_at, std::string::npos);
  const std::string body = response.substr(body_at + 4);

  EXPECT_NE(body.find("zh_query_latency_seconds{quantile=\"0.99\"}"),
            std::string::npos);
  const std::vector<std::string> problems = obs::lint_exposition(body);
  for (const std::string& p : problems) ADD_FAILURE() << p;

  const std::string missing = http_get(server.port(), "/nope");
  EXPECT_NE(missing.find("404"), std::string::npos);

#if defined(ZH_ENABLE_OBS)
  // The server's own serve.* metrics show up on the NEXT scrape. They
  // go through the instrumentation macros, so the ZH_OBS=OFF flavor
  // (macros compiled to no-ops) legitimately serves without them.
  const std::string again = http_get(server.port(), "/metrics");
  EXPECT_NE(again.find("zh_serve_scrapes_total"), std::string::npos);
  EXPECT_NE(again.find("zh_serve_http_errors_total 1"), std::string::npos);
#endif

  server.stop();
  server.stop();  // idempotent
  EXPECT_TRUE(http_get(server.port(), "/metrics").empty());
}

TEST(ObsServe, RenderMatchesScrapeAndSurvivesConcurrentRecords) {
  ObsGuard guard;
  populate_registry();
  obs::MetricsServerOptions opt;
  opt.port = 0;
  opt.tick_seconds = 0.005;
  obs::MetricsServer server(opt);

  // Recorders run while the background thread ticks and render() is
  // called -- TSan cross-checks the registry/window locking.
  const obs::MetricId query =
      obs::metric_id("latency.query", obs::MetricKind::kLatency);
  std::thread recorder([query] {
    for (int i = 0; i < 5000; ++i) obs::latency_record(query, 1e-3);
  });
  for (int i = 0; i < 20; ++i) {
    const std::string text = server.render();
    EXPECT_NE(text.find("zh_query_latency_seconds_count"),
              std::string::npos);
    EXPECT_TRUE(obs::lint_exposition(text).empty());
  }
  recorder.join();

  const std::string text = server.render();
  EXPECT_NE(text.find("zh_query_latency_seconds_count 5200"),
            std::string::npos);
}

}  // namespace
}  // namespace zh
