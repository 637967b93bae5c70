// Cross-rank causal tracing: rank pinning at flush time, versioned
// trace-frame round-trips with duplicate-delivery dedup, the NTP-style
// clock-offset estimator, flow-graph validity of merged cluster traces
// under fault plans (crash mid-step, duplicate delivery), critical-path
// tiling invariants, and the zh_perf regression-differ semantics.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "cluster/fault.hpp"
#include "common/error.hpp"
#include "core/cluster_driver.hpp"
#include "data/county_synth.hpp"
#include "data/dem_synth.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "perf_diff.hpp"
#include "trace_analysis.hpp"

namespace zh {
namespace {

class TraceCausalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_trace_enabled(false);
    obs::trace_clear();
    obs::set_thread_rank(-1);
  }
  void TearDown() override {
    obs::set_trace_enabled(false);
    obs::trace_clear();
    obs::set_thread_rank(-1);
  }
};

TEST_F(TraceCausalTest, ClockOffsetHandshakeMath) {
  // remote ~= local + offset: t0/t3 bracket the probe locally, the
  // remote stamps the midpoint. offset = t_remote - (t0 + t3) / 2.
  EXPECT_EQ(obs::clock_offset_from_handshake(100, 1200, 300), 1000);
  EXPECT_EQ(obs::clock_offset_from_handshake(100, 200, 300), 0);
  EXPECT_EQ(obs::clock_offset_from_handshake(1000, 500, 1200), -600);
  // Zero RTT degenerates to a plain clock difference.
  EXPECT_EQ(obs::clock_offset_from_handshake(50, 80, 50), 30);
}

TEST_F(TraceCausalTest, ExportAppliesClockOffsetAndClamps) {
  obs::set_trace_enabled(true);
  obs::set_thread_rank(2);
  const std::int64_t t = obs::now_us();
  obs::record_span("work", "test", t, 10);
  // Rank 2's clock reads far ahead of the master's; export subtracts the
  // offset and clamps at zero rather than emitting negative timestamps.
  obs::set_rank_clock_offset_us(2, t + 1000000);
  const obs::JsonValue doc = obs::parse_json(obs::chrome_trace_json());
  const trace::TraceModel m = trace::load_trace(doc);
  ASSERT_EQ(m.spans.size(), 1u);
  EXPECT_EQ(m.spans[0].ts_us, 0);
}

// Satellite regression: a short-lived worker-rank thread records spans,
// then the buffer is flushed by infrastructure that must not depend on
// the flusher's (or a later ingester's) rank attribution. Events that
// never had a rank get pinned at flush time; events that had one keep it.
TEST_F(TraceCausalTest, TakeThreadEventsPinsUnattributedRank) {
  obs::set_trace_enabled(true);
  obs::set_thread_rank(-1);
  const std::int64_t t = obs::now_us();
  obs::record_span("unattributed", "test", t, 5);
  obs::set_thread_rank(2);
  obs::record_span("attributed", "test", t + 10, 5);

  const std::vector<obs::TraceEvent> taken = obs::take_thread_events(7);
  ASSERT_EQ(taken.size(), 2u);
  for (const obs::TraceEvent& e : taken) {
    if (std::string(e.name) == "unattributed") {
      EXPECT_EQ(e.rank, 7);  // pinned at flush time
    } else {
      EXPECT_EQ(e.rank, 2);  // explicit attribution survives
    }
  }
  // take removes: the thread buffer is now empty.
  EXPECT_TRUE(obs::take_thread_events(7).empty());
}

TEST_F(TraceCausalTest, EncodeIngestRoundTripPreservesRank) {
  obs::set_trace_enabled(true);
  obs::set_thread_rank(3);
  obs::record_span("partition", "cluster", obs::now_us(), 42);
  obs::record_flow('s', "comm.send", "comm", 99, obs::now_us());
  const std::vector<obs::TraceEvent> taken = obs::take_thread_events(3);
  ASSERT_EQ(taken.size(), 2u);
  const std::vector<std::byte> frame = obs::encode_trace_events(taken);

  obs::trace_clear();
  obs::set_thread_rank(0);  // the ingesting master is rank 0 ...
  obs::ingest_trace_events(frame);
  const std::vector<obs::TraceEvent> merged = obs::trace_snapshot();
  ASSERT_EQ(merged.size(), 2u);
  for (const obs::TraceEvent& e : merged) {
    EXPECT_EQ(e.rank, 3);  // ... but the events keep the recorder's rank
  }
  bool saw_span = false;
  bool saw_flow = false;
  for (const obs::TraceEvent& e : merged) {
    if (e.phase == 'X') {
      saw_span = true;
      EXPECT_STREQ(e.name, "partition");
      EXPECT_STREQ(e.cat, "cluster");
      EXPECT_EQ(e.dur_us, 42);
    } else {
      saw_flow = true;
      EXPECT_EQ(e.phase, 's');
      EXPECT_EQ(e.flow_id, 99u);
    }
  }
  EXPECT_TRUE(saw_span);
  EXPECT_TRUE(saw_flow);
}

TEST_F(TraceCausalTest, IngestDeduplicatesDuplicateFrames) {
  obs::set_trace_enabled(true);
  obs::set_thread_rank(1);
  obs::record_span("once", "test", obs::now_us(), 7);
  const std::vector<std::byte> frame =
      obs::encode_trace_events(obs::take_thread_events(1));

  obs::ingest_trace_events(frame);
  const std::size_t after_first = obs::trace_snapshot().size();
  obs::ingest_trace_events(frame);  // duplicate delivery of the same blob
  EXPECT_EQ(obs::trace_snapshot().size(), after_first);
}

TEST_F(TraceCausalTest, IngestRejectsMalformedFrames) {
  obs::set_trace_enabled(true);
  obs::record_span("victim", "test", obs::now_us(), 1);
  std::vector<std::byte> frame =
      obs::encode_trace_events(obs::take_thread_events(-1));
  ASSERT_GT(frame.size(), 4u);

  std::vector<std::byte> truncated(frame.begin(), frame.end() - 3);
  EXPECT_THROW(obs::ingest_trace_events(truncated), IoError);

  std::vector<std::byte> bad_magic = frame;
  bad_magic[0] = std::byte{0xFF};
  EXPECT_THROW(obs::ingest_trace_events(bad_magic), IoError);

  std::vector<std::byte> trailing = frame;
  trailing.push_back(std::byte{0});
  EXPECT_THROW(obs::ingest_trace_events(trailing), IoError);

  // Failed ingests must not leave partial events behind.
  EXPECT_TRUE(obs::trace_snapshot().empty());
}

TEST_F(TraceCausalTest, FlowEventsExportAndValidate) {
  obs::set_trace_enabled(true);
  const std::int64_t t = obs::now_us();
  obs::record_span("root", "test", t, 100);
  const std::uint64_t flow = obs::next_flow_id();
  obs::record_flow('s', "comm.send", "comm", flow, t + 10);
  obs::record_flow('f', "comm.recv", "comm", flow, t + 30);

  const trace::TraceModel m =
      trace::load_trace(obs::parse_json(obs::chrome_trace_json()));
  const trace::FlowCheck check = trace::validate_flows(m);
  EXPECT_TRUE(check.ok());
  EXPECT_EQ(check.sends, 1u);
  EXPECT_EQ(check.recvs, 1u);
  EXPECT_EQ(check.unmatched_sends, 0u);
}

TEST_F(TraceCausalTest, DanglingRecvFailsValidation) {
  obs::set_trace_enabled(true);
  const std::int64_t t = obs::now_us();
  obs::record_span("root", "test", t, 100);
  // An "f" whose "s" was never merged: the corruption the validator
  // exists to catch (a rank's flushed buffer went missing).
  obs::record_flow('f', "comm.recv", "comm", obs::next_flow_id(), t + 30);

  const trace::TraceModel m =
      trace::load_trace(obs::parse_json(obs::chrome_trace_json()));
  const trace::FlowCheck check = trace::validate_flows(m);
  EXPECT_FALSE(check.ok());
  EXPECT_EQ(check.dangling_recvs, 1u);
  ASSERT_FALSE(check.errors.empty());
}

TEST_F(TraceCausalTest, CriticalPathTilesSingleSpan) {
  trace::TraceModel m;
  m.spans.push_back({"run", "pipeline", 0, 1, 100, 900, 1, 0});
  m.begin_us = 100;
  m.end_us = 1000;
  const trace::CriticalPath cp = trace::critical_path(m);
  EXPECT_EQ(cp.wall_us, 900);
  EXPECT_EQ(cp.work_us, 900);
  EXPECT_EQ(cp.transit_us, 0);
  EXPECT_EQ(cp.idle_us, 0);
  EXPECT_DOUBLE_EQ(cp.coverage, 1.0);
  ASSERT_EQ(cp.segments.size(), 1u);
  EXPECT_EQ(cp.segments[0].name, "run");
}

TEST_F(TraceCausalTest, CriticalPathCrossesFlowEdge) {
  // Lane pid=1 works [0, 400], sends at 350; lane pid=2 receives at 500
  // and works until 1000. The path must jump through the flow edge:
  // work on pid 2 [500, 1000], transit [350, 500], work on pid 1 [0,350].
  trace::TraceModel m;
  m.spans.push_back({"producer", "cluster", 1, 1, 0, 400, 1, 0});
  m.spans.push_back({"consumer", "cluster", 2, 2, 500, 500, 2, 0});
  m.flows.push_back({7, 1, 1, 350, 's'});
  m.flows.push_back({7, 2, 2, 500, 'f'});
  m.begin_us = 0;
  m.end_us = 1000;

  const trace::CriticalPath cp = trace::critical_path(m);
  EXPECT_EQ(cp.wall_us, 1000);
  EXPECT_EQ(cp.work_us + cp.transit_us + cp.idle_us, cp.wall_us);
  EXPECT_GT(cp.transit_us, 0);
  EXPECT_DOUBLE_EQ(cp.coverage, 1.0);
  // Segments tile [begin, end] contiguously in wall-clock order.
  ASSERT_FALSE(cp.segments.empty());
  EXPECT_EQ(cp.segments.front().start_us, m.begin_us);
  EXPECT_EQ(cp.segments.back().end_us, m.end_us);
  for (std::size_t i = 1; i < cp.segments.size(); ++i) {
    EXPECT_EQ(cp.segments[i].start_us, cp.segments[i - 1].end_us);
  }
  bool saw_transit = false;
  for (const trace::PathSegment& s : cp.segments) {
    saw_transit |= s.kind == trace::PathSegment::Kind::kTransit;
  }
  EXPECT_TRUE(saw_transit);
}

// ---- merged cluster traces under fault plans ------------------------------

/// 96x96 raster split 2x2 with star counties: the recovery-test fixture.
struct Scenario {
  std::vector<DemRaster> rasters;
  std::vector<std::pair<int, int>> schemas = {{2, 2}};
  PolygonSet zones;

  Scenario() {
    const DemParams dp{.seed = 17, .max_value = 59};
    rasters.push_back(
        generate_dem(96, 96, GeoTransform(0.0, 9.6, 0.1, 0.1), dp));
    CountyParams cp;
    cp.seed = 4;
    cp.grid_x = 4;
    cp.grid_y = 4;
    zones = generate_counties(GeoBox{-0.5, -0.5, 10.1, 10.1}, cp);
  }

  [[nodiscard]] ClusterRunConfig config(std::size_t ranks) const {
    ClusterRunConfig cfg;
    cfg.ranks = ranks;
    cfg.zonal = {.tile_size = 16, .bins = 60};
    return cfg;
  }
};

/// Run the cluster under `cfg` with tracing on; return the merged model.
trace::TraceModel traced_run(const Scenario& sc, const ClusterRunConfig& cfg) {
  obs::trace_clear();
  obs::set_trace_enabled(true);
  (void)run_cluster_zonal(sc.rasters, sc.schemas, sc.zones, cfg);
  obs::set_trace_enabled(false);
  return trace::load_trace(obs::parse_json(obs::chrome_trace_json()));
}

void expect_valid_merged_trace(const trace::TraceModel& m) {
  const trace::FlowCheck check = trace::validate_flows(m);
  EXPECT_TRUE(check.ok()) << check.dangling_recvs << " dangling recv(s): "
                          << (check.errors.empty() ? "" : check.errors[0]);
  EXPECT_GT(check.sends, 0u);
  EXPECT_GT(check.recvs, 0u);
  EXPECT_EQ(m.dropped_events, 0u);

  // Spans from more than one rank made it into the merge.
  bool multi_pid = false;
  for (const trace::SpanRec& s : m.spans) {
    if (s.pid != m.spans.front().pid) multi_pid = true;
  }
  EXPECT_TRUE(multi_pid);

  // The critical path tiles the run: its segment durations sum to the
  // measured wall time (the ISSUE's 5% acceptance bound, met exactly
  // unless the defensive iteration cap fires).
  const trace::CriticalPath cp = trace::critical_path(m);
  EXPECT_GE(cp.coverage, 0.95);
  EXPECT_NEAR(static_cast<double>(cp.work_us + cp.transit_us + cp.idle_us),
              static_cast<double>(cp.wall_us),
              0.05 * static_cast<double>(cp.wall_us));
}

TEST_F(TraceCausalTest, MergedTraceValidUnderRankCrash) {
  const Scenario sc;
  ClusterRunConfig cfg = sc.config(4);
  cfg.fault_tolerance.worker_timeout_ms = 10000;
  cfg.fault_tolerance.faults.crash = {1, CrashPoint::kPartitionDone, 0};
  expect_valid_merged_trace(traced_run(sc, cfg));
}

TEST_F(TraceCausalTest, MergedTraceValidUnderDuplicateDelivery) {
  const Scenario sc;
  ClusterRunConfig cfg = sc.config(4);
  cfg.fault_tolerance.worker_timeout_ms = 10000;
  cfg.fault_tolerance.faults = FaultPlan::parse("seed=9,dup=1.0");
  expect_valid_merged_trace(traced_run(sc, cfg));
}

TEST_F(TraceCausalTest, MergedTraceValidUnderDropStorm) {
  const Scenario sc;
  ClusterRunConfig cfg = sc.config(4);
  cfg.fault_tolerance.worker_timeout_ms = 10000;
  cfg.fault_tolerance.faults =
      FaultPlan::parse("seed=9,drop=0.15,dup=0.1,reorder=0.1");
  expect_valid_merged_trace(traced_run(sc, cfg));
}

TEST_F(TraceCausalTest, RankBreakdownCoversClusterRanks) {
  const Scenario sc;
  ClusterRunConfig cfg = sc.config(3);
  cfg.fault_tolerance.worker_timeout_ms = 10000;
  const trace::TraceModel m = traced_run(sc, cfg);
  const trace::CriticalPath cp = trace::critical_path(m);
  const std::vector<trace::RankStats> ranks = trace::rank_breakdown(m, cp);
  ASSERT_FALSE(ranks.empty());
  std::int64_t crit_work = 0;
  for (const trace::RankStats& r : ranks) {
    EXPECT_GE(r.utilization, 0.0);
    EXPECT_LE(r.utilization, 1.0 + 1e-9);
    crit_work += r.crit_work_us;
  }
  EXPECT_EQ(crit_work, cp.work_us);  // path work fully attributed
}

// ---- zh_perf regression-differ semantics -----------------------------------

obs::JsonValue report_with_times(const std::string& times_body) {
  return obs::parse_json("{\"schema\":\"zh-run-report-v1\",\"times_s\":{" +
                         times_body + "}}");
}

TEST_F(TraceCausalTest, PerfCompareFlagsRegressionBeyondTolerance) {
  perf::PerfOptions opts;  // 10% tolerance, 0.05s floor
  const obs::JsonValue base = report_with_times("\"step4\":1.0");
  const perf::PerfComparison slow = perf::compare_reports(
      base, report_with_times("\"step4\":1.2"), opts);
  EXPECT_EQ(slow.regressions, 1u);
  ASSERT_EQ(slow.entries.size(), 1u);
  EXPECT_TRUE(slow.entries[0].regressed);
  EXPECT_NEAR(slow.entries[0].delta_pct, 20.0, 1e-9);

  const perf::PerfComparison ok = perf::compare_reports(
      base, report_with_times("\"step4\":1.05"), opts);
  EXPECT_EQ(ok.regressions, 0u);

  const perf::PerfComparison faster = perf::compare_reports(
      base, report_with_times("\"step4\":0.5"), opts);
  EXPECT_EQ(faster.regressions, 0u);
  EXPECT_LT(faster.entries[0].delta_pct, 0.0);
}

TEST_F(TraceCausalTest, PerfCompareNoiseFloorNeverFails) {
  perf::PerfOptions opts;
  // 4x growth, but both sides under the 0.05s floor: jitter, not signal.
  const perf::PerfComparison cmp = perf::compare_reports(
      report_with_times("\"step2\":0.01"), report_with_times("\"step2\":0.04"),
      opts);
  EXPECT_EQ(cmp.regressions, 0u);
  ASSERT_EQ(cmp.entries.size(), 1u);
  EXPECT_TRUE(cmp.entries[0].below_floor);
  EXPECT_FALSE(cmp.entries[0].regressed);
}

TEST_F(TraceCausalTest, PerfCompareNotesSchemaAndKeyMismatches) {
  perf::PerfOptions opts;
  const obs::JsonValue base =
      report_with_times("\"step0\":1.0,\"step1\":2.0");
  const obs::JsonValue cur = obs::parse_json(
      "{\"schema\":\"wrong\",\"times_s\":{\"step0\":1.0,\"extra\":3.0}}");
  const perf::PerfComparison cmp = perf::compare_reports(base, cur, opts);
  EXPECT_EQ(cmp.regressions, 0u);
  EXPECT_EQ(cmp.entries.size(), 1u);  // only the shared key compares
  // Three notes: bad schema, step1 missing from current, extra missing
  // from baseline.
  EXPECT_EQ(cmp.notes.size(), 3u);
}

TEST_F(TraceCausalTest, PerfCompareCounterDriftIsInformational) {
  perf::PerfOptions opts;
  const obs::JsonValue base = obs::parse_json(
      "{\"schema\":\"zh-run-report-v1\",\"times_s\":{\"step0\":1.0},"
      "\"counters\":{\"pip_edge_tests\":100}}");
  const obs::JsonValue cur = obs::parse_json(
      "{\"schema\":\"zh-run-report-v1\",\"times_s\":{\"step0\":1.0},"
      "\"counters\":{\"pip_edge_tests\":200}}");
  const perf::PerfComparison cmp = perf::compare_reports(base, cur, opts);
  EXPECT_EQ(cmp.regressions, 0u);  // counters never gate
  ASSERT_EQ(cmp.notes.size(), 1u);
  EXPECT_NE(cmp.notes[0].find("pip_edge_tests"), std::string::npos);
}

}  // namespace
}  // namespace zh
