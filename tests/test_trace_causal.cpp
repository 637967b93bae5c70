// Cross-rank causal tracing: flow-graph validity of merged cluster
// traces under fault plans (crash mid-step, delayed messages), comm
// counters that read the same traced and untraced, critical-path tiling
// invariants, and the zh_perf regression-differ semantics.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "cluster/fault.hpp"
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
  // An "f" whose "s" was never recorded: the corruption the validator
  // exists to catch (a rank's events went missing).
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
  cfg.fault_tolerance.faults.crash = {1, CrashPoint::kPartitionDone, 0};
  expect_valid_merged_trace(traced_run(sc, cfg));
}

TEST_F(TraceCausalTest, MergedTraceValidUnderDropStorm) {
  // Held-back messages: every flow edge still resolves, and the critical
  // path still tiles the wall clock across the waits.
  const Scenario sc;
  ClusterRunConfig cfg = sc.config(4);
  cfg.fault_tolerance.faults =
      FaultPlan::parse("seed=9,delay=0.5,delay_ms=3");
  expect_valid_merged_trace(traced_run(sc, cfg));
}

TEST_F(TraceCausalTest, TracingLeavesCommCountersUnchanged) {
  // Each counter has one meaning: tracing adds no messages, so the bytes
  // every rank sends, and what they merge to, match the untraced run.
  const Scenario sc;
  ClusterRunConfig cfg = sc.config(4);
  const ClusterRunResult plain =
      run_cluster_zonal(sc.rasters, sc.schemas, sc.zones, cfg);
  obs::set_trace_enabled(true);
  const ClusterRunResult traced =
      run_cluster_zonal(sc.rasters, sc.schemas, sc.zones, cfg);
  obs::set_trace_enabled(false);

  EXPECT_EQ(traced.comm_bytes, plain.comm_bytes);
  ASSERT_EQ(traced.rank_metrics.size(), plain.rank_metrics.size());
  for (std::size_t r = 0; r < plain.rank_metrics.size(); ++r) {
    EXPECT_EQ(traced.rank_metrics[r].comm_bytes_sent,
              plain.rank_metrics[r].comm_bytes_sent)
        << "rank " << r;
  }
  EXPECT_EQ(traced.merged, plain.merged);
}

TEST_F(TraceCausalTest, RankBreakdownCoversClusterRanks) {
  const Scenario sc;
  ClusterRunConfig cfg = sc.config(3);
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
