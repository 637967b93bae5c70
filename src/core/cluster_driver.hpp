// Multi-node zonal histogramming (Sec. IV.C: Titan cluster runs).
//
// Partitions a multi-raster dataset per its Table-1 partition schemas,
// assigns partitions to ranks, runs the full pipeline per partition on
// each rank, and sum-reduces per-polygon histograms at the master rank
// (polygons can span partitions, so the merge is additive). The reported
// wall time is the maximum across ranks including the MPI communication
// -- the paper's measurement convention.
//
// Every run is one supervised master-worker dispatch; round-robin owners
// are the paper's static assignment. Workers stream one result message
// per partition and the master accepts each partition exactly once
// (first copy wins) while it supervises them (heartbeats + timeouts). A
// rank that crashes or goes silent has its unfinished partitions
// reassigned to surviving workers (LPT order) or computed by the master
// itself, so the merged histograms stay bit-identical to the fault-free
// run (invariant 6 extended) whenever every partition completes; a
// `degraded` flag plus coverage list is returned when it does not. The
// master (rank 0) is the single point of failure, like the paper's MPI
// master: crash checkpoints never fire on it. Whole-process death
// (including the master's) is mitigated by the durable checkpoint
// journal: with ClusterRunConfig::checkpoint wired, every accepted
// partition is journaled before acknowledgement and a restarted run
// resumes from the journal, recomputing only the remainder (bit-identical
// merge; DESIGN.md section 5d).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/comm.hpp"
#include "cluster/partition.hpp"
#include "core/checkpoint.hpp"
#include "core/pipeline.hpp"
#include "device/device.hpp"

namespace zh {

/// How partitions map to ranks. kRoundRobin is the paper's setup (whose
/// edge-tile imbalance it reports); kCostBalanced is the future-work
/// improvement (core/load_balance.hpp).
enum class PartitionAssignment : std::uint8_t {
  kRoundRobin,
  kCostBalanced,
};

/// Supervision knobs of the master-worker dispatch.
struct FaultToleranceConfig {
  bool enabled = false;  ///< read by nothing; perfbench/driver.cpp sets it
  /// A worker silent for longer than this is declared dead and its
  /// unfinished partitions reassigned. Must exceed the slowest
  /// partition's compute time (workers heartbeat once per partition).
  std::int64_t worker_timeout_ms = 2000;
  /// The master computes partitions no surviving worker can take. Off,
  /// such partitions are reported as incomplete (degraded result) --
  /// mainly a hook for exercising the degraded path in tests.
  bool master_takeover = true;
  /// Point-to-point retry/backoff for protocol messages.
  RetryPolicy retry;
  /// Scripted failures (message faults + rank crashes) for tests/benches.
  FaultPlan faults;
};

struct ClusterRunConfig {
  std::size_t ranks = 1;
  ZonalConfig zonal;
  DeviceProfile device_profile = DeviceProfile::k20();
  PartitionAssignment assignment = PartitionAssignment::kRoundRobin;
  FaultToleranceConfig fault_tolerance;
  /// Durable checkpoint/resume wiring (journal-before-acknowledge +
  /// already-completed partitions). See src/core/checkpoint.hpp and
  /// DESIGN.md section 5d.
  CheckpointConfig checkpoint;
};

/// How a rank ended the run.
enum class RankState : std::uint8_t {
  kCompleted = 0,  ///< finished normally
  kCrashed,        ///< died at a scripted crash checkpoint
  kTimedOut,       ///< declared dead after heartbeat silence (straggler)
};

/// Per-rank accounting of a run.
struct RankOutcome {
  RankState state = RankState::kCompleted;
  std::uint32_t partitions_completed = 0;  ///< results the master accepted
  std::uint32_t partitions_reassigned = 0;  ///< taken away after death
  std::uint64_t heartbeats = 0;  ///< progress messages the master saw

  bool operator==(const RankOutcome&) const = default;
};

/// Per-rank observability metrics, serialized by each rank at the end of
/// its run and gathered at the master next to the outcome table. All-u64
/// and trivially copyable so it travels over the typed send/recv layer
/// unchanged. A rank that dies before reporting leaves its row defaulted
/// (reported == 0).
struct RankMetricsRow {
  std::uint64_t partitions_processed = 0;
  std::uint64_t heartbeats_sent = 0;
  std::uint64_t results_sent = 0;
  std::uint64_t retries = 0;          ///< recv backoff re-attempts
  std::uint64_t comm_bytes_sent = 0;  ///< excludes this row's own message
  std::uint64_t cells_total = 0;  ///< input cells of the rank's partitions
  std::uint64_t pip_cell_tests = 0;
  std::uint64_t latency_us_sum = 0;  ///< summed per-partition wall micros
  std::uint64_t latency_us_max = 0;  ///< slowest partition in micros
  std::uint64_t reported = 0;       ///< 1 when the row arrived from the rank

  bool operator==(const RankMetricsRow&) const = default;
};

/// Column labels of RankMetricsRow in field order (report tables).
[[nodiscard]] std::vector<std::string> rank_metrics_columns();

/// Flatten one row into the order of rank_metrics_columns().
[[nodiscard]] std::vector<std::uint64_t> rank_metrics_values(
    const RankMetricsRow& row);

struct ClusterRunResult {
  HistogramSet merged;                ///< per-polygon histograms (master)
  std::vector<StepTimes> per_rank;    ///< per-rank step breakdowns
  std::vector<WorkCounters> per_rank_work;  ///< per-rank work (load balance)
  std::vector<double> rank_seconds;   ///< per-rank wall times (incl. comm)
  double wall_seconds = 0.0;          ///< max over ranks
  std::uint64_t comm_bytes = 0;       ///< total bytes sent
  WorkCounters work;                  ///< summed over partitions
  std::vector<RankOutcome> rank_outcomes;  ///< per-rank fate
  std::vector<RankMetricsRow> rank_metrics;  ///< per-rank metrics
  /// True when some partitions never completed (their contribution is
  /// missing from `merged`); the indices are listed for coverage reports.
  bool degraded = false;
  std::vector<std::uint32_t> incomplete_partitions;
  /// Partitions marked done from checkpoint.completed_partitions and
  /// never recomputed this run (resume accounting).
  std::uint64_t partitions_skipped = 0;
};

/// Partition each raster of `rasters` with the matching schema in
/// `schemas` (part_rows x part_cols pairs), then run the cluster job.
/// `rasters[i]` must already carry its georeferencing. All ranks share
/// the polygon layer, as in the paper (the county layer is tiny next to
/// the rasters).
[[nodiscard]] ClusterRunResult run_cluster_zonal(
    const std::vector<DemRaster>& rasters,
    const std::vector<std::pair<int, int>>& schemas,
    const PolygonSet& polygons, const ClusterRunConfig& config);

}  // namespace zh
