// Multi-node zonal histogramming (Sec. IV.C: Titan cluster runs).
//
// Partitions a multi-raster dataset per its Table-1 partition schemas,
// assigns partitions to ranks, runs the full pipeline per partition on
// each rank, and sum-reduces per-polygon histograms at the master rank
// (polygons can span partitions, so the merge is additive). A partition's
// result message carries only the zones its plan pairs, keyed by zone
// id; the master adds them into its all-zones table. The reported
// wall time is the maximum across ranks including the MPI communication
// -- the paper's measurement convention.
//
// Every run is one supervised master-worker dispatch; round-robin owners
// are the paper's static assignment. Workers stream one result message
// per partition and the master accepts each partition exactly once
// (first copy wins). A rank is dead only when its thread exits, which the
// runtime reports (Communicator::rank_dead); a slow or silent worker is
// never declared dead. A crashed rank has its unfinished partitions
// reassigned to surviving workers (LPT order) or computed by the master
// itself, so every partition completes and the merged histograms stay
// bit-identical to the fault-free run (invariant 6 extended). The
// master (rank 0) is the single point of failure, like the paper's MPI
// master: crash checkpoints never fire on it. Whole-process death
// (including the master's) is mitigated by the durable checkpoint
// journal: with ClusterRunConfig::checkpoint wired, every accepted
// partition is journaled before acknowledgement and a restarted run
// resumes from the journal, recomputing only the remainder (bit-identical
// merge; DESIGN.md section 5d).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "cluster/comm.hpp"
#include "cluster/partition.hpp"
#include "core/checkpoint.hpp"
#include "core/pipeline.hpp"

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
  /// Scripted failures (message delays, a rank crash, a process abort)
  /// for tests. run_cluster_zonal refuses a crash or an abort that can
  /// never fire (see require_faults_can_fire).
  FaultPlan faults;
};

struct ClusterRunConfig {
  std::size_t ranks = 1;
  ZonalConfig zonal;
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
};

/// Per-rank accounting of a run.
struct RankOutcome {
  RankState state = RankState::kCompleted;
  std::uint32_t partitions_completed = 0;  ///< results the master accepted
  std::uint32_t partitions_reassigned = 0;  ///< taken away after death

  bool operator==(const RankOutcome&) const = default;
};

/// Per-rank observability metrics, written by each rank into the result
/// once it has passed its last crash checkpoint. A rank that dies before
/// then leaves its row defaulted (reported == 0).
struct RankMetricsRow {
  std::uint64_t partitions_processed = 0;
  /// Always 0: receives wait once, to their deadline. Kept until the
  /// replay that reads it goes (ROADMAP item 9); no report column shows it.
  std::uint64_t retries = 0;
  std::uint64_t comm_bytes_sent = 0;
  std::uint64_t cells_total = 0;  ///< input cells of the rank's partitions
  std::uint64_t pip_cell_tests = 0;
  std::uint64_t latency_us_sum = 0;  ///< summed per-partition wall micros
  std::uint64_t latency_us_max = 0;  ///< slowest partition in micros
  std::uint64_t reported = 0;       ///< 1 when the rank wrote its row

  bool operator==(const RankMetricsRow&) const = default;
};

/// Column labels of RankMetricsRow in field order (report tables).
[[nodiscard]] std::vector<std::string> rank_metrics_columns();

/// Flatten one row into the order of rank_metrics_columns().
[[nodiscard]] std::vector<std::uint64_t> rank_metrics_values(
    const RankMetricsRow& row);

struct ClusterRunResult {
  HistogramSet merged;  ///< per-polygon histograms of every zone (master)
  std::vector<StepTimes> per_rank;    ///< per-rank step breakdowns
  /// Work each rank did, recomputed or unaccepted partitions included
  /// (load balance).
  std::vector<WorkCounters> per_rank_work;
  std::vector<double> rank_seconds;   ///< per-rank wall times (incl. comm)
  double wall_seconds = 0.0;          ///< max over ranks
  std::uint64_t comm_bytes = 0;       ///< total bytes sent
  /// The work of the partitions this run accepted, once each (the copy
  /// the master accepted). Partitions skipped on resume are in `merged`
  /// and `partitions_skipped`, not here.
  WorkCounters work;
  std::vector<RankOutcome> rank_outcomes;  ///< per-rank fate
  std::vector<RankMetricsRow> rank_metrics;  ///< per-rank metrics
  /// Always false: the master computes what no live worker can, so every
  /// partition completes. Kept because perfbench/driver.cpp reads it.
  bool degraded = false;
  /// Partitions marked done from checkpoint.completed_partitions and
  /// never recomputed this run (resume accounting).
  std::uint64_t partitions_skipped = 0;
};

/// One partition's result as a worker sends it to the master.
struct PartitionResult {
  std::uint32_t part_index = 0;
  HistogramSet per_polygon;  ///< the zones the partition's plan paired
  WorkCounters work;
};

/// The result message of partition `part_index`: the index, the count of
/// zones `r.per_polygon` holds, their ids and rows, and `r.work`.
[[nodiscard]] std::vector<std::byte> encode_partition_result(
    std::uint32_t part_index, const ZonalResult& r);

/// Parse a result message rank `src` sent in a run of `partitions`
/// partitions over a `zones`-zone layer of `bins` bins. Throws IoError,
/// naming `src`, when the payload's length disagrees with its held count,
/// its zone ids do not increase strictly, or a zone id or the partition
/// index is out of range.
[[nodiscard]] PartitionResult decode_partition_result(
    std::span<const std::byte> payload, RankId src, std::size_t partitions,
    std::size_t zones, BinIndex bins);

/// Throw InvalidArgument for a scripted crash or abort in `faults` that
/// can never fire in a run of `ranks` ranks, with (`journaled`) or
/// without a checkpoint journal. run_cluster_zonal checks its config with
/// it; a caller can check before it reads any input.
void require_faults_can_fire(const FaultPlan& faults, std::size_t ranks,
                             bool journaled);

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
