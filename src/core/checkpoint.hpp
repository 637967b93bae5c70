// Checkpoint/resume contract between the cluster driver and a durable
// journal. The layering DAG forbids core from including io, so the driver
// only sees this abstract sink; the crash-consistent file implementation
// (JournalWriter, src/io/journal.hpp) lives one layer up and is wired in
// by the caller (zhist, tests). DESIGN.md section 5d documents the
// durability semantics.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.hpp"

namespace zh {

/// Durable sink the master notifies as it accepts partition results.
class CheckpointSink {
 public:
  CheckpointSink() = default;
  CheckpointSink(const CheckpointSink&) = delete;
  CheckpointSink& operator=(const CheckpointSink&) = delete;
  CheckpointSink(CheckpointSink&&) = default;
  CheckpointSink& operator=(CheckpointSink&&) = default;
  virtual ~CheckpointSink() = default;

  /// Called on the master thread immediately after the first-copy-wins
  /// acceptance of partition `part_index`, before the master acts on the
  /// completion (journal-before-acknowledge). `bins` is the partition's
  /// flat per-polygon histogram (groups x bins). Implementations must
  /// make the record durable before returning, subject to their fsync
  /// batching policy; a throw fails the run.
  virtual void on_partition_complete(std::uint32_t part_index,
                                     std::span<const BinCount> bins) = 0;
};

/// Checkpoint wiring + resume state for run_cluster_zonal: the master
/// journals each partition it accepts and skips the ones already done.
struct CheckpointConfig {
  /// Not owned; must outlive the run. Null disables journaling (a
  /// resume-only final run that starts with every partition completed
  /// needs no sink).
  CheckpointSink* sink = nullptr;
  /// Partition indices a previous generation already journaled; the
  /// driver marks them complete up front and dispatches only the rest.
  std::vector<std::uint32_t> completed_partitions;
  /// Flat per-polygon histogram (groups x bins) merged over
  /// completed_partitions, preloaded into the final merge so the result
  /// stays bit-identical to an uninterrupted run. Must be empty when
  /// completed_partitions is empty.
  std::vector<BinCount> resume_bins;
};

}  // namespace zh
