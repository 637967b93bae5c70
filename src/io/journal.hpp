// Crash-consistent run journal for checkpoint/resume (DESIGN.md 5d).
//
// An append-only record log in the v2 container discipline (.zgrid/.bq):
// a fixed header -- magic, version, run manifest, manifest CRC-32 --
// followed by CRC-32-framed records, one per partition the cluster
// master accepted. The manifest fingerprints the inputs (rasters, zone
// layer, result-affecting config) plus the partition schema, so a resume
// against different inputs is refused instead of silently merging
// incompatible histograms.
//
// Durability contract:
//  * the writer appends whole frames and fsyncs each one before
//    on_partition_complete returns, so every acknowledged partition is
//    durable before the master proceeds;
//  * a process death at ANY byte offset leaves a loadable journal: the
//    reader walks frames front to back and truncates at the first torn
//    frame (short, absurd length, or CRC mismatch) -- everything before
//    it is trusted, everything after is discarded (torn-tail rule);
//  * records carry a generation number (0 = first run, +1 per resume);
//    within one generation each partition appears at most once, across
//    generations the first copy wins -- matching the master's
//    first-copy-wins acceptance, so resume merges stay bit-identical.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "cluster/fault.hpp"
#include "core/checkpoint.hpp"
#include "core/cluster_driver.hpp"
#include "grid/raster.hpp"

namespace zh {

/// Identity of one run, stored in the journal header. Two runs may share
/// a journal only when every field matches.
struct RunManifest {
  std::uint64_t raster_fingerprint = 0;
  std::uint64_t zones_fingerprint = 0;
  std::uint64_t config_fingerprint = 0;
  std::uint32_t partition_count = 0;  ///< global partition list length
  std::uint64_t groups = 0;           ///< polygons per histogram set
  std::uint32_t bins = 0;             ///< bins per polygon

  bool operator==(const RunManifest&) const = default;
};

/// Provenance of one journaled record (file order).
struct JournalRecordInfo {
  std::uint32_t generation = 0;
  std::uint32_t part_index = 0;

  bool operator==(const JournalRecordInfo&) const = default;
};

/// Everything load_journal() recovers from a (possibly torn) journal.
struct JournalLoad {
  RunManifest manifest;
  std::vector<JournalRecordInfo> records;  ///< valid records, file order
  /// Unique completed partition indices, first-copy-wins order; feeds
  /// CheckpointConfig::completed_partitions.
  std::vector<std::uint32_t> completed;
  /// Flat per-polygon histogram (groups x bins) merged over `completed`;
  /// feeds CheckpointConfig::resume_bins.
  std::vector<BinCount> merged_bins;
  std::uint32_t last_generation = 0;  ///< 0 when `records` is empty
  std::uint64_t valid_bytes = 0;      ///< file prefix the frames occupy
  std::uint64_t torn_bytes = 0;       ///< tail discarded by the torn rule
  double resume_seconds = 0.0;        ///< wall time of this load
};

/// Read and verify a journal, truncating (in memory) at the first torn
/// frame. Throws IoError when the header itself is unreadable or a
/// CRC-valid record is semantically corrupt (index out of range,
/// duplicate within a generation, non-monotone generation).
[[nodiscard]] JournalLoad load_journal(const std::string& path);

struct JournalWriterOptions {
  /// Scripted process abort (fault injection): at the `occurrence`-th
  /// appended record a CrashPoint::kJournalRecord abort writes only half
  /// the frame and hard-exits, leaving a torn tail for the reader.
  AbortSpec abort;
};

/// Append-only journal writer; the CheckpointSink the cluster driver
/// journals through. Move-only value type owning the file descriptor.
class JournalWriter final : public CheckpointSink {
 public:
  /// Start a fresh journal (generation 0): truncate, write the header,
  /// fsync. The manifest is durable before this returns.
  [[nodiscard]] static JournalWriter create(const std::string& path,
                                            const RunManifest& manifest,
                                            JournalWriterOptions options = {});

  /// Continue a journal a previous generation wrote: drop `load`'s torn
  /// tail from the file (ftruncate to valid_bytes) and append at
  /// generation last_generation + 1 (0 if no records yet). `load` must
  /// come from load_journal() on the same path.
  [[nodiscard]] static JournalWriter append(const std::string& path,
                                            const JournalLoad& load,
                                            JournalWriterOptions options = {});

  JournalWriter(JournalWriter&& other) noexcept;
  JournalWriter& operator=(JournalWriter&& other) noexcept;
  ~JournalWriter() override;

  /// Append one partition record and fsync it (master thread). Throws
  /// InvalidArgument on a duplicate partition within this generation --
  /// the driver's first-copy-wins acceptance makes that a logic error --
  /// and IoError when the write or the fsync fails.
  void on_partition_complete(std::uint32_t part_index,
                             std::span<const BinCount> bins) override;

  /// Every record is already durable when on_partition_complete
  /// returns, so this only checks that the writer is still open.
  void flush();

  [[nodiscard]] std::uint64_t records_written() const {
    return records_written_;
  }
  [[nodiscard]] std::uint32_t generation() const { return generation_; }

 private:
  JournalWriter(int fd, std::string path, const RunManifest& manifest,
                std::uint32_t generation, JournalWriterOptions options);

  int fd_ = -1;
  std::string path_;
  RunManifest manifest_;
  std::uint32_t generation_ = 0;
  JournalWriterOptions options_;
  std::uint64_t records_written_ = 0;
  std::vector<char> written_;  ///< per-partition dedup guard (this gen)
};

/// Order-sensitive fingerprints of the run inputs, chained through
/// splitmix64 over dimensions, georeferencing, nodata, and payload
/// CRC-32s. Any bit difference in the inputs changes the fingerprint
/// with overwhelming probability.
[[nodiscard]] std::uint64_t fingerprint_rasters(
    const std::vector<DemRaster>& rasters);
[[nodiscard]] std::uint64_t fingerprint_zones(const PolygonSet& polygons);
/// Result-affecting configuration only: partition schemas, tile size,
/// bins, count mode. Rank count and refine strategy are excluded -- the
/// pipeline's bit-identity invariants make them resume-safe.
[[nodiscard]] std::uint64_t fingerprint_config(
    const std::vector<std::pair<int, int>>& schemas,
    const ZonalConfig& zonal);

/// Manifest for a run_cluster_zonal invocation; partition_count is
/// derived with the driver's own partitioning, so indices in the journal
/// and the driver's partition list always agree.
[[nodiscard]] RunManifest make_manifest(
    const std::vector<DemRaster>& rasters,
    const std::vector<std::pair<int, int>>& schemas,
    const PolygonSet& polygons, const ClusterRunConfig& config);

/// Refuse a resume against changed inputs: throws IoError naming the
/// first mismatching manifest field.
void require_manifest_match(const RunManifest& on_disk,
                            const RunManifest& expected,
                            const std::string& path);

}  // namespace zh
