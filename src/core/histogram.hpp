// Histogram containers and derived zonal statistics.
//
// Both per-tile histograms (Step 1 output) and per-polygon histograms
// (the final product) are dense group x bins count matrices, exactly the
// his_d_raster / his_d_polygon arrays of the paper's kernels. 5000 bins
// (elevations < 5000 m) is the paper's CONUS setting.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/contracts.hpp"
#include "common/error.hpp"
#include "common/memory.hpp"
#include "common/types.hpp"

namespace zh {

/// Map a cell value to its histogram bin: values >= bins fold into the
/// top bin (the paper's "elevations < 5000 m" convention keeps the fold
/// rare but it must stay well-defined). Single source of truth for every
/// binning site -- Step 1, Step 4, baselines and lazy paths.
[[nodiscard]] constexpr BinIndex bin_index(CellValue v, BinIndex bins) {
  return v < bins ? static_cast<BinIndex>(v) : bins - 1;
}

/// bin_index that also counts folded (out-of-range) values into
/// `clamped`, so silent folding becomes WorkCounters::values_clamped.
/// The unit is one clamped (cell, zone) attribution -- the unit of
/// cells_in_polygons and of the per-cell oracle: a cell inside two zones
/// counts twice, a cell in no zone not at all. So only the executor's
/// kernels that attribute cells to zones (the inside count and Step 4)
/// tally; per-tile tables attribute nothing.
[[nodiscard]] inline BinIndex bin_index(CellValue v, BinIndex bins,
                                        std::uint64_t& clamped) {
  if (v >= bins) ++clamped;
  return bin_index(v, bins);
}

class HistogramSet {
 public:
  HistogramSet() = default;
  HistogramSet(std::size_t groups, BinIndex bins) { reset(groups, bins); }

  /// Reshape to groups x bins and zero all counts, reusing the existing
  /// allocation when capacity allows (the Step-1 ablation benches pass
  /// one per-tile table to repeated tile_histograms_into calls).
  void reset(std::size_t groups, BinIndex bins) {
    ZH_REQUIRE(bins > 0, "histograms need at least one bin");
    groups_ = groups;
    bins_ = bins;
    const std::size_t n = groups * static_cast<std::size_t>(bins);
    ZH_ASSERT(groups == 0 || n / groups == bins,
              "histogram table size overflows size_t: ", groups,
              " groups x ", bins, " bins");
    if (counts_.capacity() < n) {
      // Growing must not copy the old counts across. Reserve first and
      // hint huge pages before the zero-fill touches the pages:
      // CONUS-scale per-tile tables run to gigabytes and 4 KiB faulting
      // them is slow on virtualized hosts.
      counts_.clear();
      counts_.reserve(n);
      if (n * sizeof(BinCount) >= kHugePageHintBytes) {
        hint_huge_pages(counts_.data(), n * sizeof(BinCount));
      }
    }
    counts_.assign(n, 0);
  }

  [[nodiscard]] std::size_t groups() const { return groups_; }
  [[nodiscard]] BinIndex bins() const { return bins_; }
  [[nodiscard]] bool empty() const { return counts_.empty(); }

  /// One group's bins as a contiguous span (group*bins layout, matching
  /// the his_d_*[group*hist_size + bin] indexing of the kernels).
  [[nodiscard]] std::span<BinCount> of(std::size_t group) {
    ZH_REQUIRE(group < groups_, "histogram group out of range");
    return {counts_.data() + group * bins_, bins_};
  }
  [[nodiscard]] std::span<const BinCount> of(std::size_t group) const {
    ZH_REQUIRE(group < groups_, "histogram group out of range");
    return {counts_.data() + group * bins_, bins_};
  }

  [[nodiscard]] std::span<BinCount> flat() { return counts_; }
  [[nodiscard]] std::span<const BinCount> flat() const { return counts_; }

  /// Count sum of one group (== cells attributed to that zone/tile).
  [[nodiscard]] BinCount64 group_total(std::size_t group) const {
    BinCount64 t = 0;
    for (const BinCount c : of(group)) t += c;
    return t;
  }

  /// Count sum over all groups.
  [[nodiscard]] BinCount64 total() const {
    BinCount64 t = 0;
    for (const BinCount c : counts_) t += c;
    return t;
  }

  /// Element-wise accumulate (the master-side cluster merge).
  void add(const HistogramSet& other) {
    ZH_REQUIRE(other.groups_ == groups_ && other.bins_ == bins_,
               "histogram shape mismatch in add");
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      counts_[i] += other.counts_[i];
    }
  }

  bool operator==(const HistogramSet&) const = default;

 private:
  std::size_t groups_ = 0;
  BinIndex bins_ = 0;
  std::vector<BinCount> counts_;
};

/// The classic zonal-statistics row (min/max/mean/std/count), derivable
/// from a zone histogram -- the paper frames Zonal Histogramming as the
/// generalization of this traditional GIS table.
struct ZonalStats {
  BinCount64 count = 0;
  BinIndex min = 0;       ///< lowest non-empty bin (0 if count == 0)
  BinIndex max = 0;       ///< highest non-empty bin
  double mean = 0.0;
  double stddev = 0.0;    ///< population standard deviation
};

/// Compute ZonalStats from one histogram, interpreting bin index as the
/// cell value.
[[nodiscard]] ZonalStats stats_from_histogram(std::span<const BinCount> h);

/// L1 distance between two zone histograms -- the distance-measure use
/// case the paper's introduction motivates (histograms as feature
/// vectors for clustering).
[[nodiscard]] std::uint64_t histogram_l1_distance(
    std::span<const BinCount> a, std::span<const BinCount> b);

}  // namespace zh
