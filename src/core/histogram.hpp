// Histogram containers and derived zonal statistics.
//
// Per-tile histograms (Step 1 output) and per-zone histograms (the final
// product) are group x bins count matrices, the his_d_raster /
// his_d_polygon arrays of the paper's kernels. A set holds rows for all
// of its groups or for a subset of them: the executor's result holds a
// row only for each zone its Step-2 plan pairs with a tile, since no
// other zone can count a cell, and every reader (the CSV writer, the
// statistics table, the catalog and cluster merges) reads through this
// one type, where an unheld zone reads as zeros. 5000 bins (elevations
// < 5000 m) is the paper's CONUS setting.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/contracts.hpp"
#include "common/error.hpp"
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

/// Rows of `bins` counts for the held groups of a `groups`-group layer
/// (zones or tiles), stored in group order -- the group*bins layout of
/// the kernels' his_d_*[group*hist_size + bin] when every group is held.
/// A dense set holds every group: per-tile tables, the per-cell oracles,
/// the cluster master's merge. An unheld group reads (of) as a zero row;
/// writing one (row) is refused. add, ==, total and the row lookup work
/// across sets that hold different groups.
class HistogramSet {
 public:
  HistogramSet() = default;
  /// A dense set: a zeroed row for every one of `groups` groups.
  HistogramSet(std::size_t groups, BinIndex bins) { reset(groups, bins); }
  /// Zeroed rows for the groups `held` only, which must increase
  /// strictly and lie below `groups`.
  HistogramSet(std::size_t groups, BinIndex bins,
               std::vector<PolygonId> held);

  /// Reshape to a dense groups x bins set and zero all counts, reusing
  /// the existing allocation when capacity allows (the Step-1 ablation
  /// benches pass one per-tile table to repeated tile_histograms_into
  /// calls).
  void reset(std::size_t groups, BinIndex bins);

  [[nodiscard]] std::size_t groups() const { return groups_; }
  [[nodiscard]] BinIndex bins() const { return bins_; }

  /// The held groups, increasing.
  [[nodiscard]] std::span<const PolygonId> held() const { return held_; }
  /// Holds no row (a default-constructed set, or a run that paired no
  /// zone with a tile).
  [[nodiscard]] bool empty() const { return held_.empty(); }

  /// One group's bins; a group the set does not hold reads as zeros.
  [[nodiscard]] std::span<const BinCount> of(std::size_t group) const {
    ZH_REQUIRE(group < groups_, "histogram group out of range");
    const std::size_t row = index_of(group).value_or(held_.size());
    return {counts_.data() + row * static_cast<std::size_t>(bins_), bins_};
  }
  /// One held group's bins, writable; refuses a group the set does not
  /// hold.
  [[nodiscard]] std::span<BinCount> row(std::size_t group) {
    ZH_REQUIRE(group < groups_, "histogram group out of range");
    const std::optional<std::size_t> index = index_of(group);
    ZH_REQUIRE(index.has_value(), "histogram group ", group,
               " is not held: its row cannot be written");
    return {counts_.data() + *index * static_cast<std::size_t>(bins_),
            bins_};
  }

  /// The held rows back to back, in group order.
  [[nodiscard]] std::span<BinCount> flat() {
    return {counts_.data(), held_.size() * bins_};
  }
  [[nodiscard]] std::span<const BinCount> flat() const {
    return {counts_.data(), held_.size() * bins_};
  }

  /// Count sum of one group (== cells attributed to that zone/tile).
  [[nodiscard]] BinCount64 group_total(std::size_t group) const {
    BinCount64 t = 0;
    for (const BinCount c : of(group)) t += c;
    return t;
  }

  /// Count sum over all groups.
  [[nodiscard]] BinCount64 total() const {
    BinCount64 t = 0;
    for (const BinCount c : flat()) t += c;
    return t;
  }

  /// Group-wise accumulate (the catalog and cluster merges). A group
  /// `other` holds and this set does not becomes held here: the sum
  /// holds the union of both sets' groups.
  void add(const HistogramSet& other);

  /// Equal shape and equal counts in every group, held or not.
  bool operator==(const HistogramSet& other) const;

 private:
  /// The row index of `group` (< groups_), or nullopt when it is not
  /// held.
  [[nodiscard]] std::optional<std::size_t> index_of(std::size_t group) const;
  /// Size counts_ to `rows` zeroed rows of bins_ counts.
  void zero_rows(std::size_t rows);

  std::size_t groups_ = 0;
  BinIndex bins_ = 0;
  std::vector<PolygonId> held_;
  /// One row per held group, then -- unless every group is held -- one
  /// zero row, which an unheld group reads.
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
