#include "core/histogram.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <iterator>
#include <limits>
#include <numeric>
#include <utility>

#include "common/contracts.hpp"
#include "common/memory.hpp"

namespace zh {

void throw_count_overflow(std::size_t zone, BinIndex bin, BinCount64 held,
                          BinCount64 added, std::string_view source) {
  throw OverflowError(detail::format_parts(
      "count overflow: zone ", zone, ", bin ", bin, " holds ", held,
      " and adding ", added, " passes 2^32 - 1",
      source.empty() ? "" : " in ", source));
}

HistogramSet::HistogramSet(std::size_t groups, BinIndex bins,
                           std::vector<PolygonId> held)
    : groups_(groups), bins_(bins), held_(std::move(held)) {
  ZH_REQUIRE(bins > 0, "histograms need at least one bin");
  for (std::size_t i = 0; i < held_.size(); ++i) {
    ZH_REQUIRE(held_[i] < groups, "held group ", held_[i],
               " out of range (", groups, " groups)");
    ZH_REQUIRE(i == 0 || held_[i - 1] < held_[i],
               "held groups must increase strictly");
  }
  zero_rows(held_.size() + (held_.size() < groups ? 1 : 0));
}

void HistogramSet::reset(std::size_t groups, BinIndex bins) {
  ZH_REQUIRE(bins > 0, "histograms need at least one bin");
  groups_ = groups;
  bins_ = bins;
  const std::size_t n = groups * static_cast<std::size_t>(bins);
  ZH_ASSERT(groups == 0 || n / groups == bins,
            "histogram table size overflows size_t: ", groups,
            " groups x ", bins, " bins");
  ZH_REQUIRE(groups <= std::size_t{std::numeric_limits<PolygonId>::max()} + 1,
             "histogram groups exceed the 32-bit group id range: ", groups);
  held_.resize(groups);
  std::iota(held_.begin(), held_.end(), PolygonId{0});
  zero_rows(groups);
}

void HistogramSet::zero_rows(std::size_t rows) {
  const std::size_t n = rows * static_cast<std::size_t>(bins_);
  ZH_ASSERT(rows == 0 || n / rows == bins_,
            "histogram table size overflows size_t: ", rows, " rows x ",
            bins_, " bins");
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

std::optional<std::size_t> HistogramSet::index_of(
    std::size_t group) const {
  if (held_.size() == groups_) return group;  // dense: row == group
  const auto it = std::lower_bound(held_.begin(), held_.end(), group);
  if (it == held_.end() || *it != group) return std::nullopt;
  return static_cast<std::size_t>(it - held_.begin());
}

void HistogramSet::add(const HistogramSet& other) {
  ZH_REQUIRE(other.groups_ == groups_ && other.bins_ == bins_,
             "histogram shape mismatch in add");
  if (!std::includes(held_.begin(), held_.end(), other.held_.begin(),
                     other.held_.end())) {
    std::vector<PolygonId> both;
    both.reserve(held_.size() + other.held_.size());
    std::set_union(held_.begin(), held_.end(), other.held_.begin(),
                   other.held_.end(), std::back_inserter(both));
    HistogramSet grown(groups_, bins_, std::move(both));
    grown.add(*this);
    *this = std::move(grown);
  }
  // Every group of `other` is held here; both lists increase, so one
  // forward walk finds each row.
  const bool dense = held_.size() == groups_;
  std::size_t row = 0;
  for (std::size_t k = 0; k < other.held_.size(); ++k) {
    const PolygonId group = other.held_[k];
    if (dense) {
      row = group;
    } else {
      while (held_[row] != group) ++row;
    }
    BinCount* const dst =
        counts_.data() + row * static_cast<std::size_t>(bins_);
    const BinCount* const src =
        other.counts_.data() + k * static_cast<std::size_t>(bins_);
    // A bin wrapped iff its sum reads below the count added.
    bool wrapped = false;
    for (BinIndex b = 0; b < bins_; ++b) {
      dst[b] += src[b];
      wrapped |= dst[b] < src[b];
    }
    if (wrapped) {
      BinIndex b = 0;
      while (dst[b] >= src[b]) ++b;
      throw_count_overflow(group, b, static_cast<BinCount>(dst[b] - src[b]),
                           src[b]);
    }
  }
}

bool HistogramSet::operator==(const HistogramSet& other) const {
  if (groups_ != other.groups_ || bins_ != other.bins_) return false;
  const auto row = [](const HistogramSet& h, std::size_t k) {
    return std::span<const BinCount>(
        h.counts_.data() + k * static_cast<std::size_t>(h.bins_), h.bins_);
  };
  const auto zero = [](std::span<const BinCount> r) {
    return std::all_of(r.begin(), r.end(), [](BinCount c) { return c == 0; });
  };
  if (held_ == other.held_) {
    return std::equal(counts_.begin(), counts_.end(), other.counts_.begin());
  }
  // Walk the union of the held groups: a group only one side holds must
  // read zero on that side too.
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < held_.size() || j < other.held_.size()) {
    if (j == other.held_.size() ||
        (i < held_.size() && held_[i] < other.held_[j])) {
      if (!zero(row(*this, i++))) return false;
    } else if (i == held_.size() || other.held_[j] < held_[i]) {
      if (!zero(row(other, j++))) return false;
    } else {
      const std::span<const BinCount> a = row(*this, i++);
      const std::span<const BinCount> b = row(other, j++);
      if (!std::equal(a.begin(), a.end(), b.begin())) return false;
    }
  }
  return true;
}

ZonalStats stats_from_histogram(std::span<const BinCount> h) {
  ZonalStats s;
  double sum = 0.0;
  double sum_sq = 0.0;
  bool seen = false;
  for (BinIndex b = 0; b < h.size(); ++b) {
    ZH_DCHECK_BOUNDS(b, h.size());
    const BinCount c = h[b];
    if (c == 0) continue;
    if (!seen) {
      s.min = b;
      seen = true;
    }
    s.max = b;
    s.count += c;
    const double v = static_cast<double>(b);
    sum += v * c;
    sum_sq += v * v * c;
  }
  if (s.count > 0) {
    const double n = static_cast<double>(s.count);
    s.mean = sum / n;
    const double var = std::max(0.0, sum_sq / n - s.mean * s.mean);
    s.stddev = std::sqrt(var);
  }
  // Non-empty histograms must produce an ordered bin range; both indices
  // were read from h so they are < h.size() by construction.
  ZH_ASSERT(s.count == 0 || s.min <= s.max,
            "stats bin range inverted: min=", s.min, " max=", s.max);
  return s;
}

std::uint64_t histogram_l1_distance(std::span<const BinCount> a,
                                    std::span<const BinCount> b) {
  ZH_REQUIRE(a.size() == b.size(), "histogram length mismatch");
  std::uint64_t d = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    d += a[i] > b[i] ? a[i] - b[i] : b[i] - a[i];
  }
  return d;
}

}  // namespace zh
