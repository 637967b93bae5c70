#include "core/histogram.hpp"

#include <cmath>
#include <cstdlib>

#include "common/contracts.hpp"

namespace zh {

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
