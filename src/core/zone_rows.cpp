#include "core/zone_rows.hpp"

#include <algorithm>

namespace zh {

std::vector<ZoneChunk> plan_zone_chunks(const PolygonTileGroups& groups,
                                        std::size_t workers) {
  // A group holding more than its share of the tiles would run on one
  // thread while the others idle (a whole-raster AOI, a coarse zone):
  // split it into near-equal contiguous chunks of at most `share` tiles.
  const std::uint64_t threads = std::max<std::uint64_t>(1, workers);
  const std::uint64_t share = (groups.pair_count() + threads - 1) / threads;
  std::vector<ZoneChunk> chunks;
  chunks.reserve(groups.group_count());
  for (std::size_t g = 0; g < groups.group_count(); ++g) {
    const PolygonId pid = groups.pid_v[g];
    const std::uint64_t pos = groups.pos_v[g];
    const std::uint64_t num = groups.num_v[g];
    ZH_ASSERT(pos + num <= groups.pair_count(), "group tile slice [", pos,
              ", ", pos + num, ") exceeds pair count ", groups.pair_count());
    if (num <= share) {
      chunks.push_back({pid, true, pos, num});
      continue;
    }
    const std::uint64_t parts = (num + share - 1) / share;
    for (std::uint64_t k = 0; k < parts; ++k) {
      const std::uint64_t begin = num * k / parts;
      const std::uint64_t end = num * (k + 1) / parts;
      chunks.push_back({pid, false, pos + begin, end - begin});
    }
  }
  return chunks;
}

}  // namespace zh
