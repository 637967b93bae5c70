// Cost-model-driven partition assignment (the paper's future work).
//
// Sec. IV.C observes that edge-of-coverage partitions (e.g. southern
// Florida) have many tiles outside every polygon, so their Step-4 work is
// far lighter, and round-robin assignment leaves nodes unevenly loaded as
// the node count grows. This module estimates each partition's cost from
// a cheap exact pre-pass -- the Step-2 pairing runs on tile *boxes* and
// is independent of raster resolution -- and assigns partitions to ranks
// with the classic LPT (longest-processing-time-first) greedy, which is a
// 4/3-approximation of the optimal makespan.
#pragma once

#include <vector>

#include "cluster/partition.hpp"
#include "geom/polygon.hpp"
#include "grid/geotransform.hpp"

namespace zh {

/// Estimated cost of each partition: runs the Step-2 pairing over the
/// partition's tile grid (exact, cheap -- no cell data touched) and
/// charges 1 per raster cell (Steps 0-1) plus 0.09 per projected PIP
/// edge test (Step 4), the PerfModel rate ratio between the two.
[[nodiscard]] std::vector<double> estimate_partition_costs(
    const std::vector<RasterPartition>& parts,
    const std::vector<GeoTransform>& raster_transforms,
    std::int64_t tile_size, const PolygonSet& polygons);

/// LPT greedy: sort partitions by cost descending, place each on the
/// currently least-loaded rank. Mutates owners. Costs must be finite
/// and non-negative (NaN makes load comparisons unordered; negative
/// work is meaningless) -- violations throw InvalidArgument.
void assign_least_loaded(std::vector<RasterPartition>& parts,
                         std::size_t ranks,
                         const std::vector<double>& costs);

/// Makespan ratio of an assignment: max rank load / mean rank load
/// (1.0 = perfectly balanced). Diagnostic for the Fig.-6 tail.
/// Edge cases are defined: an all-zero cost vector returns exactly 1.0
/// (nothing to balance), and with ranks > partitions the ratio bottoms
/// out at ranks / partitions because the spare ranks sit idle. Costs
/// must be finite and non-negative, and every partition's owner must be
/// < ranks -- violations throw InvalidArgument.
[[nodiscard]] double assignment_imbalance(
    const std::vector<RasterPartition>& parts, std::size_t ranks,
    const std::vector<double>& costs);

}  // namespace zh
