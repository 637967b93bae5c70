#include "quadtree/region_quadtree.hpp"

#include <algorithm>
#include <bit>

#include "core/histogram.hpp"
#include "device/thread_pool.hpp"

namespace zh {

namespace {

/// Per-level cell state during the bottom-up sweep.
struct LevelCell {
  CellValue value = 0;
  std::uint8_t kind = 0;  // matches RegionQuadtree::{kInternal,...}
};

constexpr std::uint8_t kInternal = 0;
constexpr std::uint8_t kLeaf = 1;
constexpr std::uint8_t kOutside = 2;

/// Merge four child states into a parent state. Outside children are
/// wildcards: they never block a merge; a parent is uniform if all
/// non-outside children agree on one value.
LevelCell merge4(const LevelCell& a, const LevelCell& b,
                 const LevelCell& c, const LevelCell& d) {
  const LevelCell* kids[4] = {&a, &b, &c, &d};
  bool any_mixed = false;
  bool have_value = false;
  bool conflict = false;
  CellValue value = 0;
  for (const LevelCell* k : kids) {
    if (k->kind == kInternal) {
      any_mixed = true;
    } else if (k->kind == kLeaf) {
      if (!have_value) {
        have_value = true;
        value = k->value;
      } else if (k->value != value) {
        conflict = true;
      }
    }
  }
  if (any_mixed || conflict) return {0, kInternal};
  if (!have_value) return {0, kOutside};
  return {value, kLeaf};
}

}  // namespace

RegionQuadtree RegionQuadtree::build(const Raster<CellValue>& raster) {
  RegionQuadtree tree;
  tree.rows_ = raster.rows();
  tree.cols_ = raster.cols();
  const std::int64_t longest = std::max<std::int64_t>(
      1, std::max(raster.rows(), raster.cols()));
  tree.extent_ = static_cast<std::int64_t>(
      std::bit_ceil(static_cast<std::uint64_t>(longest)));

  // Bottom-up level sweep. levels[0] = finest (cell) level at edge
  // `extent_`; levels[k] has edge extent_ >> k; the last level is 1x1.
  std::vector<std::vector<LevelCell>> levels;
  {
    const std::int64_t s = tree.extent_;
    std::vector<LevelCell> base(static_cast<std::size_t>(s) * s);
    ThreadPool::global().parallel_for(
        static_cast<std::size_t>(s), [&](std::size_t rb, std::size_t re) {
          for (std::size_t r = rb; r < re; ++r) {
            for (std::int64_t c = 0; c < s; ++c) {
              LevelCell& cell = base[r * static_cast<std::size_t>(s) +
                                     static_cast<std::size_t>(c)];
              if (static_cast<std::int64_t>(r) < raster.rows() &&
                  c < raster.cols()) {
                cell = {raster.at(static_cast<std::int64_t>(r), c), kLeaf};
              } else {
                cell = {0, kOutside};
              }
            }
          }
        });
    levels.push_back(std::move(base));
  }
  while ((tree.extent_ >> (levels.size() - 1)) > 1) {
    const std::vector<LevelCell>& prev = levels.back();
    const std::int64_t ps = tree.extent_ >> (levels.size() - 1);
    const std::int64_t s = ps / 2;
    std::vector<LevelCell> next(static_cast<std::size_t>(s) * s);
    ThreadPool::global().parallel_for(
        static_cast<std::size_t>(s), [&](std::size_t rb, std::size_t re) {
          for (std::size_t r = rb; r < re; ++r) {
            for (std::int64_t c = 0; c < s; ++c) {
              const std::size_t pr = 2 * r;
              const std::size_t pc = static_cast<std::size_t>(2 * c);
              const auto at = [&](std::size_t rr, std::size_t cc)
                  -> const LevelCell& {
                return prev[rr * static_cast<std::size_t>(ps) + cc];
              };
              next[r * static_cast<std::size_t>(s) +
                   static_cast<std::size_t>(c)] =
                  merge4(at(pr, pc), at(pr, pc + 1), at(pr + 1, pc),
                         at(pr + 1, pc + 1));
            }
          }
        });
    levels.push_back(std::move(next));
  }

  // Emit the node array top-down (root = coarsest level's single cell).
  // Iterative worklist keeps this O(nodes) without recursion depth
  // concerns.
  struct Pending {
    std::size_t level;   // index into `levels` (0 = finest)
    std::size_t r, c;    // cell within that level
    std::uint32_t node;  // where to write it
  };
  tree.nodes_.clear();
  tree.nodes_.push_back(Node{});
  std::vector<Pending> work;
  work.push_back({levels.size() - 1, 0, 0, 0});
  int max_depth = 0;
  while (!work.empty()) {
    const Pending p = work.back();
    work.pop_back();
    const std::size_t edge_cells =
        static_cast<std::size_t>(tree.extent_ >> p.level);
    const LevelCell& cell =
        levels[p.level][p.r * edge_cells + p.c];
    Node& node = tree.nodes_[p.node];
    node.value = cell.value;
    node.kind = cell.kind;
    max_depth = std::max(
        max_depth, static_cast<int>(levels.size() - 1 - p.level));
    if (cell.kind == kLeaf) ++tree.leaf_count_;
    if (cell.kind != kInternal) continue;
    ZH_REQUIRE(p.level > 0, "finest level cannot be internal");
    const auto child = static_cast<std::uint32_t>(tree.nodes_.size());
    tree.nodes_[p.node].child = child;
    tree.nodes_.resize(tree.nodes_.size() + 4);
    const std::size_t cl = p.level - 1;
    // Child order: NW, NE, SW, SE.
    work.push_back({cl, 2 * p.r, 2 * p.c, child});
    work.push_back({cl, 2 * p.r, 2 * p.c + 1, child + 1});
    work.push_back({cl, 2 * p.r + 1, 2 * p.c, child + 2});
    work.push_back({cl, 2 * p.r + 1, 2 * p.c + 1, child + 3});
  }
  tree.height_ = max_depth;
  return tree;
}

CellValue RegionQuadtree::value_at(std::int64_t row,
                                   std::int64_t col) const {
  ZH_REQUIRE(row >= 0 && row < rows_ && col >= 0 && col < cols_,
             "cell out of range");
  std::uint32_t node = 0;
  std::int64_t edge = extent_;
  std::int64_t r0 = 0;
  std::int64_t c0 = 0;
  while (nodes_[node].kind == kInternal) {
    edge /= 2;
    const bool south = row >= r0 + edge;
    const bool east = col >= c0 + edge;
    node = nodes_[node].child +
           (south ? 2u : 0u) + (east ? 1u : 0u);
    if (south) r0 += edge;
    if (east) c0 += edge;
  }
  ZH_REQUIRE(nodes_[node].kind == kLeaf,
             "in-range cell resolved to padding");
  return nodes_[node].value;
}

template <typename Visit>
void RegionQuadtree::visit_window(std::uint32_t node, std::int64_t r0,
                                  std::int64_t c0, std::int64_t edge,
                                  const CellWindow& w,
                                  Visit&& visit) const {
  // Clip the node's quadrant against the window and the real raster.
  const std::int64_t rr0 = std::max({r0, w.row0, std::int64_t{0}});
  const std::int64_t cc0 = std::max({c0, w.col0, std::int64_t{0}});
  const std::int64_t rr1 = std::min({r0 + edge, w.row0 + w.rows, rows_});
  const std::int64_t cc1 = std::min({c0 + edge, w.col0 + w.cols, cols_});
  if (rr0 >= rr1 || cc0 >= cc1) return;

  const Node& n = nodes_[node];
  if (n.kind == kOutside) return;
  if (n.kind == kLeaf) {
    visit(n.value, (rr1 - rr0) * (cc1 - cc0));
    return;
  }
  const std::int64_t half = edge / 2;
  visit_window(n.child + 0, r0, c0, half, w, visit);
  visit_window(n.child + 1, r0, c0 + half, half, w, visit);
  visit_window(n.child + 2, r0 + half, c0, half, w, visit);
  visit_window(n.child + 3, r0 + half, c0 + half, half, w, visit);
}

std::optional<CellValue> RegionQuadtree::uniform_value(
    const CellWindow& w) const {
  ZH_REQUIRE(w.row0 >= 0 && w.col0 >= 0 && w.row0 + w.rows <= rows_ &&
                 w.col0 + w.cols <= cols_ && w.rows > 0 && w.cols > 0,
             "window out of raster bounds");
  bool have = false;
  bool conflict = false;
  CellValue value = 0;
  visit_window(0, 0, 0, extent_, w,
               [&](CellValue v, std::int64_t) {
                 if (!have) {
                   have = true;
                   value = v;
                 } else if (v != value) {
                   conflict = true;
                 }
               });
  if (!have || conflict) return std::nullopt;
  return value;
}

void RegionQuadtree::add_window_histogram(const CellWindow& w,
                                          std::span<BinCount> hist) const {
  ZH_REQUIRE(!hist.empty(), "histogram needs at least one bin");
  const BinIndex bins = static_cast<BinIndex>(hist.size());
  // Clamps are not reported: a window histogram attributes no cell to a
  // zone (see note_values_clamped).
  visit_window(0, 0, 0, extent_, w, [&](CellValue v, std::int64_t area) {
    hist[bin_index(v, bins)] += static_cast<BinCount>(area);
  });
}

Raster<CellValue> RegionQuadtree::to_raster() const {
  Raster<CellValue> out(rows_, cols_);
  // Walk with explicit rectangles (visit_window only exposes areas).
  std::vector<std::tuple<std::uint32_t, std::int64_t, std::int64_t,
                         std::int64_t>>
      stack;
  stack.emplace_back(0, 0, 0, extent_);
  while (!stack.empty()) {
    auto [node, r0, c0, edge] = stack.back();
    stack.pop_back();
    const Node& n = nodes_[node];
    if (n.kind == kOutside) continue;
    if (n.kind == kLeaf) {
      const std::int64_t r1 = std::min(r0 + edge, rows_);
      const std::int64_t c1 = std::min(c0 + edge, cols_);
      for (std::int64_t r = r0; r < r1; ++r) {
        for (std::int64_t c = c0; c < c1; ++c) out.at(r, c) = n.value;
      }
      continue;
    }
    const std::int64_t half = edge / 2;
    stack.emplace_back(n.child + 0, r0, c0, half);
    stack.emplace_back(n.child + 1, r0, c0 + half, half);
    stack.emplace_back(n.child + 2, r0 + half, c0, half);
    stack.emplace_back(n.child + 3, r0 + half, c0 + half, half);
  }
  return out;
}

}  // namespace zh
