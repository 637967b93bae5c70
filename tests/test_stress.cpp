// Stress and sweep tests: communicator message storms, thread-pool
// churn and randomized tiling sweeps.
#include <gtest/gtest.h>

#include <numeric>
#include <random>
#include <set>

#include "cluster/comm.hpp"
#include "device/thread_pool.hpp"
#include "grid/tiling.hpp"
#include "test_util.hpp"

namespace zh {
namespace {

TEST(CommStress, ManyInterleavedTags) {
  // Each rank sends 50 messages with distinct tags to every other rank;
  // receivers pull them in reverse tag order, exercising queue search.
  constexpr int kMessages = 50;
  run_cluster(4, {}, [](Communicator& comm) {
    for (RankId dst = 0; dst < comm.size(); ++dst) {
      if (dst == comm.rank()) continue;
      for (int tag = 0; tag < kMessages; ++tag) {
        const std::vector<std::uint32_t> payload = {
            comm.rank() * 1000u + static_cast<std::uint32_t>(tag)};
        comm.send<std::uint32_t>(dst, tag, payload);
      }
    }
    for (RankId src = 0; src < comm.size(); ++src) {
      if (src == comm.rank()) continue;
      for (int tag = kMessages - 1; tag >= 0; --tag) {
        const auto got = test::recv<std::uint32_t>(comm, src, tag);
        ASSERT_EQ(got.size(), 1u);
        ASSERT_EQ(got[0], src * 1000u + static_cast<std::uint32_t>(tag));
      }
    }
  });
}

TEST(CommStress, RingPipeline) {
  // Token circles the ring 20 times, accumulating each rank's id.
  run_cluster(5, {}, [](Communicator& comm) {
    const RankId next = (comm.rank() + 1) % 5;
    const RankId prev = (comm.rank() + 4) % 5;
    std::uint64_t token = 0;
    for (int lap = 0; lap < 20; ++lap) {
      if (comm.rank() == 0) {
        const std::vector<std::uint64_t> out = {token};
        comm.send<std::uint64_t>(next, lap, out);
        token = test::recv<std::uint64_t>(comm, prev, lap)[0];
      } else {
        token = test::recv<std::uint64_t>(comm, prev, lap)[0];
        token += comm.rank();
        const std::vector<std::uint64_t> out = {token};
        comm.send<std::uint64_t>(next, lap, out);
      }
    }
    if (comm.rank() == 0) {
      EXPECT_EQ(token, 20ull * (1 + 2 + 3 + 4));
    }
  });
}

TEST(CommStress, LargePayload) {
  run_cluster(2, {}, [](Communicator& comm) {
    const std::size_t n = 1 << 20;  // 4 MB of uint32
    if (comm.rank() == 0) {
      std::vector<std::uint32_t> big(n);
      std::iota(big.begin(), big.end(), 0u);
      comm.send<std::uint32_t>(1, 0, big);
    } else {
      const auto got = test::recv<std::uint32_t>(comm, 0, 0);
      ASSERT_EQ(got.size(), n);
      EXPECT_EQ(got[12345], 12345u);
      EXPECT_EQ(got[n - 1], n - 1);
    }
  });
}

TEST(ThreadPoolStress, ManySmallParallelFors) {
  std::atomic<std::uint64_t> total{0};
  for (int round = 0; round < 200; ++round) {
    ThreadPool::global().parallel_for(
        17, [&](std::size_t b, std::size_t e) {
          total.fetch_add(e - b, std::memory_order_relaxed);
        });
  }
  EXPECT_EQ(total.load(), 200ull * 17);
}

TEST(ThreadPoolStress, DeepNesting) {
  std::atomic<std::uint64_t> total{0};
  ThreadPool::global().parallel_for(4, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      ThreadPool::global().parallel_for(
          4, [&](std::size_t b2, std::size_t e2) {
            for (std::size_t j = b2; j < e2; ++j) {
              ThreadPool::global().parallel_for(
                  8, [&](std::size_t b3, std::size_t e3) {
                    total.fetch_add(e3 - b3, std::memory_order_relaxed);
                  });
            }
          });
    }
  });
  EXPECT_EQ(total.load(), 4ull * 4 * 8);
}

TEST(TilingSweep, RandomDimsPartitionProperty) {
  std::mt19937 rng(42);
  for (int trial = 0; trial < 40; ++trial) {
    const std::int64_t rows = 1 + static_cast<std::int64_t>(rng() % 300);
    const std::int64_t cols = 1 + static_cast<std::int64_t>(rng() % 300);
    const std::int64_t tile = 1 + static_cast<std::int64_t>(rng() % 64);
    const TilingScheme t(rows, cols, tile);

    std::int64_t covered = 0;
    for (TileId id = 0; id < t.tile_count(); ++id) {
      const CellWindow w = t.tile_window(id);
      ASSERT_GT(w.rows, 0);
      ASSERT_GT(w.cols, 0);
      ASSERT_LE(w.rows, tile);
      ASSERT_LE(w.cols, tile);
      ASSERT_LE(w.row0 + w.rows, rows);
      ASSERT_LE(w.col0 + w.cols, cols);
      covered += w.cell_count();
      // id round-trips through (row, col).
      ASSERT_EQ(t.tile_id(t.tile_row(id), t.tile_col(id)), id);
    }
    ASSERT_EQ(covered, rows * cols)
        << rows << "x" << cols << " tile " << tile;
  }
}

TEST(TilingSweep, TilesCoveringRandomBoxes) {
  std::mt19937 rng(7);
  const GeoTransform tr(-50.0, 30.0, 0.05, 0.05);
  const TilingScheme t(200, 160, 16);
  std::uniform_real_distribution<double> ux(-55.0, -38.0);
  std::uniform_real_distribution<double> uy(15.0, 35.0);
  for (int trial = 0; trial < 60; ++trial) {
    double x0 = ux(rng);
    double x1 = ux(rng);
    double y0 = uy(rng);
    double y1 = uy(rng);
    if (x0 > x1) std::swap(x0, x1);
    if (y0 > y1) std::swap(y0, y1);
    const GeoBox box{x0, y0, x1, y1};
    const auto got = t.tiles_covering(box, tr);
    std::set<TileId> got_set(got.begin(), got.end());
    ASSERT_EQ(got_set.size(), got.size()) << "duplicates returned";
    for (TileId id = 0; id < t.tile_count(); ++id) {
      ASSERT_EQ(got_set.count(id) == 1,
                t.tile_box(id, tr).intersects(box))
          << "trial " << trial << " tile " << id;
    }
  }
}

}  // namespace
}  // namespace zh
