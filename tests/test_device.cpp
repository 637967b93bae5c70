#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "core/pipeline.hpp"
#include "device/device.hpp"

namespace zh {
namespace {

TEST(DeviceProfile, PaperPresetsMatchPublishedSpecs) {
  // Sec. IV.B: Kepler has 6x the cores (2688 vs 448) and 2x the memory
  // bandwidth (288.4 vs 144 GB/s) of the Fermi device.
  const DeviceProfile fermi = DeviceProfile::quadro6000();
  const DeviceProfile kepler = DeviceProfile::gtx_titan();
  EXPECT_EQ(fermi.cuda_cores, 448u);
  EXPECT_EQ(kepler.cuda_cores, 2688u);
  EXPECT_EQ(kepler.cuda_cores / fermi.cuda_cores, 6u);
  EXPECT_DOUBLE_EQ(kepler.mem_bandwidth_gbs / fermi.mem_bandwidth_gbs,
                   288.4 / 144.0);
  // Both experiment GPUs have at least 5 GB device memory (Sec. III.A's
  // 50 MB per-tile histogram budget depends on it).
  EXPECT_GE(fermi.device_memory_gb, 5.0);
  EXPECT_GE(kepler.device_memory_gb, 5.0);
  EXPECT_EQ(DeviceProfile::k20().architecture, "Kepler");
}

TEST(Device, LaunchRunsEveryBlockOnce) {
  Device dev;
  const std::uint32_t grid = 1000;
  std::vector<std::atomic<int>> hits(grid);
  dev.launch(grid, [&](const BlockContext& ctx) {
    hits[ctx.block_id()].fetch_add(1, std::memory_order_relaxed);
    EXPECT_EQ(ctx.grid_dim(), grid);
  });
  for (std::uint32_t b = 0; b < grid; ++b) {
    ASSERT_EQ(hits[b].load(), 1) << "block " << b;
  }
}

TEST(Device, LaunchZeroGridIsNoop) {
  Device dev;
  bool ran = false;
  dev.launch(0, [&](const BlockContext&) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(Device, StridedVisitsAllIndicesOnce) {
  BlockContext ctx(0, 1, 256);
  std::vector<int> hits(1000, 0);
  ctx.strided(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i], 1) << "index " << i;
  }
}

TEST(Device, StridedHandlesSmallAndEmptyRanges) {
  BlockContext ctx(0, 1, 256);
  int count = 0;
  ctx.strided(0, [&](std::size_t) { ++count; });
  EXPECT_EQ(count, 0);
  ctx.strided(3, [&](std::size_t) { ++count; });
  EXPECT_EQ(count, 3);
}

TEST(Device, ModeledTransferTimeUsesPcieBandwidth) {
  Device dev(DeviceProfile::gtx_titan());
  // 2.5 GB at 2.5 GB/s -> 1 second (the paper's transfer-cost arithmetic).
  EXPECT_NEAR(dev.modeled_h2d_seconds(2'500'000'000ull), 1.0, 1e-9);
}

TEST(Device, AtomicAddOnRawCounter) {
  BinCount slot = 0;
  atomic_add(&slot, 3);
  atomic_add(&slot);
  EXPECT_EQ(slot, 4u);
}

TEST(Device, ConcurrentAtomicAddsDoNotLoseUpdates) {
  Device dev;
  BinCount counter = 0;
  const std::uint32_t grid = 64;
  const int per_block = 1000;
  dev.launch(grid, [&](const BlockContext&) {
    for (int i = 0; i < per_block; ++i) atomic_add(&counter);
  });
  EXPECT_EQ(counter, grid * static_cast<BinCount>(per_block));
}

TEST(Device, RejectsZeroBlockDim) {
  Device dev;
  EXPECT_THROW(dev.launch(1, 0, [](const BlockContext&) {}),
               InvalidArgument);
}

}  // namespace
}  // namespace zh

namespace zh {
namespace {

TEST(DeviceProfiles, NamedLaunchesAccumulate) {
  Device dev;
  dev.launch_named("alpha", 10, [](const BlockContext&) {});
  dev.launch_named("alpha", 5, [](const BlockContext&) {});
  dev.launch_named("beta", 3, [](const BlockContext&) {});
  const auto profiles = dev.kernel_profiles();
  ASSERT_EQ(profiles.size(), 2u);
  EXPECT_EQ(profiles.at("alpha").launches, 2u);
  EXPECT_EQ(profiles.at("alpha").blocks, 15u);
  EXPECT_GE(profiles.at("alpha").seconds, 0.0);
  EXPECT_EQ(profiles.at("beta").launches, 1u);
}

TEST(DeviceProfiles, PipelineKernelsAppearInProfile) {
  Device dev;
  // Value 3 on the 3x3 tiles fully inside the zone (cells 8..31 of each
  // axis), 5 elsewhere: bin 3 holds exactly what the inside count read.
  DemRaster raster(40, 40, GeoTransform(0.0, 4.0, 0.1, 0.1));
  for (std::int64_t r = 0; r < 40; ++r) {
    for (std::int64_t c = 0; c < 40; ++c) {
      const bool inner = r >= 8 && r < 32 && c >= 8 && c < 32;
      raster.at(r, c) = inner ? 3 : 5;
    }
  }
  PolygonSet zones;
  zones.add(Polygon({{{0.3, 0.3}, {3.7, 0.3}, {3.7, 3.7}, {0.3, 3.7}}}));
  const ZonalPipeline pipe(dev, {.tile_size = 8, .bins = 10});
  const ZonalResult r = pipe.run(raster, zones);
  const auto profiles = dev.kernel_profiles();
  EXPECT_TRUE(profiles.count("ZoneHistKernel"));
  EXPECT_TRUE(profiles.count("pip_test_kernel"));
  // No per-tile table: the paper's Step-1 and Step-3 kernels never run.
  EXPECT_FALSE(profiles.count("CellAggrKernel"));
  EXPECT_FALSE(profiles.count("UpdateHistKernel"));
  // Filter-first: the inside count reads only the 3x3 inside tiles
  // (576 cells); the 16 border tiles it touches go to Step 4 alone,
  // which finds the zone's other 34 x 34 - 576 cells.
  EXPECT_EQ(r.per_polygon.of(0)[3], 576u);
  EXPECT_EQ(r.per_polygon.of(0)[5], 34u * 34u - 576u);
  EXPECT_EQ(r.times.seconds[3], 0.0);
}

}  // namespace
}  // namespace zh
