#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "device/device.hpp"
#include "obs/trace.hpp"

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
  const std::size_t grid = 1000;
  std::vector<std::atomic<int>> hits(grid);
  dev.launch(grid, [&](std::size_t b) {
    hits[b].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t b = 0; b < grid; ++b) {
    ASSERT_EQ(hits[b].load(), 1) << "block " << b;
  }
}

TEST(Device, LaunchZeroGridIsNoop) {
  Device dev;
  bool ran = false;
  dev.launch(0, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
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
  const std::size_t grid = 64;
  const int per_block = 1000;
  dev.launch(grid, [&](std::size_t) {
    for (int i = 0; i < per_block; ++i) atomic_add(&counter);
  });
  EXPECT_EQ(counter, grid * static_cast<BinCount>(per_block));
}

}  // namespace
}  // namespace zh

namespace zh {
namespace {

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
  obs::set_trace_enabled(false);
  obs::trace_clear();
  obs::set_trace_enabled(true);
  const ZonalResult r = pipe.run(raster, zones);
  obs::set_trace_enabled(false);
#if defined(ZH_ENABLE_OBS)
  // Which kernels ran, by the spans they open: the fused inside count
  // and the refinement, and no per-tile table -- the paper's Step-1 and
  // Step-3 kernels never run.
  std::set<std::string> spans;
  for (const obs::TraceEvent& e : obs::trace_snapshot()) {
    spans.insert(std::string(e.name));
  }
  EXPECT_TRUE(spans.count("step1.zone_hist"));
  EXPECT_TRUE(spans.count("step4.refine"));
  EXPECT_FALSE(spans.count("step1.tile_hist"));
  EXPECT_FALSE(spans.count("step3.aggregate"));
#endif
  obs::trace_clear();
  // Filter-first: the inside count reads only the 3x3 inside tiles
  // (576 cells); the 16 border tiles it touches go to Step 4 alone,
  // which finds the zone's other 34 x 34 - 576 cells.
  EXPECT_EQ(r.per_polygon.of(0)[3], 576u);
  EXPECT_EQ(r.per_polygon.of(0)[5], 34u * 34u - 576u);
  EXPECT_EQ(r.times.seconds[3], 0.0);
}

}  // namespace
}  // namespace zh
