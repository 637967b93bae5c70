// Virtual-device execution substrate.
//
// The paper's kernels (Figs. 2, 4, 5) are CUDA grids of thread blocks:
// one block per raster tile or polygon group, its threads striding over
// the block's cells or bins, atomicAdd into shared histograms. Here a
// block is one task on a persistent ThreadPool and its threads are a
// plain loop inside the kernel body:
//
//  * Device::launch(grid, kernel) runs `kernel(b)` once for every block
//    index b in [0, grid). Blocks run concurrently, so blocks that share
//    an output row use atomic adds exactly as in the paper.
//  * DeviceProfile captures the published specs of the three GPUs in the
//    paper's evaluation; an analytic performance model (core/perf_model)
//    projects paper-scale runtimes from them and measured work counters.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

#include "common/error.hpp"
#include "common/types.hpp"
#include "device/thread_pool.hpp"

namespace zh {

/// Hardware characteristics of a (virtual) accelerator. Values for the
/// presets are the published specs cited in Sec. IV.B of the paper.
struct DeviceProfile {
  std::string name;
  std::string architecture;    ///< "Fermi", "Kepler"
  std::uint32_t cuda_cores;    ///< parallel lanes
  double core_clock_ghz;       ///< per-lane clock
  double mem_bandwidth_gbs;    ///< device memory bandwidth, GB/s
  double pcie_bandwidth_gbs;   ///< host<->device transfer rate, GB/s
  double device_memory_gb;     ///< capacity (both paper GPUs have >= 5 GB)

  /// Nvidia Quadro 6000 (Fermi): 448 cores, 144 GB/s.
  static DeviceProfile quadro6000();
  /// Nvidia GTX Titan (Kepler): 2688 cores, 288.4 GB/s.
  static DeviceProfile gtx_titan();
  /// Nvidia Tesla K20 (Kepler, ORNL Titan node): 2496 cores, 208 GB/s.
  static DeviceProfile k20();
};

/// A virtual accelerator: the pool its kernels' blocks run on.
class Device {
 public:
  /// The profile is not kept (PerfModel takes profiles directly); the
  /// parameter stays because perfbench/driver.cpp passes one.
  explicit Device(const DeviceProfile& /*profile*/ = DeviceProfile::gtx_titan(),
                  ThreadPool* pool = &ThreadPool::global())
      : pool_(pool) {
    ZH_REQUIRE(pool_ != nullptr, "device requires an executor pool");
  }

  /// Worker threads of the pool that runs this device's blocks.
  [[nodiscard]] std::size_t concurrency() const { return pool_->size(); }

  /// Run `kernel(b)` for every block index b in [0, grid). Blocks run
  /// concurrently on the pool; the call returns when the whole grid has
  /// executed (stream-0 synchronous semantics).
  template <typename Kernel>
  void launch(std::size_t grid, Kernel&& kernel) {
    pool_->parallel_for(grid, [&](std::size_t begin, std::size_t end) {
      for (std::size_t b = begin; b < end; ++b) kernel(b);
    });
  }

 private:
  ThreadPool* pool_;
};

/// atomicAdd analog on a plain counter (Fig. 2 line 11): kernels keep
/// plain uint32 histogram arrays as the paper does, and blocks that share
/// one add through a relaxed atomic_ref to the slot -- only the final
/// per-bin totals matter, never inter-thread ordering. Returns the count
/// the slot held before the add, as atomicAdd does.
inline BinCount atomic_add(BinCount* slot, BinCount v = 1) {
  return std::atomic_ref<BinCount>(*slot).fetch_add(
      v, std::memory_order_relaxed);
}

}  // namespace zh
