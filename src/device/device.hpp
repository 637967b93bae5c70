// Virtual-device execution substrate.
//
// The paper's kernels (Figs. 2, 4, 5) are written in the CUDA
// grid-of-thread-blocks model: one block per raster tile / polygon, threads
// striding over histogram bins and cells, block-wide barriers, atomicAdd
// into per-tile histograms. This header reproduces that model on the host:
//
//  * Device::launch(grid_dim, kernel) runs `kernel(BlockContext&)` once per
//    block, blocks distributed over a persistent ThreadPool.
//  * BlockContext carries blockIdx/blockDim analogs and the strided-loop
//    helper that the CUDA `for (k = threadIdx.x; k < n; k += blockDim.x)`
//    idiom maps to. Within one emulated block, virtual threads execute
//    sequentially, so __syncthreads() is a no-op by construction; *across*
//    blocks the same races exist as on a real GPU and shared outputs must
//    use atomics exactly as in the paper.
//  * DeviceProfile captures the published specs of the three GPUs in the
//    paper's evaluation; Device keeps transfer/launch statistics so an
//    analytic performance model (core/perf_model) can project paper-scale
//    runtimes from measured work counters.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"
#include "device/thread_pool.hpp"

namespace zh {

/// Hardware characteristics of a (virtual) accelerator. Values for the
/// presets are the published specs cited in Sec. IV.B of the paper.
struct DeviceProfile {
  std::string name;
  std::string architecture;    ///< "Fermi", "Kepler", "Host"
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
  /// The host CPU executing the emulation (throughput proxies only).
  static DeviceProfile host();
};

/// Cumulative execution statistics of a Device (reset per run if desired).
struct DeviceStats {
  std::atomic<std::uint64_t> kernels_launched{0};
  std::atomic<std::uint64_t> blocks_executed{0};
  std::atomic<std::uint64_t> bytes_h2d{0};
  std::atomic<std::uint64_t> bytes_d2h{0};

  void reset() {
    kernels_launched = 0;
    blocks_executed = 0;
    bytes_h2d = 0;
    bytes_d2h = 0;
  }
};

/// Per-block execution context handed to kernels; the analog of
/// (blockIdx, blockDim, threadIdx) plus the strided-loop idiom.
class BlockContext {
 public:
  BlockContext(std::uint32_t block_id, std::uint32_t grid_dim,
               std::uint32_t block_dim)
      : block_id_(block_id), grid_dim_(grid_dim), block_dim_(block_dim) {}

  /// blockIdx.x analog (blocks are 1-D; callers linearize 2-D grids the
  /// same way the paper does: idx = blockIdx.y*gridDim.x + blockIdx.x).
  [[nodiscard]] std::uint32_t block_id() const { return block_id_; }
  [[nodiscard]] std::uint32_t grid_dim() const { return grid_dim_; }
  /// blockDim.x analog. Within the emulation virtual threads run
  /// sequentially; block_dim only affects traversal order.
  [[nodiscard]] std::uint32_t block_dim() const { return block_dim_; }

  /// Execute `fn(i)` for every i in [0, n), visiting indices in the order
  /// the CUDA strided loop would complete them (chunk by chunk). Each call
  /// corresponds to one barrier-delimited phase of the kernel.
  template <typename Fn>
  void strided(std::size_t n, Fn&& fn) const {
    for (std::size_t base = 0; base < n; base += block_dim_) {
      const std::size_t end = std::min<std::size_t>(n, base + block_dim_);
      for (std::size_t i = base; i < end; ++i) fn(i);
    }
  }

  /// __syncthreads() analog. Virtual threads in a block run sequentially,
  /// so this is a semantic marker only; kept so kernels mirror the paper's
  /// listings line by line.
  void sync() const {}

 private:
  std::uint32_t block_id_;
  std::uint32_t grid_dim_;
  std::uint32_t block_dim_;
};

/// Device-resident typed buffer. Allocation and host<->device copies are
/// tracked through the owning Device so transfer volumes can be reported
/// (the paper argues BQ-Tree compression cuts the CPU->GPU copy from ~28 s
/// to ~3 s at 2.5 GB/s; the accounting lets benches reproduce that math).
template <typename T>
class DeviceBuffer {
 public:
  DeviceBuffer() = default;
  explicit DeviceBuffer(std::size_t n) : data_(n) {}

  [[nodiscard]] std::size_t size() const { return data_.size(); }
  [[nodiscard]] bool empty() const { return data_.empty(); }
  [[nodiscard]] std::size_t bytes() const { return size() * sizeof(T); }

  [[nodiscard]] T* data() { return data_.data(); }
  [[nodiscard]] const T* data() const { return data_.data(); }
  [[nodiscard]] std::span<T> span() { return {data_.data(), data_.size()}; }
  [[nodiscard]] std::span<const T> span() const {
    return {data_.data(), data_.size()};
  }

  T& operator[](std::size_t i) { return data_[i]; }
  const T& operator[](std::size_t i) const { return data_[i]; }

  void fill(const T& v) { std::fill(data_.begin(), data_.end(), v); }
  void resize(std::size_t n) { data_.resize(n); }

 private:
  std::vector<T> data_;
};

/// Accumulated profile of one named kernel (see Device::launch_named).
struct KernelProfile {
  std::uint64_t launches = 0;
  std::uint64_t blocks = 0;
  double seconds = 0.0;
};

/// A virtual accelerator: a profile + an executor + statistics.
class Device {
 public:
  explicit Device(DeviceProfile profile = DeviceProfile::gtx_titan(),
                  ThreadPool* pool = &ThreadPool::global(),
                  std::uint32_t default_block_dim = 256)
      : profile_(std::move(profile)),
        pool_(pool),
        default_block_dim_(default_block_dim) {
    ZH_REQUIRE(pool_ != nullptr, "device requires an executor pool");
    ZH_REQUIRE(default_block_dim_ > 0, "block_dim must be positive");
  }

  [[nodiscard]] const DeviceProfile& profile() const { return profile_; }
  [[nodiscard]] DeviceStats& stats() { return stats_; }
  [[nodiscard]] std::uint32_t default_block_dim() const {
    return default_block_dim_;
  }
  /// Worker threads of the pool that runs this device's blocks.
  [[nodiscard]] std::size_t concurrency() const { return pool_->size(); }

  /// Launch `kernel(BlockContext&)` over a 1-D grid of `grid_dim` blocks.
  /// Blocks run concurrently on the pool; the call returns when the whole
  /// grid has executed (stream-0 synchronous semantics).
  template <typename Kernel>
  void launch(std::uint32_t grid_dim, Kernel&& kernel) {
    launch(grid_dim, default_block_dim_, std::forward<Kernel>(kernel));
  }

  template <typename Kernel>
  void launch(std::uint32_t grid_dim, std::uint32_t block_dim,
              Kernel&& kernel) {
    if (grid_dim == 0) return;
    ZH_REQUIRE(block_dim > 0, "block_dim must be positive");
    stats_.kernels_launched.fetch_add(1, std::memory_order_relaxed);
    stats_.blocks_executed.fetch_add(grid_dim, std::memory_order_relaxed);
    pool_->parallel_for(
        grid_dim,
        [&](std::size_t begin, std::size_t end) {
          for (std::size_t b = begin; b < end; ++b) {
            BlockContext ctx(static_cast<std::uint32_t>(b), grid_dim,
                             block_dim);
            kernel(ctx);
          }
        });
  }

  /// launch() with per-name profiling: wall time, launch and block
  /// counts accumulate under `name` (the nvprof-style kernel table).
  template <typename Kernel>
  void launch_named(std::string_view name, std::uint32_t grid_dim,
                    Kernel&& kernel) {
    const auto start = std::chrono::steady_clock::now();
    launch(grid_dim, default_block_dim_, std::forward<Kernel>(kernel));
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    std::lock_guard lock(profile_mutex_);
    KernelProfile& p = kernel_profiles_[std::string(name)];
    ++p.launches;
    p.blocks += grid_dim;
    p.seconds += seconds;
  }

  /// Snapshot of all named-kernel profiles.
  [[nodiscard]] std::map<std::string, KernelProfile> kernel_profiles()
      const {
    std::lock_guard lock(profile_mutex_);
    return kernel_profiles_;
  }

  /// Copy host data into a new device buffer, accounting the transfer.
  template <typename T>
  DeviceBuffer<T> to_device(std::span<const T> host) {
    DeviceBuffer<T> buf(host.size());
    std::copy(host.begin(), host.end(), buf.data());
    stats_.bytes_h2d.fetch_add(host.size_bytes(), std::memory_order_relaxed);
    return buf;
  }

  /// Copy a device buffer back to host storage, accounting the transfer.
  template <typename T>
  std::vector<T> to_host(const DeviceBuffer<T>& buf) {
    std::vector<T> host(buf.data(), buf.data() + buf.size());
    stats_.bytes_d2h.fetch_add(buf.bytes(), std::memory_order_relaxed);
    return host;
  }

  /// Modeled seconds for a host->device transfer of `bytes` at the
  /// profile's PCIe bandwidth (used by reporting, not by execution).
  [[nodiscard]] double modeled_h2d_seconds(std::uint64_t bytes) const {
    return static_cast<double>(bytes) / (profile_.pcie_bandwidth_gbs * 1e9);
  }

 private:
  DeviceProfile profile_;
  ThreadPool* pool_;
  std::uint32_t default_block_dim_;
  DeviceStats stats_;
  mutable std::mutex profile_mutex_;
  std::map<std::string, KernelProfile> kernel_profiles_;
};

/// atomicAdd analog used by the Step-1 kernel (Fig. 2 line 11). Shared
/// output histograms are written with relaxed atomics: only the final
/// per-bin totals matter, never inter-thread ordering.
inline void atomic_add(std::atomic<BinCount>& slot, BinCount v = 1) {
  slot.fetch_add(v, std::memory_order_relaxed);
}

/// Same on a raw counter reinterpreted atomically. Valid because BinCount
/// is lock-free-atomic-compatible on all supported platforms; lets kernels
/// keep plain uint32 arrays as the paper does.
inline void atomic_add(BinCount* slot, BinCount v = 1) {
  static_assert(sizeof(std::atomic<BinCount>) == sizeof(BinCount));
  reinterpret_cast<std::atomic<BinCount>*>(slot)->fetch_add(
      v, std::memory_order_relaxed);
}

}  // namespace zh
