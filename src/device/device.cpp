#include "device/device.hpp"

namespace zh {

DeviceProfile DeviceProfile::quadro6000() {
  return DeviceProfile{
      .name = "Quadro 6000",
      .architecture = "Fermi",
      .cuda_cores = 448,
      .core_clock_ghz = 0.574,
      .mem_bandwidth_gbs = 144.0,
      .pcie_bandwidth_gbs = 2.5,
      .device_memory_gb = 6.0,
  };
}

DeviceProfile DeviceProfile::gtx_titan() {
  return DeviceProfile{
      .name = "GTX Titan",
      .architecture = "Kepler",
      .cuda_cores = 2688,
      .core_clock_ghz = 0.837,
      .mem_bandwidth_gbs = 288.4,
      .pcie_bandwidth_gbs = 2.5,
      .device_memory_gb = 6.0,
  };
}

DeviceProfile DeviceProfile::k20() {
  return DeviceProfile{
      .name = "Tesla K20",
      .architecture = "Kepler",
      .cuda_cores = 2496,
      .core_clock_ghz = 0.706,
      .mem_bandwidth_gbs = 208.0,
      .pcie_bandwidth_gbs = 2.5,
      .device_memory_gb = 5.0,
  };
}

}  // namespace zh
