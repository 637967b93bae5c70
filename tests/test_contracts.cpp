// Death tests for the debug contract subsystem (common/contracts.hpp).
//
// One death test per instrumented subsystem proves the ZH_ASSERT /
// ZH_DCHECK_BOUNDS instrumentation is live: each test violates an invariant
// the hot path checks and expects the process to abort with a "contract
// violated" report. In configurations where contracts are compiled out
// (Release/RelWithDebInfo without sanitizers) the tests skip.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <vector>

#include "bqtree/bitstream.hpp"
#include "cluster/comm.hpp"
#include "common/contracts.hpp"
#include "core/histogram.hpp"
#include "core/step2_pairing.hpp"
#include "core/step3_aggregate.hpp"
#include "device/device.hpp"
#include "device/thread_pool.hpp"
#include "grid/morton.hpp"

namespace zh {
namespace {

constexpr char kContractMsg[] = "contract violated";

class ContractDeath : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!contracts_enabled()) {
      GTEST_SKIP() << "contracts compiled out in this configuration";
    }
    // Worker threads of the global pool (and rank threads below) make the
    // default fork-based death test unreliable; clone-and-exec instead.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  }
};

TEST_F(ContractDeath, EnabledMatchesBuildConfiguration) {
#if ZH_ENABLE_CONTRACTS
  EXPECT_TRUE(contracts_enabled());
#else
  EXPECT_FALSE(contracts_enabled());
#endif
}

// bqtree: a BQ-Tree decoder asking for more bits than the 32-bit
// accumulator holds is a codec bug, not a data error.
TEST_F(ContractDeath, BitReaderRejectsOverwideRead) {
  const std::vector<std::uint8_t> bytes(16, 0xAB);
  EXPECT_DEATH(
      {
        BitReader reader(bytes);
        (void)reader.get_bits(33);
      },
      kContractMsg);
}

// grid: Morton coordinates above 16 bits would silently alias a smaller
// cell after the spread; the encode contract catches the overflow.
TEST_F(ContractDeath, MortonEncodeRejectsWideCoordinates) {
  EXPECT_DEATH((void)morton_encode(0x10000u, 0u), kContractMsg);
  EXPECT_DEATH((void)morton_encode(0u, 0x10000u), kContractMsg);
}

// device: posting an empty std::function would raise bad_function_call on
// a worker thread and take the whole pool down later; the contract moves
// the failure to the call site.
TEST_F(ContractDeath, ThreadPoolRejectsEmptyTask) {
  EXPECT_DEATH(
      {
        ThreadPool pool(1);
        pool.post(std::function<void()>{});
      },
      kContractMsg);
}

// cluster: receiving from a rank outside the cluster can never be
// satisfied -- without the contract the rank thread blocks forever.
TEST_F(ContractDeath, CommRejectsRecvFromNonexistentRank) {
  EXPECT_DEATH(
      run_cluster(2, {},
                  [](Communicator& comm) {
                    if (comm.rank() == 0) {
                      std::vector<std::byte> out;
                      (void)comm.recv_bytes(/*src=*/7, /*tag=*/0,
                                            Deadline::never(), out);
                    }
                  }),
      kContractMsg);
}

// core: a Step-3 dispatch table referencing a tile row that Step 1 never
// produced reads a foreign histogram -- exactly the §III.B partition
// corruption the contracts exist to catch.
TEST_F(ContractDeath, Step3RejectsTileIdOutsideHistogramSet) {
  EXPECT_DEATH(
      {
        Device device(DeviceProfile::host());
        HistogramSet tile_hist(2, 8);
        HistogramSet poly_hist(1, 8);
        PolygonTileGroups inside;
        inside.pid_v = {0};
        inside.num_v = {1};
        inside.pos_v = {0};
        inside.tid_v = {5};  // only tiles 0 and 1 exist
        aggregate_inside_tiles(device, inside, tile_hist, poly_hist);
      },
      kContractMsg);
}

// core/histogram: groups x bins products that wrap size_t must abort
// rather than quietly allocating a truncated table.
TEST_F(ContractDeath, HistogramSetRejectsSizeOverflow) {
  EXPECT_DEATH(
      {
        HistogramSet h;
        h.reset((std::size_t{1} << 62) + 1, 4);
      },
      kContractMsg);
}

}  // namespace
}  // namespace zh
