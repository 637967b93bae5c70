// Fault-injection layer: deterministic FaultPlan decisions, delayed
// messages, deadline-bounded receives, dead-rank fail-fast, scripted
// rank crashes, and corruption-detecting container I/O (CRC32 bit-flip
// fuzz, and BQ-Tree tile streams mutated under a reference decoder).
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>
#include <span>
#include <stdexcept>
#include <vector>

#include "bqtree/compressed_raster.hpp"
#include "cluster/comm.hpp"
#include "cluster/fault.hpp"
#include "common/crc32.hpp"
#include "data/dem_synth.hpp"
#include "io/bq_file.hpp"
#include "io/zgrid.hpp"
#include "test_util.hpp"

namespace zh {
namespace {

using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------- plans

TEST(FaultPlan, EmptyPlanInjectsNothing) {
  const FaultPlan plan;
  EXPECT_TRUE(plan.empty());
  for (std::uint64_t i = 0; i < 100; ++i) {
    EXPECT_FALSE(plan.action_for(0, 1, 7, i).any());
  }
}

TEST(FaultPlan, ActionsAreDeterministicPerSeed) {
  FaultPlan plan;
  plan.seed = 42;
  plan.delay_prob = 0.2;
  plan.delay_ms = 7;

  // Same (src, dst, tag, index) -> identical decision, every time; a
  // delayed message is held back by exactly the plan's delay_ms.
  int faulted = 0;
  for (RankId src = 0; src < 3; ++src) {
    for (RankId dst = 0; dst < 3; ++dst) {
      for (std::uint64_t i = 0; i < 64; ++i) {
        const FaultAction a = plan.action_for(src, dst, 5, i);
        const FaultAction b = plan.action_for(src, dst, 5, i);
        EXPECT_EQ(a.delay_ms, b.delay_ms);
        EXPECT_TRUE(a.delay_ms == 0 || a.delay_ms == 7) << a.delay_ms;
        if (a.any()) ++faulted;
      }
    }
  }
  EXPECT_GT(faulted, 0);
  EXPECT_LT(faulted, 3 * 3 * 64);

  // A different seed produces a different schedule somewhere.
  FaultPlan other = plan;
  other.seed = 43;
  bool differs = false;
  for (std::uint64_t i = 0; i < 64 && !differs; ++i) {
    differs = plan.action_for(0, 1, 5, i).delay_ms !=
              other.action_for(0, 1, 5, i).delay_ms;
  }
  EXPECT_TRUE(differs);
}

TEST(FaultPlan, ParsesFullSpec) {
  // Each integer field takes its own type's full range.
  const FaultPlan plan = FaultPlan::parse(
      "seed=18446744073709551615,delay=0.2,delay_ms=4294967295,"
      "crash=2@partition_done#1,abort=journal_record#4294967295");
  EXPECT_EQ(plan.seed, 18446744073709551615u);
  EXPECT_DOUBLE_EQ(plan.delay_prob, 0.2);
  EXPECT_EQ(plan.delay_ms, 4294967295u);
  EXPECT_EQ(plan.crash.rank, 2u);
  EXPECT_EQ(plan.crash.point, CrashPoint::kPartitionDone);
  EXPECT_EQ(plan.crash.occurrence, 1u);
  EXPECT_EQ(plan.abort.point, CrashPoint::kJournalRecord);
  EXPECT_EQ(plan.abort.occurrence, 4294967295u);
  EXPECT_FALSE(plan.empty());
}

TEST(FaultPlan, RejectsMalformedSpecs) {
  EXPECT_THROW((void)FaultPlan::parse("bogus=1"), InvalidArgument);
  EXPECT_THROW((void)FaultPlan::parse("delay"), InvalidArgument);
  EXPECT_THROW((void)FaultPlan::parse("delay=notanumber"), InvalidArgument);
  EXPECT_THROW((void)FaultPlan::parse("crash=1"), InvalidArgument);
  EXPECT_THROW((void)FaultPlan::parse("crash=1@no_such_point"),
               InvalidArgument);
  EXPECT_THROW((void)FaultPlan::parse("abort=no_such_point"),
               InvalidArgument);
  EXPECT_THROW((void)FaultPlan::parse("abort=startup#x"), InvalidArgument);
}

TEST(FaultPlan, ParsesAbortSpec) {
  const FaultPlan plan = FaultPlan::parse("abort=journal_record#2");
  EXPECT_EQ(plan.abort.point, CrashPoint::kJournalRecord);
  EXPECT_EQ(plan.abort.occurrence, 2u);
  EXPECT_FALSE(plan.empty());  // an abort alone is a non-empty plan

  const FaultPlan bare = FaultPlan::parse("abort=partition_done");
  EXPECT_EQ(bare.abort.point, CrashPoint::kPartitionDone);
  EXPECT_EQ(bare.abort.occurrence, 0u);

  EXPECT_EQ(to_string(CrashPoint::kJournalRecord), "journal_record");
}

/// Asserts the COMPLETE error text: problem, byte offset of the failing
/// token, the full spec, and the grammar -- so a user (and a test) can
/// locate a typo in a long spec without counting commas.
void expect_parse_error(std::string_view spec, std::size_t offset,
                        std::string_view problem) {
  const std::string expect = detail::format_parts(
      "fault plan: ", problem, " at byte ", offset, " of '", spec, "' (",
      FaultPlan::kGrammar, ")");
  try {
    (void)FaultPlan::parse(spec);
    FAIL() << "spec '" << spec << "' was not rejected";
  } catch (const InvalidArgument& e) {
    EXPECT_EQ(e.what(), expect);
  }
}

TEST(FaultPlan, ParseErrorsPinpointByteOffsetAndGrammar) {
  expect_parse_error("bogus=1", 0, "unknown key 'bogus'");
  // The transport is reliable: message loss is no fault a run can meet.
  expect_parse_error("drop=0.1", 0, "unknown key 'drop'");
  expect_parse_error("delay=0.1,oops", 10, "expected key=value, got 'oops'");
  expect_parse_error("delay=1.5", 6,
                     "key 'delay' needs a probability in [0,1], got '1.5'");
  expect_parse_error("seed=3,delay=x", 13,
                     "key 'delay' needs a probability in [0,1], got 'x'");
  expect_parse_error(
      "seed=abc", 5,
      "key 'seed' needs an integer from 0 to 18446744073709551615, got 'abc'");
  // Integers are read whole, unsigned and in their field's range: none
  // truncates to its field, negates or wraps.
  expect_parse_error(
      "seed=-1", 5,
      "key 'seed' needs an integer from 0 to 18446744073709551615, got '-1'");
  expect_parse_error(
      "crash=4294967297@partition_start", 6,
      "key 'crash' needs an integer from 0 to 4294967295, got '4294967297'");
  expect_parse_error("delay_ms=4294967297", 9,
                     "key 'delay_ms' needs an integer from 0 to 4294967295, "
                     "got '4294967297'");
  expect_parse_error("delay_ms= 5", 9,
                     "key 'delay_ms' needs an integer from 0 to 4294967295, "
                     "got ' 5'");
  expect_parse_error("crash=1@startup#+2", 16,
                     "key 'crash occurrence' needs an integer from 0 to "
                     "4294967295, got '+2'");
  expect_parse_error(
      "crash=1", 6,
      "key 'crash' needs <rank>@<point>[#<occurrence>], got '1'");
  expect_parse_error("crash=1@nope", 8, "unknown crash point 'nope'");
  expect_parse_error("abort=nope", 6, "unknown crash point 'nope'");
  expect_parse_error("abort=startup#x", 14,
                     "key 'abort occurrence' needs an integer from 0 to "
                     "4294967295, got 'x'");
}

// ----------------------------------------------------- message faults

TEST(CommFault, ReorderedAndDelayedMessagesStillArrive) {
  // Every message is held back 10 ms; the receiver asks for them in the
  // reverse of the order they were sent, and each tag still matches.
  FaultPlan faults;
  faults.seed = 3;
  faults.delay_prob = 1.0;
  faults.delay_ms = 10;
  run_cluster(2, faults, [](Communicator& comm) {
    if (comm.rank() == 0) {
      for (std::uint32_t i = 0; i < 8; ++i) {
        comm.send<std::uint32_t>(1, static_cast<int>(i),
                                 std::vector<std::uint32_t>{i});
      }
    } else {
      for (std::uint32_t i = 8; i-- > 0;) {
        EXPECT_EQ(test::recv<std::uint32_t>(comm, 0, static_cast<int>(i)),
                  (std::vector<std::uint32_t>{i}));
      }
    }
  });
}

// --------------------------------------------- deadlines and dead ranks

TEST(CommFault, RecvTimesOutOnSilence) {
  run_cluster(2, {}, [](Communicator& comm) {
    if (comm.rank() == 0) {
      // Stays alive (so the wait cannot end in kRankDead) until rank 1
      // has timed out.
      (void)test::recv<std::byte>(comm, 1, 1);
      return;
    }
    std::vector<std::byte> out;
    const Status s = comm.recv_bytes(0, 9, Deadline::after_ms(80), out);
    EXPECT_EQ(s.code(), StatusCode::kTimeout);
    comm.send<std::byte>(0, 1, {});
  });
}

TEST(CommFault, RecvFromDeadRankFailsFast) {
  run_cluster(2, {}, [](Communicator& comm) {
    if (comm.rank() == 0) return;  // exits immediately -> marked dead
    const auto start = Clock::now();
    std::vector<std::byte> out;
    const Status s =
        comm.recv_bytes(0, 4, Deadline::after_ms(10000), out);
    EXPECT_EQ(s.code(), StatusCode::kRankDead);
    // Fail-fast: nowhere near the 10 s deadline.
    EXPECT_LT(Clock::now() - start, std::chrono::seconds(5));
  });
}

TEST(CommFault, InFlightMessageFromDeadRankStillReceivable) {
  run_cluster(2, {}, [](Communicator& comm) {
    if (comm.rank() == 0) {
      comm.send<std::uint32_t>(1, 3, std::vector<std::uint32_t>{77});
      return;  // dies right after sending
    }
    const auto got = test::recv<std::uint32_t>(comm, 0, 3);
    EXPECT_EQ(got, (std::vector<std::uint32_t>{77}));
    EXPECT_TRUE(comm.rank_dead(0) ||
                !comm.rank_dead(0));  // query is always safe
  });
}

TEST(CommFault, RecvRejectsMisalignedPayloadWithProvenance) {
  run_cluster(2, {}, [](Communicator& comm) {
    if (comm.rank() == 0) {
      comm.send_bytes(1, 7, std::vector<std::byte>(3));
    } else {
      std::vector<std::uint32_t> out;
      const Status s =
          comm.recv<std::uint32_t>(0, 7, Deadline::after_ms(5000), out);
      EXPECT_EQ(s.code(), StatusCode::kCorrupt);
      EXPECT_NE(s.message().find("from rank 0"), std::string::npos)
          << s.message();
      EXPECT_NE(s.message().find("tag 7"), std::string::npos)
          << s.message();
      EXPECT_NE(s.message().find("3 bytes"), std::string::npos)
          << s.message();
    }
  });
}

TEST(CommFault, ToleratedCrashKillsOnlyThatRank) {
  FaultPlan faults;
  faults.crash = {1, CrashPoint::kStartup, 0};
  run_cluster(2, faults, [](Communicator& comm) {
    comm.checkpoint(CrashPoint::kStartup);
    EXPECT_NE(comm.rank(), 1u);  // rank 1 never gets here
  });
}

// -------------------------------------------------- corruption-detecting I/O

class CorruptIoFault : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("zh_fault_io_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  [[nodiscard]] std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  static std::vector<char> slurp(const std::string& p) {
    std::ifstream is(p, std::ios::binary);
    return {std::istreambuf_iterator<char>(is),
            std::istreambuf_iterator<char>()};
  }

  static void spit(const std::string& p, const std::vector<char>& bytes) {
    std::ofstream os(p, std::ios::binary);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  std::filesystem::path dir_;
};

TEST_F(CorruptIoFault, Crc32KnownAnswerAndIncremental) {
  const char* msg = "123456789";
  EXPECT_EQ(crc32(msg, 9), 0xCBF43926u);  // IEEE 802.3 check value
  Crc32 inc;
  inc.update(msg, 4);
  inc.update(msg + 4, 5);
  EXPECT_EQ(inc.value(), 0xCBF43926u);
  EXPECT_EQ(crc32(msg, 0), 0u);
}

// The table-driven CRC against the bytewise definition: every length
// and alignment around the 16-byte step, every split of one buffer over
// two update calls, and one large buffer.
TEST_F(CorruptIoFault, Crc32MatchesBytewiseReference) {
  const auto bytewise = [](const unsigned char* p, std::size_t n) {
    std::uint32_t c = 0xFFFFFFFFu;
    for (std::size_t i = 0; i < n; ++i) {
      c ^= p[i];
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
    }
    return c ^ 0xFFFFFFFFu;
  };
  std::mt19937 rng(31);
  std::vector<unsigned char> buf(std::size_t{1} << 20);
  for (unsigned char& b : buf) b = static_cast<unsigned char>(rng());

  for (std::size_t off = 0; off < 16; ++off) {
    for (std::size_t len = 0; len <= 256; ++len) {
      ASSERT_EQ(crc32(buf.data() + off, len), bytewise(buf.data() + off, len))
          << "offset " << off << " length " << len;
    }
  }
  const std::uint32_t whole = bytewise(buf.data(), 64);
  for (std::size_t split = 0; split <= 64; ++split) {
    Crc32 inc;
    inc.update(buf.data(), split);
    inc.update(buf.data() + split, 64 - split);
    ASSERT_EQ(inc.value(), whole) << "split at " << split;
  }
  EXPECT_EQ(crc32(buf.data(), buf.size()), bytewise(buf.data(), buf.size()));
}

TEST_F(CorruptIoFault, ZgridDetectsEverySingleBitFlip) {
  const DemRaster r = test::random_raster(6, 5, 21, 4000);
  write_zgrid(path("v2.zgrid"), r);
  const std::vector<char> good = slurp(path("v2.zgrid"));
  ASSERT_FALSE(good.empty());
  // Sanity: the unmodified file round-trips.
  EXPECT_EQ(read_zgrid(path("v2.zgrid")), r);

  for (std::size_t byte = 0; byte < good.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<char> bad = good;
      bad[byte] = static_cast<char>(bad[byte] ^ (1 << bit));
      spit(path("flip.zgrid"), bad);
      EXPECT_THROW((void)read_zgrid(path("flip.zgrid")), IoError)
          << "bit flip at byte " << byte << " bit " << bit
          << " was not detected";
    }
  }
}

TEST_F(CorruptIoFault, BqDetectsEverySingleBitFlip) {
  const DemRaster r = test::random_raster(20, 14, 9, 255);
  write_bq(path("v2.bq"), BqCompressedRaster::encode(r, 8));
  const std::vector<char> good = slurp(path("v2.bq"));
  ASSERT_FALSE(good.empty());
  EXPECT_EQ(read_bq(path("v2.bq")).decode_all(), r);

  for (std::size_t byte = 0; byte < good.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<char> bad = good;
      bad[byte] = static_cast<char>(bad[byte] ^ (1 << bit));
      spit(path("flip.bq"), bad);
      EXPECT_THROW((void)read_bq(path("flip.bq")), IoError)
          << "bit flip at byte " << byte << " bit " << bit
          << " was not detected";
    }
  }
}

TEST_F(CorruptIoFault, ZgridTruncationAtEveryLengthDetected) {
  const DemRaster r = test::random_raster(4, 4, 2, 100);
  write_zgrid(path("full.zgrid"), r);
  const std::vector<char> good = slurp(path("full.zgrid"));
  for (std::size_t len = 0; len < good.size(); ++len) {
    spit(path("trunc.zgrid"),
         std::vector<char>(good.begin(),
                           good.begin() + static_cast<std::ptrdiff_t>(len)));
    EXPECT_THROW((void)read_zgrid(path("trunc.zgrid")), IoError)
        << "truncation to " << len << " bytes was not detected";
  }
}

TEST_F(CorruptIoFault, ZgridRejectsOldVersionWithClearMessage) {
  // Hand-build a version-1 header (pre-checksum format).
  std::vector<char> v1 = {'Z', 'G', 'R', 'D', 1, 0, 0, 0};
  v1.resize(v1.size() + 59, 0);
  spit(path("old.zgrid"), v1);
  try {
    (void)read_zgrid(path("old.zgrid"));
    FAIL() << "version-1 zgrid was not rejected";
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos)
        << e.what();
  }
}

TEST_F(CorruptIoFault, BqRejectsLegacyFormatWithReencodeHint) {
  std::vector<char> legacy = {'Z', 'B', 'Q', '1'};
  legacy.resize(64, 0);
  spit(path("legacy.bq"), legacy);
  try {
    (void)read_bq(path("legacy.bq"));
    FAIL() << "legacy ZBQ1 file was not rejected";
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find("re-encode"), std::string::npos)
        << e.what();
  }
}

TEST_F(CorruptIoFault, BqRejectsAbsurdTileCountWithoutAllocating) {
  // A valid prefix whose header claims 2^60 tiles must be rejected by the
  // size check, not by attempting the allocation.
  const DemRaster r = test::random_raster(8, 8, 3, 50);
  write_bq(path("tiny.bq"), BqCompressedRaster::encode(r, 8));
  std::vector<char> bytes = slurp(path("tiny.bq"));
  // tile count lives at offset 4 (magic) + 4 (version) + 3*8 + 4*8.
  const std::size_t off = 4 + 4 + 24 + 32;
  ASSERT_LT(off + 8, bytes.size());
  const std::uint64_t absurd = std::uint64_t{1} << 60;
  std::memcpy(bytes.data() + off, &absurd, sizeof(absurd));
  spit(path("absurd.bq"), bytes);
  EXPECT_THROW((void)read_bq(path("absurd.bq")), IoError);
}

// A tile stream that ends early is a corrupt file, not a caller error:
// the container's CRCs hold (write_bq computed them over the short
// payloads), so the decoder is what must refuse it.
TEST_F(CorruptIoFault, BqShortTileStreamRaisesIoError) {
  const DemRaster dem =
      generate_dem(40, 40, GeoTransform(-110.0, 45.0, 0.01, 0.01));
  write_bq(path("short.bq"),
           test::halve_tile_streams(BqCompressedRaster::encode(dem, 10)));
  const BqCompressedRaster bq = read_bq(path("short.bq"));
  try {
    (void)bq.decode_all();
    FAIL() << "a truncated tile stream decoded";
  } catch (const IoError& e) {
    EXPECT_EQ(std::string(e.what()).rfind("corrupt BQ-Tree stream", 0), 0u)
        << e.what();
  }
}

// ------------------------------------ BQ-Tree streams against a reference

// The bit-at-a-time decoder the library used before its reader moved to a
// 64-bit window, kept here as the oracle for mutated tile streams.
namespace reference {

class Bits {
 public:
  explicit Bits(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}
  bool get() {
    if (pos_ >= bytes_.size() * 8) throw std::out_of_range("exhausted");
    const bool v = (bytes_[pos_ >> 3u] & (0x80u >> (pos_ & 7u))) != 0;
    ++pos_;
    return v;
  }
  std::uint32_t get_bits(unsigned count) {
    std::uint32_t v = 0;
    for (unsigned i = 0; i < count; ++i) v = (v << 1u) | (get() ? 1u : 0u);
    return v;
  }

 private:
  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

struct Ctx {
  std::span<CellValue> cells;
  std::uint32_t rows, cols;
  CellValue mask;
  Bits* in;
};

void decode_quad(const Ctx& ctx, std::uint32_t r0, std::uint32_t c0,
                 std::uint32_t edge) {
  const std::uint32_t code = ctx.in->get_bits(2);
  const std::uint32_t r1 = std::min(r0 + edge, ctx.rows);
  const std::uint32_t c1 = std::min(c0 + edge, ctx.cols);
  switch (code) {
    case 0b00:
      return;
    case 0b01:
      for (std::uint32_t r = r0; r < r1; ++r) {
        for (std::uint32_t c = c0; c < c1; ++c) {
          ctx.cells[static_cast<std::size_t>(r) * ctx.cols + c] |= ctx.mask;
        }
      }
      return;
    case 0b10:
      if (edge <= kBqLeafEdge) {
        for (std::uint32_t r = r0; r < r1; ++r) {
          for (std::uint32_t c = c0; c < c1; ++c) {
            if (ctx.in->get()) {
              ctx.cells[static_cast<std::size_t>(r) * ctx.cols + c] |=
                  ctx.mask;
            }
          }
        }
      } else {
        const std::uint32_t half = edge / 2;
        decode_quad(ctx, r0, c0, half);
        decode_quad(ctx, r0, c0 + half, half);
        decode_quad(ctx, r0 + half, c0, half);
        decode_quad(ctx, r0 + half, c0 + half, half);
      }
      return;
    default:
      throw std::runtime_error("reserved node code 11");
  }
}

void decode(const BqEncodedTile& tile, std::span<CellValue> out) {
  std::fill(out.begin(), out.end(), CellValue{0});
  if (tile.rows == 0 || tile.cols == 0) return;
  Bits in(tile.payload);
  const std::uint32_t edge = std::bit_ceil(
      std::max({tile.rows, tile.cols, kBqLeafEdge}));
  for (unsigned p = 0; p < 16; ++p) {
    const auto mask = static_cast<CellValue>(1u << p);
    if ((tile.plane_mask & mask) == 0) continue;
    decode_quad(Ctx{out, tile.rows, tile.cols, mask, &in}, 0, 0, edge);
  }
}

}  // namespace reference

// Seeded mutants of encoded tiles (bit flips, an overwritten byte,
// truncations, appended bytes, a flipped plane-mask bit) decode like the
// reference: to the same cells, or both refuse and bq_decode says IoError.
TEST_F(CorruptIoFault, BqMutantsDecodeLikeTheReference) {
  std::mt19937 rng(20140519);
  std::vector<BqEncodedTile> corpus;
  const auto add = [&](std::uint32_t rows, std::uint32_t cols,
                       auto&& value) {
    std::vector<CellValue> cells(static_cast<std::size_t>(rows) * cols);
    for (std::uint32_t r = 0; r < rows; ++r) {
      for (std::uint32_t c = 0; c < cols; ++c) {
        cells[static_cast<std::size_t>(r) * cols + c] = value(r, c);
      }
    }
    corpus.push_back(bq_encode(cells, rows, cols));
  };
  const std::pair<std::uint32_t, std::uint32_t> shapes[] = {
      {1, 1}, {4, 4}, {7, 13}, {12, 12}, {64, 64}, {1, 257}};
  for (const auto& [rows, cols] : shapes) {
    add(rows, cols,
        [&](auto, auto) { return static_cast<CellValue>(rng()); });
    add(rows, cols, [](std::uint32_t r, std::uint32_t c) {
      return static_cast<CellValue>((r / 8) * 16 + (c / 8));
    });
    add(rows, cols, [](auto, auto) { return CellValue{0x2A5}; });
    const DemRaster dem = generate_dem(
        rows, cols, GeoTransform(-104.0, 41.0, 0.01, 0.01));
    add(rows, cols, [&](std::uint32_t r, std::uint32_t c) {
      return dem.at(r, c);
    });
  }
  const DemRaster big = generate_dem(
      360, 360, GeoTransform(-100.0, 40.0, 1.0 / 3600.0, 1.0 / 3600.0));
  add(360, 360, [&](std::uint32_t r, std::uint32_t c) {
    return big.at(r, c);
  });

  std::size_t decoded = 0;
  std::size_t refused = 0;
  const auto check = [&](const BqEncodedTile& m, const std::string& what) {
    SCOPED_TRACE(what + " of a " + std::to_string(m.rows) + "x" +
                 std::to_string(m.cols) + " tile");
    const std::size_t n = static_cast<std::size_t>(m.rows) * m.cols;
    std::vector<CellValue> want(n);
    bool ref_threw = false;
    try {
      reference::decode(m, want);
    } catch (const std::exception&) {
      ref_threw = true;
    }
    std::vector<CellValue> got(n);
    try {
      bq_decode(m, got);
      EXPECT_FALSE(ref_threw) << "decoded a stream the reference refuses";
      EXPECT_EQ(got, want);
      ++decoded;
    } catch (const IoError&) {
      EXPECT_TRUE(ref_threw) << "refused a stream the reference decodes";
      ++refused;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "refused with a non-IoError: " << e.what();
    }
  };
  for (const BqEncodedTile& tile : corpus) {
    check(tile, "the original");
    const std::size_t size = tile.payload.size();
    if (size > 0) {
      std::uniform_int_distribution<std::size_t> bit(0, size * 8 - 1);
      for (int flips = 1; flips <= 3; ++flips) {
        for (int rep = 0; rep < 3; ++rep) {
          BqEncodedTile m = tile;
          for (int f = 0; f < flips; ++f) {
            const std::size_t b = bit(rng);
            m.payload[b / 8] ^= static_cast<std::uint8_t>(0x80u >> (b % 8));
          }
          check(m, std::to_string(flips) + " bit flips");
        }
      }
      for (int rep = 0; rep < 2; ++rep) {
        BqEncodedTile m = tile;
        m.payload[bit(rng) / 8] = static_cast<std::uint8_t>(rng());
        check(m, "an overwritten byte");
      }
      for (const std::size_t len : {std::size_t{0}, size / 3, size / 2,
                                    size - 1}) {
        BqEncodedTile m = tile;
        m.payload.resize(len);
        check(m, "truncation to " + std::to_string(len) + " bytes");
      }
    }
    BqEncodedTile longer = tile;
    for (int i = 0; i < 3; ++i) {
      longer.payload.push_back(static_cast<std::uint8_t>(rng()));
    }
    check(longer, "3 appended bytes");
    for (int rep = 0; rep < 2; ++rep) {
      BqEncodedTile m = tile;
      m.plane_mask =
          static_cast<std::uint16_t>(m.plane_mask ^ (1u << (rng() % 16)));
      check(m, "a flipped plane-mask bit");
    }
  }
  // The corpus reaches both outcomes.
  EXPECT_GT(decoded, corpus.size());
  EXPECT_GT(refused, corpus.size());
}

}  // namespace
}  // namespace zh
