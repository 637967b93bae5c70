// Crash-consistent run journal (DESIGN.md 5d): header/manifest
// verification, torn-tail truncation at every byte, bit-flip fuzz,
// generation semantics across append, first-copy-wins merging, and the
// writer's duplicate guards.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <vector>

#include "common/crc32.hpp"
#include "data/county_synth.hpp"
#include "data/dem_synth.hpp"
#include "io/journal.hpp"

namespace zh {
namespace {

// Mirrors the on-disk constants in journal.cpp; a drift here means the
// format changed and these tests must be revisited deliberately.
constexpr std::size_t kHeaderBytes = 52;

class JournalFile : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("zh_journal_" + std::to_string(::getpid()));
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

/// 4 partitions x (3 groups x 8 bins) test manifest.
RunManifest test_manifest() {
  RunManifest m;
  m.raster_fingerprint = 0x1111222233334444ull;
  m.zones_fingerprint = 0x5555666677778888ull;
  m.config_fingerprint = 0x9999AAAABBBBCCCCull;
  m.partition_count = 4;
  m.groups = 3;
  m.bins = 8;
  return m;
}

/// Dense 24-slot histogram with the given sparse entries set.
std::vector<BinCount> bins_with(
    std::initializer_list<std::pair<std::size_t, BinCount>> entries) {
  std::vector<BinCount> out(24, 0);
  for (const auto& [slot, count] : entries) out[slot] = count;
  return out;
}

/// A journal with three generation-0 records (parts 0, 2, 1).
void write_three_records(const std::string& p) {
  JournalWriter w = JournalWriter::create(p, test_manifest());
  w.on_partition_complete(0, bins_with({{0, 5}, {7, 2}}));
  w.on_partition_complete(2, bins_with({{7, 3}, {23, 9}}));
  w.on_partition_complete(1, bins_with({{12, 1}}));
}

TEST_F(JournalFile, RoundTripRecoversRecordsAndMergedBins) {
  write_three_records(path("j"));
  const JournalLoad load = load_journal(path("j"));

  EXPECT_EQ(load.manifest, test_manifest());
  ASSERT_EQ(load.records.size(), 3u);
  EXPECT_EQ(load.records[0], (JournalRecordInfo{0, 0}));
  EXPECT_EQ(load.records[1], (JournalRecordInfo{0, 2}));
  EXPECT_EQ(load.records[2], (JournalRecordInfo{0, 1}));
  EXPECT_EQ(load.completed, (std::vector<std::uint32_t>{0, 2, 1}));
  EXPECT_EQ(load.merged_bins,
            bins_with({{0, 5}, {7, 5}, {12, 1}, {23, 9}}));
  EXPECT_EQ(load.last_generation, 0u);
  EXPECT_EQ(load.torn_bytes, 0u);
  EXPECT_EQ(load.valid_bytes, slurp(path("j")).size());
}

TEST_F(JournalFile, FreshJournalLoadsEmpty) {
  { JournalWriter w = JournalWriter::create(path("j"), test_manifest()); }
  const JournalLoad load = load_journal(path("j"));
  EXPECT_TRUE(load.records.empty());
  EXPECT_TRUE(load.completed.empty());
  EXPECT_EQ(load.valid_bytes, kHeaderBytes);
  EXPECT_EQ(load.torn_bytes, 0u);
  EXPECT_EQ(load.merged_bins, std::vector<BinCount>(24, 0));
}

TEST_F(JournalFile, WriterReportsProgress) {
  JournalWriter w = JournalWriter::create(path("j"), test_manifest());
  EXPECT_EQ(w.generation(), 0u);
  EXPECT_EQ(w.records_written(), 0u);
  w.on_partition_complete(3, bins_with({{1, 1}}));
  EXPECT_EQ(w.records_written(), 1u);
}

TEST_F(JournalFile, TruncationAtEveryByteRecoversAPrefix) {
  // The torn-tail rule, exhaustively: cutting the file at ANY byte must
  // either fail the header check (IoError) or load a clean prefix of the
  // records -- never crash, never return partial/garbled bins.
  write_three_records(path("full"));
  const std::vector<char> good = slurp(path("full"));
  const JournalLoad full = load_journal(path("full"));

  for (std::size_t len = 0; len < good.size(); ++len) {
    SCOPED_TRACE("truncated to " + std::to_string(len) + " bytes");
    spit(path("t"), std::vector<char>(
                        good.begin(),
                        good.begin() + static_cast<std::ptrdiff_t>(len)));
    if (len < kHeaderBytes) {
      EXPECT_THROW((void)load_journal(path("t")), IoError);
      continue;
    }
    const JournalLoad load = load_journal(path("t"));
    ASSERT_LE(load.records.size(), full.records.size());
    for (std::size_t i = 0; i < load.records.size(); ++i) {
      EXPECT_EQ(load.records[i], full.records[i]);
    }
    EXPECT_EQ(load.valid_bytes + load.torn_bytes, len);
    // The merged histogram covers exactly the surviving records.
    std::vector<BinCount> expect(24, 0);
    if (!load.records.empty()) expect = bins_with({{0, 5}, {7, 2}});
    if (load.records.size() >= 2) expect[7] += 3, expect[23] += 9;
    if (load.records.size() >= 3) expect[12] += 1;
    EXPECT_EQ(load.merged_bins, expect);
  }
}

TEST_F(JournalFile, BitFlipFuzzLoadsPrefixOrRejects) {
  // Any single-bit corruption must leave the loader in one of exactly two
  // states: a clean IoError (header/content damage) or a successful load
  // of an unmodified record prefix (frame damage => torn tail). Anything
  // else -- a crash, garbled counts, records past the flip -- is a bug.
  write_three_records(path("full"));
  const std::vector<char> good = slurp(path("full"));
  const JournalLoad full = load_journal(path("full"));

  for (std::size_t byte = 0; byte < good.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      SCOPED_TRACE("flip at byte " + std::to_string(byte) + " bit " +
                   std::to_string(bit));
      std::vector<char> bad = good;
      bad[byte] = static_cast<char>(bad[byte] ^ (1 << bit));
      spit(path("f"), bad);
      try {
        const JournalLoad load = load_journal(path("f"));
        // Loaded: every surviving record must be byte-exact original.
        ASSERT_LE(load.records.size(), full.records.size());
        for (std::size_t i = 0; i < load.records.size(); ++i) {
          EXPECT_EQ(load.records[i], full.records[i]);
        }
        // A flip inside the frame area must cost at least that frame.
        if (byte >= kHeaderBytes) {
          EXPECT_LT(load.records.size(), full.records.size());
        }
      } catch (const IoError&) {
        // Equally acceptable: detected and rejected.
      }
    }
  }
}

TEST_F(JournalFile, AppendContinuesAtNextGeneration) {
  {
    JournalWriter w = JournalWriter::create(path("j"), test_manifest());
    w.on_partition_complete(0, bins_with({{3, 4}}));
    w.on_partition_complete(2, bins_with({{5, 6}}));
  }
  const JournalLoad first = load_journal(path("j"));
  {
    JournalWriter w = JournalWriter::append(path("j"), first);
    EXPECT_EQ(w.generation(), 1u);
    w.on_partition_complete(1, bins_with({{3, 10}}));
    w.on_partition_complete(3, bins_with({{20, 1}}));
  }
  const JournalLoad load = load_journal(path("j"));
  ASSERT_EQ(load.records.size(), 4u);
  EXPECT_EQ(load.records[0], (JournalRecordInfo{0, 0}));
  EXPECT_EQ(load.records[1], (JournalRecordInfo{0, 2}));
  EXPECT_EQ(load.records[2], (JournalRecordInfo{1, 1}));
  EXPECT_EQ(load.records[3], (JournalRecordInfo{1, 3}));
  EXPECT_EQ(load.last_generation, 1u);
  EXPECT_EQ(load.completed, (std::vector<std::uint32_t>{0, 2, 1, 3}));
  EXPECT_EQ(load.merged_bins, bins_with({{3, 14}, {5, 6}, {20, 1}}));
}

TEST_F(JournalFile, AppendOnEmptyJournalStaysGenerationZero) {
  { JournalWriter w = JournalWriter::create(path("j"), test_manifest()); }
  const JournalLoad load = load_journal(path("j"));
  JournalWriter w = JournalWriter::append(path("j"), load);
  EXPECT_EQ(w.generation(), 0u);  // no records yet: not really a resume
}

TEST_F(JournalFile, AppendCutsTornTailOffOnDisk) {
  write_three_records(path("j"));
  std::vector<char> bytes = slurp(path("j"));
  const std::size_t clean_size = bytes.size();
  // Simulate a kill mid-append: half a plausible frame.
  bytes.insert(bytes.end(), {40, 0, 0, 0, 'x', 'y', 'z'});
  spit(path("j"), bytes);

  const JournalLoad load = load_journal(path("j"));
  EXPECT_EQ(load.records.size(), 3u);
  EXPECT_EQ(load.torn_bytes, 7u);
  {
    JournalWriter w = JournalWriter::append(path("j"), load);
    w.on_partition_complete(3, bins_with({{2, 2}}));
  }
  // The torn bytes are gone from disk and the new frame sits flush
  // against the trusted prefix.
  const JournalLoad after = load_journal(path("j"));
  EXPECT_EQ(after.torn_bytes, 0u);
  ASSERT_EQ(after.records.size(), 4u);
  EXPECT_EQ(after.records[3], (JournalRecordInfo{1, 3}));
  EXPECT_GT(slurp(path("j")).size(), clean_size);
}

TEST_F(JournalFile, WriterRefusesDuplicateWithinGeneration) {
  JournalWriter w = JournalWriter::create(path("j"), test_manifest());
  w.on_partition_complete(1, bins_with({{0, 1}}));
  EXPECT_THROW(w.on_partition_complete(1, bins_with({{0, 1}})),
               InvalidArgument);
}

TEST_F(JournalFile, WriterRefusesRejournalingResumedPartition) {
  {
    JournalWriter w = JournalWriter::create(path("j"), test_manifest());
    w.on_partition_complete(0, bins_with({{0, 1}}));
  }
  const JournalLoad load = load_journal(path("j"));
  JournalWriter w = JournalWriter::append(path("j"), load);
  // Partition 0 is already durable from generation 0: the driver must
  // never hand it to the sink again, and the writer enforces that.
  EXPECT_THROW(w.on_partition_complete(0, bins_with({{0, 1}})),
               InvalidArgument);
}

TEST_F(JournalFile, WriterValidatesArguments) {
  JournalWriter w = JournalWriter::create(path("j"), test_manifest());
  EXPECT_THROW(w.on_partition_complete(4, bins_with({})), InvalidArgument);
  EXPECT_THROW(
      w.on_partition_complete(0, std::vector<BinCount>(23, 0)),
      InvalidArgument);
}

// ------------------------- hand-crafted frames (loader content checks)

void put_u32(std::vector<char>& buf, std::uint32_t v) {
  const char* p = reinterpret_cast<const char*>(&v);
  buf.insert(buf.end(), p, p + sizeof(v));
}

void put_u64(std::vector<char>& buf, std::uint64_t v) {
  const char* p = reinterpret_cast<const char*>(&v);
  buf.insert(buf.end(), p, p + sizeof(v));
}

/// A well-formed frame the writer would never produce on its own.
std::vector<char> craft_frame(
    std::uint32_t generation, std::uint32_t part,
    std::initializer_list<std::pair<std::uint64_t, BinCount>> entries) {
  std::vector<char> payload;
  put_u32(payload, generation);
  put_u32(payload, part);
  put_u64(payload, entries.size());
  for (const auto& [slot, count] : entries) {
    put_u64(payload, slot);
    put_u32(payload, count);
  }
  std::vector<char> frame;
  put_u32(frame, static_cast<std::uint32_t>(payload.size()));
  frame.insert(frame.end(), payload.begin(), payload.end());
  put_u32(frame, crc32(payload.data(), payload.size()));
  return frame;
}

void append_raw(const std::string& p, const std::vector<char>& bytes) {
  std::ofstream os(p, std::ios::binary | std::ios::app);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST_F(JournalFile, FirstCopyWinsAcrossGenerations) {
  {
    JournalWriter w = JournalWriter::create(path("j"), test_manifest());
    w.on_partition_complete(0, bins_with({{4, 7}}));
  }
  // A later generation re-journaling partition 0 with DIFFERENT counts:
  // valid on disk (a crashed resume may race its own acceptance), but
  // the first durable copy must win, mirroring the master's acceptance.
  append_raw(path("j"), craft_frame(1, 0, {{4, 999}}));
  const JournalLoad load = load_journal(path("j"));
  ASSERT_EQ(load.records.size(), 2u);
  EXPECT_EQ(load.completed, (std::vector<std::uint32_t>{0}));
  EXPECT_EQ(load.merged_bins, bins_with({{4, 7}}));
  EXPECT_EQ(load.last_generation, 1u);
}

TEST_F(JournalFile, LoaderRejectsDuplicateWithinAGeneration) {
  {
    JournalWriter w = JournalWriter::create(path("j"), test_manifest());
    w.on_partition_complete(0, bins_with({{4, 7}}));
  }
  // Same generation, same partition, valid CRC: the writer can never
  // produce this, so it is corruption -- a hard error, not a torn tail.
  append_raw(path("j"), craft_frame(0, 0, {{4, 7}}));
  EXPECT_THROW((void)load_journal(path("j")), IoError);
}

TEST_F(JournalFile, LoaderRejectsGenerationDecrease) {
  { JournalWriter w = JournalWriter::create(path("j"), test_manifest()); }
  append_raw(path("j"), craft_frame(1, 0, {}));
  append_raw(path("j"), craft_frame(0, 1, {}));
  EXPECT_THROW((void)load_journal(path("j")), IoError);
}

TEST_F(JournalFile, LoaderRejectsOutOfRangeContent) {
  { JournalWriter w = JournalWriter::create(path("j"), test_manifest()); }
  append_raw(path("j"), craft_frame(0, 7, {}));  // part 7 of 4
  EXPECT_THROW((void)load_journal(path("j")), IoError);

  write_three_records(path("k"));
  append_raw(path("k"), craft_frame(0, 3, {{24, 1}}));  // slot 24 of 24
  EXPECT_THROW((void)load_journal(path("k")), IoError);
}

TEST_F(JournalFile, RejectsForeignMagicAndVersion) {
  spit(path("j"), std::vector<char>(kHeaderBytes, 0));
  EXPECT_THROW((void)load_journal(path("j")), IoError);

  write_three_records(path("k"));
  std::vector<char> bytes = slurp(path("k"));
  const std::uint32_t v2 = 2;
  std::memcpy(bytes.data() + 4, &v2, sizeof(v2));
  spit(path("k"), bytes);
  try {
    (void)load_journal(path("k"));
    FAIL() << "future journal version was not rejected";
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos)
        << e.what();
  }
}

TEST_F(JournalFile, MissingJournalFailsCleanly) {
  EXPECT_THROW((void)load_journal(path("nope")), IoError);
}

// ----------------------------------------- manifest and fingerprints

TEST_F(JournalFile, ManifestMismatchRefusedWithRecoveryHint) {
  RunManifest disk = test_manifest();
  RunManifest now = disk;
  now.raster_fingerprint ^= 1;
  try {
    require_manifest_match(disk, now, "j");
    FAIL() << "changed raster accepted for resume";
  } catch (const IoError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("raster fingerprint"), std::string::npos) << what;
    EXPECT_NE(what.find("delete the checkpoint directory"),
              std::string::npos)
        << what;
  }
  now = disk;
  now.bins += 1;
  EXPECT_THROW(require_manifest_match(disk, now, "j"), IoError);
  require_manifest_match(disk, disk, "j");  // identical: no throw
}

TEST_F(JournalFile, FingerprintsSeeEveryInput) {
  const GeoTransform gt(0.0, 9.6, 0.1, 0.1);
  const DemParams dp{.seed = 17, .max_value = 59};
  std::vector<DemRaster> a;
  a.push_back(generate_dem(96, 96, gt, dp));
  std::vector<DemRaster> b;
  b.push_back(generate_dem(96, 96, gt, dp));
  EXPECT_EQ(fingerprint_rasters(a), fingerprint_rasters(b));
  // One cell changed => different identity.
  b[0].at(50, 50) += 1;
  EXPECT_NE(fingerprint_rasters(a), fingerprint_rasters(b));

  CountyParams cp;
  cp.seed = 4;
  const GeoBox box{-0.5, -0.5, 10.1, 10.1};
  const PolygonSet z1 = generate_counties(box, cp);
  cp.seed = 5;
  const PolygonSet z2 = generate_counties(box, cp);
  EXPECT_EQ(fingerprint_zones(z1), fingerprint_zones(z1));
  EXPECT_NE(fingerprint_zones(z1), fingerprint_zones(z2));

  const std::vector<std::pair<int, int>> schemas = {{2, 2}};
  const ZonalConfig base{.tile_size = 16, .bins = 60};
  const std::uint64_t fp = fingerprint_config(schemas, base);
  ZonalConfig changed = base;
  changed.bins = 61;
  EXPECT_NE(fp, fingerprint_config(schemas, changed));
  changed = base;
  changed.tile_size = 32;
  EXPECT_NE(fp, fingerprint_config(schemas, changed));
  EXPECT_NE(fp, fingerprint_config({{2, 3}}, base));
  // Refine strategy is bit-identity-invariant, so it must NOT change the
  // fingerprint: switching it between runs is a legal resume.
  changed = base;
  changed.refine_strategy = RefineStrategy::kScanline;
  EXPECT_EQ(fp, fingerprint_config(schemas, changed));
}

TEST_F(JournalFile, ConfigFingerprintMatchesJournalsOnDisk) {
  // The configuration `zhist hist --bins 1000 --tile 12 --partitions 2x4`
  // writes. Journals already on disk carry this value in their manifest;
  // a change here makes every one of them refuse to resume.
  const ZonalConfig cli{.tile_size = 12, .bins = 1000,
                        .refine_strategy = RefineStrategy::kAuto};
  EXPECT_EQ(fingerprint_config({{2, 4}}, cli), 0x8580f04d680cd883ull);
}

TEST_F(JournalFile, InputFingerprintsMatchJournalsOnDisk) {
  // A fixed 256 x 160 raster (80 KiB of cells) and a 12-zone layer, both
  // from integer recipes, so the values depend on the fingerprint code
  // alone. Journals already on disk carry these fingerprints in their
  // manifest; a change here makes every one of them refuse to resume.
  DemRaster raster(256, 160, GeoTransform(-100.0, 40.0, 0.01, 0.01));
  std::uint32_t state = 1;
  for (CellValue& v : raster.cells()) {
    state = state * 1664525u + 1013904223u;
    v = static_cast<CellValue>(state >> 16);
  }
  PolygonSet zones;
  for (int z = 0; z < 12; ++z) {
    const double x0 = -100.0 + 0.125 * z;
    const double y0 = 38.0 + 0.0625 * z;
    zones.add(Polygon({Ring{{x0, y0},
                            {x0 + 0.5, y0},
                            {x0 + 0.5, y0 + 0.75},
                            {x0 + 0.25, y0 + 1.0},
                            {x0, y0 + 0.75}}}));
  }
  EXPECT_EQ(fingerprint_rasters({raster}), 0x28576ca7c888a8e4ull);
  EXPECT_EQ(fingerprint_zones(zones), 0x139be6a8b42bbd64ull);
}

TEST_F(JournalFile, MakeManifestAgreesWithDriverPartitioning) {
  std::vector<DemRaster> rasters;
  rasters.push_back(
      generate_dem(96, 96, GeoTransform(0.0, 9.6, 0.1, 0.1),
                   DemParams{.seed = 17, .max_value = 59}));
  CountyParams cp;
  cp.seed = 4;
  const PolygonSet zones =
      generate_counties(GeoBox{-0.5, -0.5, 10.1, 10.1}, cp);
  ClusterRunConfig cfg;
  cfg.zonal = {.tile_size = 16, .bins = 60};
  const RunManifest m = make_manifest(rasters, {{2, 2}}, zones, cfg);
  EXPECT_EQ(m.partition_count, 4u);
  EXPECT_EQ(m.groups, zones.size());
  EXPECT_EQ(m.bins, 60u);
  EXPECT_NE(m.raster_fingerprint, 0u);
  EXPECT_NE(m.zones_fingerprint, 0u);
}

}  // namespace
}  // namespace zh
