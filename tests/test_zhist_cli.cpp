// End-to-end checks of the zhist binary built alongside this suite:
// command dispatch, usage text and the flags each command takes,
// flag-value and batch-spec checks, one-line errors, the outputs and
// Step-0 times of the .bq and catalog paths, run reports checked by
// validate_obs, and the flag checks of zh_trace.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <random>
#include <string>
#include <utility>

#include "core/baseline.hpp"
#include "data/dem_synth.hpp"
#include "io/ascii_grid.hpp"
#include "io/bq_file.hpp"
#include "io/catalog.hpp"
#include "io/histogram_io.hpp"
#include "io/vector_io.hpp"
#include "io/zgrid.hpp"
#include "obs/json.hpp"
#include "test_util.hpp"

namespace zh {
namespace {

class ZhistCli : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("zh_cli_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  [[nodiscard]] std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  /// Run `<exe> <args>` with stdout discarded and stderr sent to `err`
  /// (discarded when empty); returns its exit code.
  static int run(const char* exe, const std::string& args,
                 const std::string& err) {
    const std::string cmd = std::string("'") + exe + "' " + args +
                            " >/dev/null 2>" +
                            (err.empty() ? "&1" : "'" + err + "'");
    const int status = std::system(cmd.c_str());
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }
  static int zhist(const std::string& args, const std::string& err = {}) {
    return run(ZH_ZHIST, args, err);
  }
  static int validate_obs(const std::string& args,
                          const std::string& err = {}) {
    return run(ZH_VALIDATE_OBS, args, err);
  }
  static int zh_trace(const std::string& args, const std::string& err = {}) {
    return run(ZH_ZH_TRACE, args, err);
  }

  static std::string slurp(const std::string& p) {
    std::ifstream in(p, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
  }

  std::filesystem::path dir_;
};

TEST_F(ZhistCli, EncodeRejectsRasterWithNodata) {
  // A .bq container has no nodata field: encoding must fail loudly
  // instead of writing a file whose nodata cells later get counted.
  DemRaster r = test::random_raster(24, 24, 5, 63,
                                    GeoTransform(0.0, 2.4, 0.1, 0.1));
  r.set_nodata(7);
  write_ascii_grid(path("r.asc"), r);
  EXPECT_EQ(zhist("encode '" + path("r.asc") + "' '" + path("r.bq") +
                  "' --tile 8"),
            1);
  EXPECT_FALSE(std::filesystem::exists(path("r.bq")));
}

TEST_F(ZhistCli, HistOnBqTimesStep0AndMatchesZgrid) {
  const DemRaster r = test::random_raster(48, 64, 9, 80,
                                          GeoTransform(0.0, 4.8, 0.1, 0.1));
  write_zgrid(path("r.zgrid"), r);
  write_polygon_tsv(path("zones.tsv"),
                    test::random_polygon_set(
                        4, GeoBox{0.4, 0.4, 4.0, 4.4}, 6, true));
  ASSERT_EQ(zhist("encode '" + path("r.zgrid") + "' '" + path("r.bq") +
                  "' --tile 8"),
            0);
  const std::string common =
      "'" + path("zones.tsv") + "' --tile 8 --bins 64 -o ";
  ASSERT_EQ(zhist("hist '" + path("r.zgrid") + "' " + common + "'" +
                  path("zgrid.csv") + "'"),
            0);
  ASSERT_EQ(zhist("hist '" + path("r.bq") + "' " + common + "'" +
                  path("bq.csv") + "' --metrics '" + path("m.json") + "'"),
            0);
  // The two paths that decode the whole file first: the cluster driver,
  // and a --tile that re-tiles the tile-8 file.
  const std::string bq_zones =
      "hist '" + path("r.bq") + "' '" + path("zones.tsv") + "' --bins 64 ";
  ASSERT_EQ(zhist(bq_zones + "--ranks 2 --partitions 2x2 --tile 8 -o '" +
                  path("cluster.csv") + "'"),
            0);
  ASSERT_EQ(zhist(bq_zones + "--tile 16 -o '" + path("retiled.csv") + "'"),
            0);

  EXPECT_FALSE(slurp(path("zgrid.csv")).empty());
  EXPECT_EQ(slurp(path("bq.csv")), slurp(path("zgrid.csv")));
  EXPECT_EQ(slurp(path("cluster.csv")), slurp(path("zgrid.csv")));
  EXPECT_EQ(slurp(path("retiled.csv")), slurp(path("zgrid.csv")));
  const obs::JsonValue report = obs::parse_json_file(path("m.json"));
  const obs::JsonValue* times = report.find("times_s");
  ASSERT_NE(times, nullptr);
  const obs::JsonValue* step0 = times->find("step0");
  ASSERT_NE(step0, nullptr);
  EXPECT_GT(step0->number, 0.0);
}

// Every decode a run does is its Step 0: the whole-file decode of the
// cluster path, of a --tile that re-tiles the file and of a query batch,
// as well as the filter-first decode. The same runs over the .zgrid
// decode nothing and report 0.
TEST_F(ZhistCli, EveryBqDecodeIsStep0) {
  write_zgrid(path("r.zgrid"),
              test::random_raster(48, 64, 9, 80,
                                  GeoTransform(0.0, 4.8, 0.1, 0.1)));
  write_polygon_tsv(path("zones.tsv"),
                    test::random_polygon_set(
                        4, GeoBox{0.4, 0.4, 4.0, 4.4}, 6, true));
  ASSERT_EQ(zhist("encode '" + path("r.zgrid") + "' '" + path("r.bq") +
                  "' --tile 8"),
            0);
  const auto step0 = [&](const std::string& args) {
    const std::string metrics = path("m.json");
    std::filesystem::remove(metrics);
    EXPECT_EQ(zhist(args + " --metrics '" + metrics + "'"), 0) << args;
    const obs::JsonValue report = obs::parse_json_file(metrics);
    const obs::JsonValue* times = report.find("times_s");
    const obs::JsonValue* s0 = times ? times->find("step0") : nullptr;
    EXPECT_NE(s0, nullptr) << args;
    return s0 ? s0->number : -1.0;
  };
  for (const char* ext : {".bq", ".zgrid"}) {
    SCOPED_TRACE(ext);
    const std::string raster = path(std::string("r") + ext);
    const std::string hist = "hist '" + raster + "' '" + path("zones.tsv") +
                             "' --bins 64 -o '" + path("h.csv") + "' ";
    std::ofstream(path("batch.json"))
        << "{\"tile\": 8, \"queries\": [{\"raster\": \"" << raster
        << "\", \"zones\": \"" << path("zones.tsv")
        << "\", \"bins\": 64, \"out\": \"" << path("q.csv") << "\"}]}";
    const std::string runs[] = {
        hist + "--tile 8",                    // filter-first on the .bq
        hist + "--tile 8 --partitions 2x1",   // cluster driver
        hist + "--tile 16",                   // re-tiled
        "query --batch '" + path("batch.json") + "'",
    };
    for (const std::string& run : runs) {
      if (std::string(ext) == ".bq") {
        EXPECT_GT(step0(run), 0.0) << run;
      } else {
        EXPECT_EQ(step0(run), 0.0) << run;
      }
    }
  }
}

// A command takes only the flags its synopsis lists: any other flag is a
// usage error, before an input is read or an output written.
TEST_F(ZhistCli, CommandsRefuseFlagsTheyDoNotTake) {
  write_zgrid(path("r.zgrid"),
              test::random_raster(24, 24, 3, 50,
                                  GeoTransform(0.0, 2.4, 0.1, 0.1)));
  const PolygonSet zones =
      test::random_polygon_set(2, GeoBox{0.2, 0.2, 2.2, 2.2}, 5, false);
  write_polygon_tsv(path("zones.tsv"), zones);
  const BqCompressedRaster bq = BqCompressedRaster::encode(
      test::random_raster(24, 24, 4, 50, GeoTransform(0.0, 2.4, 0.1, 0.1)),
      8);
  write_bq(path("r.bq"), bq);
  write_catalog(path("cat"), {{"r", &bq}}, zones);
  std::ofstream(path("batch.json"))
      << "{\"tile\": 8, \"queries\": [{\"raster\": \"" << path("r.zgrid")
      << "\", \"zones\": \"" << path("zones.tsv") << "\", \"out\": \""
      << path("out.csv") << "\"}]}";
  const std::string r = "'" + path("r.zgrid") + "' ";
  const std::string z = "'" + path("zones.tsv") + "' ";
  const std::string out = "'" + path("out.csv") + "' ";
  // Each command line writes out.csv when its foreign flag is ignored.
  const std::string cases[] = {
      "catalog '" + path("cat") + "' -o " + out + "--tile 8 --metrics '" +
          path("m.json") + "'",
      "catalog '" + path("cat") + "' -o " + out + "--trace '" +
          path("t.json") + "'",
      "catalog '" + path("cat") + "' -o " + out + "--report",
      "encode " + r + out + "--tile 8 --ranks 7",
      "encode " + r + out + "--metrics '" + path("m.json") + "'",
      "decode '" + path("r.bq") + "' " + out + "--tile 8",
      "synth " + out + "--rows 8 --cols 8 --bins 16",
      "zones " + out + "--zones 3 --tile 8",
      "simplify " + z + out + "--eps 0.01 --stats",
      "query --batch '" + path("batch.json") + "' -o " + out,
      "query --batch '" + path("batch.json") + "' --ranks 2",
      "hist " + r + z + "-o " + out + "--eps 0.1",
      "hist " + r + z + "-o " + out + "--batch '" + path("batch.json") + "'",
  };
  for (const std::string& args : cases) {
    SCOPED_TRACE(args);
    for (const char* output : {"out.csv", "m.json", "t.json"}) {
      std::filesystem::remove(path(output));
    }
    EXPECT_EQ(zhist(args, path("err.txt")), 2);
    const std::string err = slurp(path("err.txt"));
    EXPECT_NE(err.find("unknown flag: "), std::string::npos) << err;
    EXPECT_NE(err.find("usage:"), std::string::npos) << err;
    EXPECT_FALSE(std::filesystem::exists(path("out.csv")));
    EXPECT_FALSE(std::filesystem::exists(path("m.json")));
    EXPECT_FALSE(std::filesystem::exists(path("t.json")));
  }
  EXPECT_EQ(zhist("validate " + z + "--stats"), 2);
}

// A refused input prints one line: "error: " and what was wrong with it,
// not where in the source the check sits.
TEST_F(ZhistCli, RefusedInputPrintsItsMessageAlone) {
  write_zgrid(path("r.zgrid"),
              test::random_raster(32, 48, 3, 50,
                                  GeoTransform(0.0, 3.2, 0.1, 0.1)));
  write_polygon_tsv(path("zones.tsv"),
                    test::random_polygon_set(
                        2, GeoBox{0.2, 0.2, 3.0, 3.0}, 5, false));
  ASSERT_EQ(zhist("encode '" + path("r.zgrid") + "' '" + path("r.bq") +
                  "' --tile 8"),
            0);
  std::string bytes = slurp(path("r.bq"));
  bytes[bytes.size() / 2] ^= 1;
  std::ofstream(path("bad.bq"), std::ios::binary) << bytes;
  std::ofstream(path("nozones.json"))
      << "{\"queries\": [{\"raster\": \"" << path("r.zgrid") << "\"}]}";
  // Each command line and the message its one line must carry.
  const std::pair<std::string, std::string> cases[] = {
      {"query --batch '" + path("nozones.json") + "'",
       "query 0 needs a \"zones\" path"},
      // 32 x 48 cells at tile 8: 4 x 6 tiles.
      {"hist '" + path("r.zgrid") + "' '" + path("zones.tsv") +
           "' --tile 8 --partitions 9x9 -o '" + path("out.csv") + "'",
       "fewer tiles than partitions: 4x6 tiles vs 9x9 blocks"},
      {"hist '" + path("bad.bq") + "' '" + path("zones.tsv") + "' -o '" +
           path("out.csv") + "'",
       "CRC"},
  };
  for (const auto& [args, message] : cases) {
    SCOPED_TRACE(args);
    std::filesystem::remove(path("out.csv"));
    EXPECT_EQ(zhist(args, path("err.txt")), 1);
    EXPECT_FALSE(std::filesystem::exists(path("out.csv")));
    const std::string err = slurp(path("err.txt"));
    EXPECT_EQ(std::count(err.begin(), err.end(), '\n'), 1) << err;
    EXPECT_EQ(err.rfind("error: ", 0), 0u) << err;
    EXPECT_NE(err.find(message), std::string::npos) << err;
    EXPECT_EQ(err.find(".cpp:"), std::string::npos) << err;
    EXPECT_EQ(err.find("requirement failed"), std::string::npos) << err;
  }
}

TEST_F(ZhistCli, UsageListsEveryCommand) {
  EXPECT_EQ(zhist("", path("usage.txt")), 2);
  const std::string usage = slurp(path("usage.txt"));
  for (const char* cmd : {"hist", "encode", "decode", "synth", "zones",
                          "simplify", "validate", "catalog", "query"}) {
    EXPECT_NE(usage.find(std::string("zhist ") + cmd + " "),
              std::string::npos)
        << cmd << " missing from usage:\n"
        << usage;
  }
  // Removed commands and flags are unknown.
  EXPECT_EQ(zhist("render a b"), 2);
  EXPECT_EQ(zhist("points a b"), 2);
  EXPECT_EQ(zhist("hist a b --metrics-port 0", path("flag.txt")), 2);
  EXPECT_NE(slurp(path("flag.txt")).find("unknown flag: --metrics-port"),
            std::string::npos);
  EXPECT_EQ(usage.find("--metrics-port"), std::string::npos) << usage;
  EXPECT_EQ(usage.find("--metrics-linger-ms"), std::string::npos) << usage;
  // --resume without a journal directory is refused before any input
  // is read (`a` does not exist).
  EXPECT_EQ(zhist("hist a b --resume", path("resume.txt")), 2);
  EXPECT_NE(slurp(path("resume.txt")).find("--resume needs --checkpoint-dir"),
            std::string::npos);
  // Every journal record is fsynced: there is no interval to set.
  EXPECT_EQ(zhist("hist a b --checkpoint-interval 4", path("interval.txt")),
            2);
  EXPECT_NE(slurp(path("interval.txt"))
                .find("unknown flag: --checkpoint-interval"),
            std::string::npos);
  EXPECT_EQ(usage.find("--checkpoint-interval"), std::string::npos) << usage;
}

TEST_F(ZhistCli, RejectsFlagValuesThatWouldWrap) {
  write_zgrid(path("r.zgrid"),
              test::random_raster(24, 24, 3, 50,
                                  GeoTransform(0.0, 2.4, 0.1, 0.1)));
  write_polygon_tsv(path("zones.tsv"),
                    test::random_polygon_set(
                        2, GeoBox{0.2, 0.2, 2.2, 2.2}, 5, false));
  const std::string hist =
      "hist '" + path("r.zgrid") + "' '" + path("zones.tsv") + "' -o '" +
      path("out.csv") + "' ";
  const std::string simplify =
      "simplify '" + path("zones.tsv") + "' '" + path("out.csv") + "' ";
  // A `zhist query` spec with one query into out.csv: `bins` is the
  // query's raw JSON value and `tile` the spec's (left out when empty).
  int specs = 0;
  const auto query = [&](const std::string& bins, const std::string& tile) {
    const std::string spec = path("q" + std::to_string(specs++) + ".json");
    std::ofstream out(spec);
    out << '{';
    if (!tile.empty()) out << "\"tile\": " << tile << ", ";
    out << "\"queries\": [{\"raster\": \"" << path("r.zgrid")
        << "\", \"zones\": \"" << path("zones.tsv")
        << "\", \"bins\": " << bins << ", \"out\": \"" << path("out.csv")
        << "\"}]}";
    return "query --batch '" + spec + "'";
  };
  const std::pair<std::string, std::string> cases[] = {
      // 2^32 + 1 and 2^32 + 3 read as 1 and 3 after a 32-bit wrap.
      {hist + "--bins 4294967297", "--bins"},
      {"zones '" + path("out.csv") + "' --zones 4294967299", "--zones"},
      {hist + "--ranks -1", "--ranks"},
      {hist + "--tile 12abc", "--tile"},
      {hist + "--partitions 2x-1", "--partitions"},
      // A trailing suffix must not be dropped, and inf would keep every
      // vertex.
      {simplify + "--eps 0.01abc", "--eps"},
      {simplify + "--eps inf", "--eps"},
      // A fault plan is read with the flags: 2^32 + 1 would crash rank
      // 1, and "none" would script a crash that never fires.
      {hist + "--fault-plan crash=4294967297@partition_start", "'crash'"},
      {hist + "--fault-plan crash=1@none", "crash point 'none'"},
      // Aborts no rank can meet: a one-rank run visits no rank
      // checkpoint, and without --checkpoint-dir no journal record is
      // ever appended.
      {hist + "--tile 8 --partitions 2x1 --fault-plan abort=startup",
       "abort at startup never fires"},
      {hist + "--tile 8 --ranks 3 --partitions 2x3 "
              "--fault-plan abort=journal_record",
       "abort at journal_record never fires"},
      // Batch-spec numbers follow the same rule. Cast unchecked, 2^32 + 16
      // would wrap to 16 bins, 16.7 truncate to 16 and -1 overflow; a
      // string must not fall back to the default.
      {query("4294967312", ""), "\"bins\""},
      {query("16.7", ""), "\"bins\""},
      {query("-1", ""), "\"bins\""},
      {query("\"16\"", "\"10\""), "\"tile\""},
  };
  for (const auto& [args, flag] : cases) {
    SCOPED_TRACE(args);
    EXPECT_EQ(zhist(args, path("err.txt")), 1);
    EXPECT_FALSE(std::filesystem::exists(path("out.csv")));
    const std::string err = slurp(path("err.txt"));
    EXPECT_NE(err.find(flag), std::string::npos) << err;
    EXPECT_EQ(std::count(err.begin(), err.end(), '\n'), 1) << err;
  }
  // An fsync-interval flag is unknown: a usage error, before any file.
  EXPECT_EQ(zhist(hist + "--checkpoint-interval 4294967296 --checkpoint-dir '" +
                      path("ck") + "'",
                  path("err.txt")),
            2);
  EXPECT_FALSE(std::filesystem::exists(path("out.csv")));
  EXPECT_NE(slurp(path("err.txt")).find("unknown flag: --checkpoint-interval"),
            std::string::npos);
}

TEST_F(ZhistCli, QuerySpecIsCheckedBeforeAnyFile) {
  write_zgrid(path("r.zgrid"),
              test::random_raster(24, 24, 3, 50,
                                  GeoTransform(0.0, 2.4, 0.1, 0.1)));
  write_polygon_tsv(path("zones.tsv"),
                    test::random_polygon_set(
                        2, GeoBox{0.2, 0.2, 2.2, 2.2}, 5, false));
  const std::string raster = "\"raster\": \"" + path("r.zgrid") + "\"";
  const std::string zones = "\"zones\": \"" + path("zones.tsv") + "\"";
  const std::string out = "\"out\": \"" + path("out.csv") + "\"";
  const std::string good = "{" + raster + ", " + zones + ", " + out + "}";
  // Each spec and the key its one-line error names.
  const std::pair<std::string, std::string> cases[] = {
      // A non-string "out" must not mean "no CSV".
      {"{\"queries\": [{" + raster + ", " + zones + ", \"out\": 7}]}",
       "\"out\""},
      // Unknown keys, at the top level and in a query, must not be
      // ignored.
      {"{\"tiles\": 8, \"queries\": [" + good + "]}", "\"tiles\""},
      {"{\"queries\": [{" + raster + ", " + zones + ", " + out +
           ", \"bin\": 16}]}",
       "\"bin\""},
      // A bad second query stops the run before the first query's
      // raster is read or its CSV opened.
      {"{\"queries\": [" + good + ", {" + raster +
           ", \"zone\": \"z.tsv\"}]}",
       "\"zone\""},
  };
  int specs = 0;
  for (const auto& [spec, key] : cases) {
    SCOPED_TRACE(spec);
    const std::string file = path("q" + std::to_string(specs++) + ".json");
    std::ofstream(file) << spec;
    EXPECT_EQ(zhist("query --batch '" + file + "' --metrics '" +
                        path("m.json") + "'",
                    path("err.txt")),
              1);
    EXPECT_FALSE(std::filesystem::exists(path("out.csv")));
    EXPECT_FALSE(std::filesystem::exists(path("m.json")));
    const std::string err = slurp(path("err.txt"));
    EXPECT_NE(err.find(key), std::string::npos) << err;
    EXPECT_EQ(std::count(err.begin(), err.end(), '\n'), 1) << err;
  }
  std::ofstream(path("good.json")) << "{\"tile\": 8, \"queries\": [" + good +
                                          "]}";
  EXPECT_EQ(zhist("query --batch '" + path("good.json") + "'"), 0);
  EXPECT_TRUE(std::filesystem::exists(path("out.csv")));
}

TEST_F(ZhistCli, ReportShowsThePartitionSchemaThatRan) {
  write_zgrid(path("r.zgrid"),
              test::random_raster(48, 48, 4, 60,
                                  GeoTransform(0.0, 4.8, 0.1, 0.1)));
  write_polygon_tsv(path("zones.tsv"),
                    test::random_polygon_set(
                        5, GeoBox{0.3, 0.3, 4.5, 4.5}, 6, true));
  const std::string hist = "hist '" + path("r.zgrid") + "' '" +
                           path("zones.tsv") + "' --bins 64 --tile 8 -o '" +
                           path("h.csv") + "' --metrics '" + path("m.json") +
                           "' ";
  // Without --partitions, the cluster driver runs one stripe per rank.
  const std::pair<std::string, std::string> cases[] = {
      {"", "1x1"},
      {"--ranks 3", "3x1"},
      {"--ranks 2 --partitions 2x3", "2x3"},
  };
  for (const auto& [flags, schema] : cases) {
    SCOPED_TRACE(flags);
    ASSERT_EQ(zhist(hist + flags), 0);
    const obs::JsonValue report = obs::parse_json_file(path("m.json"));
    const obs::JsonValue* config = report.find("config");
    ASSERT_NE(config, nullptr);
    const obs::JsonValue* partitions = config->find("partitions");
    ASSERT_NE(partitions, nullptr);
    EXPECT_EQ(partitions->str, schema);
  }
}

TEST_F(ZhistCli, CatalogMatchesOracle) {
  // Cell values reach past the bin count, so the top-bin clamp counts.
  const DemRaster west = generate_dem(
      64, 64, GeoTransform(0.0, 6.4, 0.1, 0.1), {.max_value = 99});
  const DemRaster east = generate_dem(
      64, 96, GeoTransform(6.4, 6.4, 0.1, 0.1), {.max_value = 99});
  const BqCompressedRaster cwest = BqCompressedRaster::encode(west, 8);
  const BqCompressedRaster ceast = BqCompressedRaster::encode(east, 8);
  const PolygonSet zones = test::random_polygon_set(
      9, GeoBox{0.5, 0.5, 15.5, 5.9}, 5, /*holes=*/true);
  write_catalog(path("cat"), {{"west", &cwest}, {"east", &ceast}}, zones);

  HistogramSet expect(zones.size(), 64);
  expect.add(zonal_scanline(west, zones, 64));
  expect.add(zonal_scanline(east, zones, 64));
  write_histogram_csv(path("expect.csv"), expect);
  EXPECT_FALSE(slurp(path("expect.csv")).empty());
  for (const std::string refine : {"brute", "scanline", "auto"}) {
    const std::string out = path("out_" + refine + ".csv");
    ASSERT_EQ(zhist("catalog '" + path("cat") + "' -o '" + out +
                    "' --bins 64 --tile 8 --refine " + refine),
              0);
    EXPECT_EQ(slurp(out), slurp(path("expect.csv"))) << refine;
  }
}

TEST_F(ZhistCli, QueryHonorsRefine) {
  // 64-vertex stars put many edges in every boundary tile: the scanline
  // path scans rows there, the brute path scans none, and both give the
  // same histograms.
  write_zgrid(path("r.zgrid"),
              test::random_raster(64, 64, 8, 60,
                                  GeoTransform(0.0, 6.4, 0.1, 0.1)));
  std::mt19937 rng(31);
  PolygonSet zones;
  zones.add(test::random_star_polygon(rng, 3.2, 3.2, 2.8, 64, true));
  write_polygon_tsv(path("zones.tsv"), zones);
  std::ofstream(path("batch.json"))
      << "{\"tile\": 8, \"queries\": [{\"raster\": \"" << path("r.zgrid")
      << "\", \"zones\": \"" << path("zones.tsv")
      << "\", \"bins\": 64, \"out\": \"" << path("q.csv") << "\"}]}";

  std::string csv[2];
  double rows_scanned[2] = {-1, -1};
  const char* refine[2] = {"brute", "scanline"};
  for (int k = 0; k < 2; ++k) {
    const std::string metrics = path(std::string(refine[k]) + ".json");
    ASSERT_EQ(zhist("query --batch '" + path("batch.json") + "' --refine " +
                    refine[k] + " --metrics '" + metrics + "'"),
              0);
    csv[k] = slurp(path("q.csv"));
    const obs::JsonValue report = obs::parse_json_file(metrics);
    const obs::JsonValue* counters = report.find("counters");
    ASSERT_NE(counters, nullptr);
    const obs::JsonValue* rows = counters->find("pip_rows_scanned");
    ASSERT_NE(rows, nullptr);
    rows_scanned[k] = rows->number;
  }
  EXPECT_EQ(rows_scanned[0], 0.0);
  EXPECT_GT(rows_scanned[1], 0.0);
  EXPECT_FALSE(csv[0].empty());
  EXPECT_EQ(csv[0], csv[1]);
}

TEST_F(ZhistCli, RunReportsPassValidateObs) {
  write_zgrid(path("r.zgrid"),
              test::random_raster(48, 48, 4, 60,
                                  GeoTransform(0.0, 4.8, 0.1, 0.1)));
  write_polygon_tsv(path("zones.tsv"),
                    test::random_polygon_set(
                        5, GeoBox{0.3, 0.3, 4.5, 4.5}, 6, true));
  const std::string hist = "hist '" + path("r.zgrid") + "' '" +
                           path("zones.tsv") + "' --bins 64 --tile 8 ";

  ASSERT_EQ(zhist(hist + "-o '" + path("one.csv") + "' --metrics '" +
                  path("one.json") + "'"),
            0);
  EXPECT_EQ(validate_obs("metrics '" + path("one.json") + "'"), 0);
  // The report prints what the run returned: its counters, no second
  // metrics channel.
  const obs::JsonValue one = obs::parse_json_file(path("one.json"));
  EXPECT_EQ(one.find("metrics"), nullptr);
  ASSERT_NE(one.find("counters"), nullptr);
  EXPECT_NE(one.find("counters")->find("values_clamped"), nullptr);

  // Rank 2 crashes when it finishes its first partition; the result is
  // unchanged and the report still has one row per rank.
  ASSERT_EQ(zhist(hist + "-o '" + path("three.csv") +
                  "' --ranks 3 --fault-plan "
                  "'seed=5,delay=0.05,crash=2@partition_done' --metrics '" +
                  path("three.json") + "' --trace '" +
                  path("three.trace.json") + "'"),
            0);
  EXPECT_EQ(slurp(path("three.csv")), slurp(path("one.csv")));
  EXPECT_EQ(validate_obs("metrics '" + path("three.json") +
                         "' --require-ranks 3"),
            0);

  // A gate value that is not one number in range is a usage error, not
  // a gate that passes: NaN fails no comparison, a suffix must not be
  // dropped, and -1 would switch the rank check off.
  for (const std::string& bad :
       {"trace '" + path("three.trace.json") + "' --min-coverage nan",
        "trace '" + path("three.trace.json") + "' --min-coverage 101",
        "metrics '" + path("three.json") + "' --require-ranks 4abc",
        "metrics '" + path("three.json") + "' --require-ranks abc",
        "metrics '" + path("three.json") + "' --require-ranks -1"}) {
    SCOPED_TRACE(bad);
    EXPECT_EQ(validate_obs(bad, path("usage.txt")), 2);
    EXPECT_NE(slurp(path("usage.txt")).find("usage:"), std::string::npos);
  }

  // A counter renamed to a name no run emits fails the schema check.
  std::string report = slurp(path("three.json"));
  const std::string counter = "\"cells_in_polygons\":";
  const std::size_t at = report.find(counter);
  ASSERT_NE(at, std::string::npos) << report;
  report.replace(at, counter.size(), "\"cells_in_polygon\":");
  std::ofstream(path("bad.json"), std::ios::binary) << report;
  EXPECT_EQ(validate_obs("metrics '" + path("bad.json") + "' --require-ranks 3",
                         path("bad.txt")),
            1);
  EXPECT_NE(slurp(path("bad.txt")).find("cells_in_polygon\""),
            std::string::npos);

#if defined(ZH_ENABLE_OBS)
  // The merged trace of that run passes the obs stage's cluster bound:
  // the run's root span is the longest, and its children cover it.
  EXPECT_EQ(validate_obs("trace '" + path("three.trace.json") +
                         "' --min-coverage 80"),
            0);
#endif
}

TEST_F(ZhistCli, ZhTraceMinCoverageIsOneFractionInRange) {
  write_zgrid(path("r.zgrid"),
              test::random_raster(48, 48, 4, 60,
                                  GeoTransform(0.0, 4.8, 0.1, 0.1)));
  write_polygon_tsv(path("zones.tsv"),
                    test::random_polygon_set(
                        5, GeoBox{0.3, 0.3, 4.5, 4.5}, 6, true));
  ASSERT_EQ(zhist("hist '" + path("r.zgrid") + "' '" + path("zones.tsv") +
                  "' --bins 64 --tile 8 --ranks 3 --fault-plan "
                  "'seed=5,delay=0.05' -o '" + path("h.csv") +
                  "' --trace '" + path("t.json") + "'"),
            0);
  // A gate value that is not one number from 0 to 1 is a usage error:
  // read as 0, "x2" and "nan" would pass any trace.
  for (const char* bad : {"x2", "nan", "-0.5", "1.5", "0.5x", ""}) {
    SCOPED_TRACE(bad);
    EXPECT_EQ(zh_trace("'" + path("t.json") + "' --min-coverage '" + bad +
                           "'",
                       path("usage.txt")),
              2);
    EXPECT_NE(slurp(path("usage.txt")).find("usage:"), std::string::npos);
  }
#if defined(ZH_ENABLE_OBS)
  // The critical path of the merged trace tiles its wall clock.
  EXPECT_EQ(zh_trace("'" + path("t.json") + "' --min-coverage 0.95"), 0);
#endif
}

}  // namespace
}  // namespace zh
