// Every zonal entry point runs the one filter-first executor, and each
// must match the per-cell oracle (zonal_scanline) on the same inputs.
// Raw entry points get a raster with a nodata value; BQ entry points get
// the same cells without one (the container cannot store nodata). Cell
// values reach past the bin count, so the top-bin clamp is exercised.
// Four zone layers run against it: zones in the western part of the
// raster (some tiles are never demanded), two overlapping zones (a tile
// inside both is counted once per zone), one zone covering the whole
// raster (its inside group is split across the pool), and twelve zones
// of which nine miss the raster (a result holds three rows). Each run's
// cells_in_polygons, which the zone-row kernels tally, must equal the
// sum of the histograms it counted; each result holds a row for exactly
// the zones its plan pairs, and writes the oracle's CSV byte for byte.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <numeric>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "core/baseline.hpp"
#include "core/cluster_driver.hpp"
#include "core/multiband.hpp"
#include "core/pipeline.hpp"
#include "core/query_engine.hpp"
#include "core/zone_rows.hpp"
#include "io/catalog.hpp"
#include "io/histogram_io.hpp"
#include "io/journal.hpp"
#include "test_util.hpp"

namespace zh {
namespace {

constexpr BinIndex kBins = 200;
constexpr CellValue kMaxValue = 299;  // values >= kBins clamp
constexpr CellValue kNodata = 7;
const ZonalConfig kConfig{.tile_size = 8, .bins = kBins};

/// The BQ-path raster: no nodata value.
DemRaster dense_raster() {
  return test::random_raster(64, 96, 3, kMaxValue,
                             GeoTransform(0.0, 6.4, 0.1, 0.1));
}

/// The raw-path raster: the same cells, with kNodata declared.
DemRaster nodata_raster() {
  DemRaster r = dense_raster();
  r.set_nodata(kNodata);
  return r;
}

/// Zones in the western half of the 9.6 x 6.4 extent.
PolygonSet zones() {
  return test::random_polygon_set(11, GeoBox{0.3, 0.3, 4.5, 6.1}, 5,
                                  /*holes_every_other=*/true);
}

Ring box_ring(double x0, double y0, double x1, double y1) {
  return {{x0, y0}, {x1, y0}, {x1, y1}, {x0, y1}};
}

/// Two zones overlapping in x 3.15..6.05: the tiles there lie inside
/// both. The eastern zone has a hole, so it also has inner boundaries.
PolygonSet overlapping_zones() {
  PolygonSet set;
  set.add(Polygon({box_ring(0.35, 0.45, 6.05, 5.95)}));
  Ring hole = box_ring(6.55, 2.05, 7.45, 3.95);
  std::reverse(hole.begin(), hole.end());
  set.add(Polygon({box_ring(3.15, 0.25, 9.25, 6.15), hole}));
  return set;
}

/// One zone past every edge of the raster: all tiles are inside it.
PolygonSet whole_raster_zone() {
  PolygonSet set;
  set.add(Polygon({box_ring(-1.0, -1.0, 10.6, 7.4)}));
  return set;
}

/// Twelve zones, nine of them east of the raster: only zones 2, 7 and
/// 10 can pair with a tile.
PolygonSet mostly_missing_zones() {
  const PolygonSet on =
      test::random_polygon_set(13, GeoBox{0.3, 0.3, 9.3, 6.1}, 3, true);
  const PolygonSet off =
      test::random_polygon_set(14, GeoBox{20.0, 0.3, 40.0, 6.1}, 9, true);
  PolygonSet set;
  PolygonId next_on = 0;
  PolygonId next_off = 0;
  for (PolygonId z = 0; z < 12; ++z) {
    const bool is_on = z == 2 || z == 7 || z == 10;
    set.add(is_on ? on[next_on++] : off[next_off++]);
  }
  return set;
}

struct ZoneInput {
  const char* name;
  PolygonSet zones;
};

std::vector<ZoneInput> zone_inputs() {
  return {{"western", zones()},
          {"overlapping", overlapping_zones()},
          {"whole_raster", whole_raster_zone()},
          {"mostly_missing", mostly_missing_zones()}};
}

/// A scratch directory of its own for each call, removed on scope exit.
class ScratchDir {
 public:
  ScratchDir() {
    static std::atomic<int> next{0};
    path_ = std::filesystem::temp_directory_path() /
            ("zh_entry_" + std::to_string(::getpid()) + "_" +
             std::to_string(next++));
    std::filesystem::create_directories(path_);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  ~ScratchDir() { std::filesystem::remove_all(path_); }

  [[nodiscard]] std::string path(const std::string& name) const {
    return (path_ / name).string();
  }

 private:
  std::filesystem::path path_;
};

/// The bytes write_histogram_csv writes for `h`.
std::string csv_bytes(const HistogramSet& h) {
  const ScratchDir dir;
  write_histogram_csv(dir.path("h.csv"), h);
  std::ifstream in(dir.path("h.csv"), std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

ZonalPlan plan_for(const DemRaster& r, const PolygonSet& z) {
  return make_plan(z, TilingScheme(r.rows(), r.cols(), kConfig.tile_size),
                   r.transform());
}

/// What an entry point returns: the zone histograms checked against the
/// oracle, the run's cells_in_polygons, and the total of every histogram
/// the run counted (all bands of a series).
struct EntryRun {
  HistogramSet hist;
  std::uint64_t cells_in_polygons = 0;
  std::uint64_t counted_total = 0;
};

/// Journals the first `cap` acceptances and drops the rest: the journal a
/// process killed after `cap` records leaves behind.
class CappedSink final : public CheckpointSink {
 public:
  CappedSink(JournalWriter& inner, std::uint64_t cap)
      : inner_(&inner), cap_(cap) {}
  void on_partition_complete(std::uint32_t part_index,
                             std::span<const BinCount> bins) override {
    if (inner_->records_written() < cap_) {
      inner_->on_partition_complete(part_index, bins);
    }
  }

 private:
  JournalWriter* inner_;
  std::uint64_t cap_;
};

EntryRun entry_run(HistogramSet hist, const WorkCounters& work) {
  const std::uint64_t total = hist.total();
  return {std::move(hist), work.cells_in_polygons, total};
}

/// The cluster driver over a 2x3 partition schema on `ranks` ranks.
EntryRun run_driver(const DemRaster& r, const PolygonSet& z,
                    std::size_t ranks) {
  ClusterRunConfig cfg;
  cfg.ranks = ranks;
  cfg.zonal = kConfig;
  ClusterRunResult res = run_cluster_zonal({r}, {{2, 3}}, z, cfg);
  return entry_run(std::move(res.merged), res.work);
}

/// The cluster driver on 3 ranks with a journal: a first generation
/// journals two of the six partitions, as a process killed after two
/// records would, and a second resumes from that journal.
EntryRun run_journaled(const DemRaster& r, const PolygonSet& z) {
  const ScratchDir dir;
  const std::string path = dir.path("run.journal");
  ClusterRunConfig cfg;
  cfg.ranks = 3;
  cfg.zonal = kConfig;
  const std::vector<DemRaster> rasters{r};
  const std::vector<std::pair<int, int>> schemas{{2, 3}};
  {
    JournalWriter journal = JournalWriter::create(
        path, make_manifest(rasters, schemas, z, cfg));
    CappedSink first_two(journal, 2);
    cfg.checkpoint.sink = &first_two;
    (void)run_cluster_zonal(rasters, schemas, z, cfg);
  }
  const JournalLoad load = load_journal(path);
  EXPECT_EQ(load.completed.size(), 2u);
  JournalWriter journal = JournalWriter::append(path, load);
  cfg.checkpoint.sink = &journal;
  cfg.checkpoint.completed_partitions = load.completed;
  cfg.checkpoint.resume_bins = load.merged_bins;
  ClusterRunResult res = run_cluster_zonal(rasters, schemas, z, cfg);
  EXPECT_EQ(res.partitions_skipped, 2u);
  EXPECT_EQ(journal.records_written(), 4u);
  // The resumed run counted the four partitions it computed; the
  // journaled two are in its histograms but not in its counters.
  const std::uint64_t journaled = std::accumulate(
      load.merged_bins.begin(), load.merged_bins.end(), std::uint64_t{0});
  const std::uint64_t counted = res.merged.total() - journaled;
  return {std::move(res.merged), res.work.cells_in_polygons, counted};
}

/// run_catalog over a catalog of the one raster, BQ-encoded.
EntryRun run_one_raster_catalog(const DemRaster& r, const PolygonSet& z) {
  const ScratchDir dir;
  const BqCompressedRaster bq =
      BqCompressedRaster::encode(r, kConfig.tile_size);
  write_catalog(dir.path("cat"), {{"r", &bq}}, z);
  Device dev;
  CatalogRunResult res = run_catalog(dev, open_catalog(dir.path("cat")),
                                     kConfig);
  return entry_run(std::move(res.per_polygon), res.work);
}

struct EntryPoint {
  std::string name;
  bool bq = false;  ///< runs from BQ input (raster without nodata)
  /// The cluster master merges into a table of every zone; every other
  /// entry point's result holds only the zones its plan pairs.
  bool all_zones = false;
  std::function<EntryRun(const DemRaster&, const PolygonSet&)> run;
};

// Listings show the entry point's name, not its bytes.
void PrintTo(const EntryPoint& e, std::ostream* os) { *os << e.name; }

std::vector<EntryPoint> entry_points() {
  return {
      {"RunRaw", false, false,
       [](const DemRaster& r, const PolygonSet& z) {
         Device dev;
         ZonalResult res = ZonalPipeline(dev, kConfig).run(r, z);
         return entry_run(std::move(res.per_polygon), res.work);
       }},
      {"RunCompressed", true, false,
       [](const DemRaster& r, const PolygonSet& z) {
         Device dev;
         ZonalResult res =
             ZonalPipeline(dev, kConfig)
                 .run(BqCompressedRaster::encode(r, kConfig.tile_size), z);
         return entry_run(std::move(res.per_polygon), res.work);
       }},
      {"Cluster1Rank", false, true,
       [](const DemRaster& r, const PolygonSet& z) {
         return run_driver(r, z, 1);
       }},
      {"Cluster3Ranks", false, true,
       [](const DemRaster& r, const PolygonSet& z) {
         return run_driver(r, z, 3);
       }},
      {"ClusterJournalResume", false, true, run_journaled},
      {"Catalog", true, false, run_one_raster_catalog},
      {"RunLazy", true, false,
       [](const DemRaster& r, const PolygonSet& z) {
         Device dev;
         ZonalResult res = run_lazy(
             dev, BqCompressedRaster::encode(r, kConfig.tile_size), z,
             kConfig);
         return entry_run(std::move(res.per_polygon), res.work);
       }},
      {"QueryEngine", false, false,
       [](const DemRaster& r, const PolygonSet& z) {
         Device dev;
         QueryEngine engine(dev, {.tile_size = kConfig.tile_size});
         const RasterHandle h = engine.add_raster(r);
         QueryResult res =
             engine.run({.raster = h, .zones = &z, .bins = kBins});
         return entry_run(std::move(res.per_polygon), res.work);
       }},
      {"RunSeriesBandK", false, false,
       [](const DemRaster& r, const PolygonSet& z) {
         // Band 1 of three co-registered bands.
         std::vector<DemRaster> bands;
         bands.push_back(test::random_raster(r.rows(), r.cols(), 91,
                                             kMaxValue, r.transform()));
         bands.push_back(r);
         bands.push_back(test::random_raster(r.rows(), r.cols(), 92,
                                             kMaxValue, r.transform()));
         Device dev;
         SeriesResult s = run_series(dev, bands, z, kConfig);
         std::uint64_t total = 0;
         for (const HistogramSet& band : s.per_band) total += band.total();
         return EntryRun{std::move(s.per_band.at(1)),
                         s.work.cells_in_polygons, total};
       }},
  };
}

class EntryPoints : public ::testing::TestWithParam<EntryPoint> {};

INSTANTIATE_TEST_SUITE_P(
    All, EntryPoints, ::testing::ValuesIn(entry_points()),
    [](const ::testing::TestParamInfo<EntryPoint>& info) {
      return info.param.name;
    });

TEST_P(EntryPoints, MatchPerCellOracle) {
  const EntryPoint& entry = GetParam();
  const DemRaster raster = entry.bq ? dense_raster() : nodata_raster();
  for (const ZoneInput& input : zone_inputs()) {
    SCOPED_TRACE(input.name);
    const EntryRun run = entry.run(raster, input.zones);
    const HistogramSet oracle = zonal_scanline(raster, input.zones, kBins);
    EXPECT_EQ(run.hist, oracle);
    EXPECT_EQ(run.cells_in_polygons, run.counted_total);
    std::vector<PolygonId> held(input.zones.size());
    std::iota(held.begin(), held.end(), PolygonId{0});
    if (!entry.all_zones) held = plan_for(raster, input.zones).paired_zones;
    EXPECT_EQ(std::vector<PolygonId>(run.hist.held().begin(),
                                     run.hist.held().end()),
              held);
    EXPECT_EQ(csv_bytes(run.hist), csv_bytes(oracle));
  }
}

// Guards the table above: the inputs must keep exercising nodata, the
// top-bin clamp and undemanded tiles, or a broken path could still pass.
TEST(EntryPointInputs, CoverNodataClampAndUndemandedTiles) {
  const DemRaster raster = nodata_raster();
  const auto cells = raster.cells();
  EXPECT_GT(std::count(cells.begin(), cells.end(), kNodata), 0);
  EXPECT_GT(std::count_if(cells.begin(), cells.end(),
                          [](CellValue v) { return v >= kBins; }),
            0);

  Device dev;
  LazyCounters counters;
  (void)run_lazy(dev, BqCompressedRaster::encode(dense_raster(), 8), zones(),
                 kConfig, &counters);
  EXPECT_GT(counters.tiles_histogrammed, 0u);
  EXPECT_LT(counters.tiles_decoded, counters.tiles_total);
}

// Guards the mostly-missing input: three of its twelve zones pair with a
// tile, and they are neither the first nor the last zone.
TEST(EntryPointInputs, MostlyMissingZonesPairThreeOfTwelve) {
  const PolygonSet z = mostly_missing_zones();
  ASSERT_EQ(z.size(), 12u);
  EXPECT_EQ(plan_for(nodata_raster(), z).paired_zones,
            (std::vector<PolygonId>{2, 7, 10}));
}

// Guards the overlapping input: some tile lies inside both zones.
TEST(EntryPointInputs, OverlappingZonesShareAnInsideTile) {
  const ZonalPlan plan = plan_for(nodata_raster(), overlapping_zones());
  ASSERT_EQ(plan.pairing.inside.group_count(), 2u);
  std::vector<int> zones_containing(plan.tiling.tile_count(), 0);
  for (const TileId t : plan.pairing.inside.tid_v) ++zones_containing[t];
  EXPECT_EQ(*std::max_element(zones_containing.begin(),
                              zones_containing.end()),
            2);
}

// Guards the whole-raster input: one zone holds every tile, more than its
// share on any pool of two or more threads, so the inside count splits
// it. An explicit 4-thread pool makes the split independent of the host:
// the inside count launches four split chunks there, and the split
// result must still match the oracle.
TEST(EntryPointInputs, WholeRasterZoneTakesSplitPath) {
  const DemRaster raster = nodata_raster();
  const PolygonSet z = whole_raster_zone();
  const ZonalPlan plan = plan_for(raster, z);
  ASSERT_EQ(plan.pairing.inside.group_count(), 1u);
  EXPECT_EQ(plan.pairing.inside.pair_count(), plan.tiling.tile_count());

  ThreadPool pool(4);
  Device dev(DeviceProfile::gtx_titan(), &pool);
  const std::vector<ZoneChunk> chunks =
      plan_zone_chunks(plan.pairing.inside, dev.concurrency());
  ASSERT_EQ(chunks.size(), 4u);
  for (const ZoneChunk& chunk : chunks) EXPECT_FALSE(chunk.owned);
  EXPECT_EQ(ZonalPipeline(dev, kConfig).run(raster, z).per_polygon,
            zonal_scanline(raster, z, kBins));
}

// A zone with a far but finite vertex keeps its cells on every path. The
// vertex at x = 1e300 once made the column lookup of the zone's MBB wrap
// to INT64_MIN, so every tile-based path and the MBB-windowed baselines
// saw the zone west of the raster and counted nothing; only the
// whole-raster zonal_naive counted its cells.
TEST(EntryPointInputs, FarVertexZoneMatchesNaiveOnEveryPath) {
  constexpr BinIndex kFarBins = 64;
  const DemRaster raster =
      test::random_raster(100, 100, 5, 63, GeoTransform(0.0, 10.0, 0.1, 0.1));
  const ZonalConfig cfg{.tile_size = 10, .bins = kFarBins};
  for (const double far : {1e3, 1e17, 1e300}) {
    SCOPED_TRACE("far vertex x = " + std::to_string(far));
    PolygonSet z;
    z.add(Polygon({{{1, 1}, {9, 1}, {far, 5}, {9, 9}, {1, 9}}}));
    const HistogramSet want = zonal_naive(raster, z, kFarBins);
    EXPECT_EQ(want.total(), 7200u);
    Device dev;
    EXPECT_EQ(ZonalPipeline(dev, cfg).run(raster, z).per_polygon, want);
    EXPECT_EQ(ZonalPipeline(dev, cfg)
                  .run(BqCompressedRaster::encode(raster, cfg.tile_size), z)
                  .per_polygon,
              want);
    QueryEngine engine(dev, {.tile_size = cfg.tile_size});
    EXPECT_EQ(engine
                  .run({.raster = engine.add_raster(raster),
                        .zones = &z,
                        .bins = kFarBins})
                  .per_polygon,
              want);
    EXPECT_EQ(zonal_scanline(raster, z, kFarBins), want);
    EXPECT_EQ(zonal_mbb_filter(raster, z, kFarBins), want);
  }
}

// WorkCounters::values_clamped counts clamped (cell, zone) attributions,
// the unit of the per-cell oracle: a clamped cell in a tile inside both
// overlapping zones counts twice. The oracle is zonal_scanline with a bin
// for every value: its counts in bins >= kBins are the attributions the
// kBins-bin run folds into its top bin.
TEST(EntryPointInputs, ValuesClampedMatchesOracleOnOverlappingZones) {
  const DemRaster raster = nodata_raster();
  const PolygonSet z = overlapping_zones();
  const HistogramSet wide = zonal_scanline(raster, z, kMaxValue + 1);
  std::uint64_t oracle = 0;
  for (std::size_t zone = 0; zone < wide.groups(); ++zone) {
    const std::span<const BinCount> row = wide.of(zone);
    for (BinIndex b = kBins; b < row.size(); ++b) oracle += row[b];
  }
  EXPECT_GT(oracle, 0u);
  Device dev;
  const ZonalResult r = ZonalPipeline(dev, kConfig).run(raster, z);
  EXPECT_EQ(r.work.values_clamped, oracle);
  EXPECT_EQ(r.per_polygon.total(), wide.total());
}

}  // namespace
}  // namespace zh
