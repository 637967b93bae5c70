// zh_perfbench: the in-process half of the benchmark (run.py drives it).
//
// Subcommands (all paths relative to the caller's directory):
//   prepare --workload W --seed N --dir D [--reps K]
//       Generate the workload's inputs from the seed (untimed), encode and
//       write them into D K times (timed: setup_s), then compute the
//       per-cell oracle with zonal_scanline and write D/oracle.csv
//       (untimed). The query workload writes its files once; its setup is
//       loading them, timed by `query`.
//   trace-job --workload W --dir D --out CSV --spans FILE
//       Replay one job's sequence of public layer calls -- the calls the
//       CLI makes, with the CLI's configuration -- recording a span around
//       each. Writes the job's CSV, the spans, and prints layer metrics.
//   parspeed --dir D [--reps K]
//       One-thread against pool-wide Step 0 and Step 1 on the block input.
//   query --dir D --seed N --seconds T [--reps K] [--trace 0|1]
//       [--spans FILE]
//       Load the query inputs and register them with a QueryEngine K times
//       (timed: setup_s), precompute the oracle of every (raster, layer)
//       pair, then run a closed loop of seeded queries with one client for
//       T seconds, timing each QueryEngine::run from outside and comparing
//       every result bit for bit with the oracle.
//   probe --mb M
//       STREAM-style copy between two arrays of M MiB on every core.
// Each subcommand prints one JSON object on its last stdout line.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/step3_aggregate.hpp"
#include "zh.hpp"

namespace {

using namespace zh;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Workload constants. Job workloads pass the same values to zhist (run.py).

constexpr int kScale = 30;                 // Table-1 rasters at S=30
constexpr std::int64_t kConusTile = 12;    // 0.1-degree tiles at S=30
constexpr BinIndex kConusBins = 1000;
constexpr int kCountyZones = 3109;         // -> the 28 x 112 = 3136-zone grid
constexpr std::int64_t kBlockCells = 3600; // 1x1 degree at S=1
constexpr std::int64_t kBlockTile = 360;
constexpr BinIndex kBlockBins = 5000;
constexpr double kBlockWest = -105.0;      // inside srtm_conus_2
constexpr double kBlockNorth = 40.0;
constexpr std::size_t kClusterRaster = 5;  // srtm_conus_6
constexpr int kCoarseZones = 48;
constexpr double kAoiDegrees = 2.0;

DemParams dem_params(std::uint64_t seed) {
  DemParams p;
  p.seed = seed;
  return p;
}

PolygonSet county_layer(std::uint64_t seed) {
  return conus::generate_county_layer(kCountyZones, seed + 1);
}

std::string path_in(const std::string& dir, const std::string& name) {
  return (fs::path(dir) / name).string();
}

/// (tile, zone) pairs the Step-2 MBB filter proposes before the exact
/// classification drops the outside ones -- the denominator of
/// step2.kept_ratio (PairingResult::candidate_pairs counts after the drop).
double mbb_candidates(const PolygonSet& zones, std::int64_t rows,
                      std::int64_t cols, std::int64_t tile,
                      const GeoTransform& transform) {
  const TilingScheme tiling(rows, cols, tile);
  double n = 0.0;
  for (PolygonId z = 0; z < zones.size(); ++z) {
    n += static_cast<double>(
        tiling.tiles_covering(zones[z].mbr(), transform).size());
  }
  return n;
}

// ---------------------------------------------------------------------------
// Spans: name, start, end, parent; kept in memory, written at the end.

struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int parent = -1;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), t0_(Clock::now()) {}

  [[nodiscard]] double now() const {
    return std::chrono::duration<double>(Clock::now() - t0_).count();
  }

  /// Run `fn` inside a span named `name` (a plain call when disabled).
  template <typename Fn>
  decltype(auto) span(const char* name, Fn&& fn) {
    if (!enabled_) return fn();
    struct Closer {
      Tracer* tracer;
      int id;
      ~Closer() { tracer->close(id); }
    } closer{this, open(name)};
    return fn();
  }

  /// Total duration of every span called `name`.
  [[nodiscard]] double total(const std::string& name) const {
    double s = 0.0;
    for (const Span& sp : spans_) {
      if (sp.name == name) s += sp.end - sp.start;
    }
    return s;
  }

  /// Total duration of the spans without a parent.
  [[nodiscard]] double top_level() const {
    double s = 0.0;
    for (const Span& sp : spans_) {
      if (sp.parent < 0) s += sp.end - sp.start;
    }
    return s;
  }

  void write(const std::string& path) const {
    if (path.empty()) return;
    std::FILE* f = std::fopen(path.c_str(), "w");
    ZH_REQUIRE_IO(f != nullptr, "cannot write spans: ", path);
    std::fprintf(f, "[\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& sp = spans_[i];
      std::fprintf(f,
                   "  {\"id\": %zu, \"name\": \"%s\", \"start_s\": %.9f, "
                   "\"end_s\": %.9f, \"parent\": %d}%s\n",
                   i, sp.name.c_str(), sp.start, sp.end, sp.parent,
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    std::fclose(f);
  }

 private:
  int open(const char* name) {
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(Span{name, now(), 0.0, parent});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void close(int id) {
    spans_[static_cast<std::size_t>(id)].end = now();
    stack_.pop_back();
  }

  bool enabled_;
  Clock::time_point t0_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

// ---------------------------------------------------------------------------
// A flat JSON object printed as the subcommand's last stdout line.

class JsonOut {
 public:
  void num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.10g", v);
    add(key, buf);
  }
  void nums(const std::string& key, const std::vector<double>& v) {
    std::string s = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%s%.10g", i ? ", " : "", v[i]);
      s += buf;
    }
    add(key, s + "]");
  }
  void object(const std::string& key, const JsonOut& inner) {
    add(key, inner.str());
  }
  [[nodiscard]] std::string str() const { return "{" + body_ + "}"; }
  void print() const { std::printf("%s\n", str().c_str()); }

 private:
  void add(const std::string& key, const std::string& value) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + key + "\": " + value;
  }
  std::string body_;
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---------------------------------------------------------------------------
// Arguments.

struct Args {
  std::string cmd;
  std::string workload;
  std::uint64_t seed = 1;
  std::string dir;
  std::string out;
  std::string spans;
  int reps = 3;
  double seconds = 5.0;
  bool trace = false;
  std::size_t mb = 256;
};

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: zh_perfbench prepare|trace-job|parspeed|query|probe "
               "[--workload W] [--seed N] [--dir D] [--out F] [--spans F] "
               "[--reps K] [--seconds T] [--trace 0|1] [--mb M]\n");
  std::exit(2);
}

Args parse(int argc, char** argv) {
  if (argc < 2) usage();
  Args a;
  a.cmd = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage();
    const std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--dir") {
      a.dir = v;
    } else if (k == "--out") {
      a.out = v;
    } else if (k == "--spans") {
      a.spans = v;
    } else if (k == "--reps") {
      a.reps = std::max(1, std::stoi(v));
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--mb") {
      a.mb = std::stoull(v);
    } else {
      usage();
    }
  }
  return a;
}

// ---------------------------------------------------------------------------
// prepare

std::vector<DemRaster> conus_rasters(std::uint64_t seed) {
  std::vector<DemRaster> rasters;
  for (const conus::RasterSpec& spec : conus::table1()) {
    rasters.push_back(conus::generate_raster(spec, kScale, dem_params(seed)));
  }
  return rasters;
}

/// Seeded AOI tessellation: a 4x4-zone layer over a kAoiDegrees square
/// placed inside raster `r`'s extent.
PolygonSet aoi_layer(std::size_t r, std::uint64_t seed) {
  const GeoBox ext = conus::table1()[r].extent();
  std::mt19937_64 rng(seed * 1000003ULL + r);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  const double x0 = ext.min_x + u(rng) * (ext.width() - kAoiDegrees);
  const double y0 = ext.min_y + u(rng) * (ext.height() - kAoiDegrees);
  CountyParams p;
  p.seed = seed + 100 + r;
  p.grid_x = 4;
  p.grid_y = 4;
  return generate_counties(GeoBox{x0, y0, x0 + kAoiDegrees, y0 + kAoiDegrees},
                           p);
}

int cmd_prepare(const Args& a) {
  fs::create_directories(a.dir);
  std::vector<double> setup;
  JsonOut out;
  double mbb = 0.0;
  const PolygonSet zones = county_layer(a.seed);
  const std::string zones_tsv = path_in(a.dir, "zones.tsv");

  if (a.workload == "hist_block_bq") {
    const GeoTransform t(kBlockWest, kBlockNorth, 1.0 / 3600.0, 1.0 / 3600.0);
    const DemRaster block =
        generate_dem(kBlockCells, kBlockCells, t, dem_params(a.seed));
    for (int k = 0; k < a.reps; ++k) {
      Timer timer;
      const BqCompressedRaster bq = BqCompressedRaster::encode(block, kBlockTile);
      write_bq(path_in(a.dir, "block.bq"), bq);
      write_polygon_tsv(zones_tsv, zones);
      setup.push_back(timer.seconds());
    }
    const PolygonSet written = read_polygon_tsv(zones_tsv);
    write_histogram_csv(path_in(a.dir, "oracle.csv"),
                        zonal_scanline(block, written, kBlockBins));
    mbb = mbb_candidates(written, kBlockCells, kBlockCells, kBlockTile, t);
    out.num("cells", static_cast<double>(block.cell_count()));
  } else if (a.workload == "catalog_conus_s30") {
    const std::vector<DemRaster> rasters = conus_rasters(a.seed);
    const std::string cat = path_in(a.dir, "catalog");
    for (int k = 0; k < a.reps; ++k) {
      Timer timer;
      std::vector<BqCompressedRaster> encoded;
      encoded.reserve(rasters.size());
      for (const DemRaster& r : rasters) {
        encoded.push_back(BqCompressedRaster::encode(r, kConusTile));
      }
      std::vector<std::pair<std::string, const BqCompressedRaster*>> entries;
      for (std::size_t i = 0; i < encoded.size(); ++i) {
        entries.emplace_back(conus::table1()[i].name, &encoded[i]);
      }
      write_catalog(cat, entries, zones);
      setup.push_back(timer.seconds());
    }
    const PolygonSet written = read_polygon_tsv(path_in(cat, "zones.tsv"));
    HistogramSet oracle(written.size(), kConusBins);
    double cells = 0.0;
    for (const DemRaster& r : rasters) {
      oracle.add(zonal_scanline(r, written, kConusBins));
      cells += static_cast<double>(r.cell_count());
      mbb += mbb_candidates(written, r.rows(), r.cols(), kConusTile,
                            r.transform());
    }
    write_histogram_csv(path_in(a.dir, "oracle.csv"), oracle);
    out.num("cells", cells);
  } else if (a.workload == "cluster_journal") {
    const DemRaster raster = conus::generate_raster(
        conus::table1()[kClusterRaster], kScale, dem_params(a.seed));
    for (int k = 0; k < a.reps; ++k) {
      Timer timer;
      write_zgrid(path_in(a.dir, "conus6.zgrid"), raster);
      write_polygon_tsv(zones_tsv, zones);
      setup.push_back(timer.seconds());
    }
    const PolygonSet written = read_polygon_tsv(zones_tsv);
    write_histogram_csv(path_in(a.dir, "oracle.csv"),
                        zonal_scanline(raster, written, kConusBins));
    mbb = mbb_candidates(written, raster.rows(), raster.cols(), kConusTile,
                         raster.transform());
    out.num("cells", static_cast<double>(raster.cell_count()));
  } else if (a.workload == "query_mix_s30") {
    const std::vector<DemRaster> rasters = conus_rasters(a.seed);
    for (std::size_t i = 0; i < rasters.size(); ++i) {
      write_bq(path_in(a.dir, conus::table1()[i].name + ".bq"),
               BqCompressedRaster::encode(rasters[i], kConusTile));
      write_polygon_tsv(path_in(a.dir, "aoi_" + std::to_string(i) + ".tsv"),
                        aoi_layer(i, a.seed));
    }
    write_polygon_tsv(zones_tsv, zones);
    write_polygon_tsv(path_in(a.dir, "coarse.tsv"),
                      conus::generate_county_layer(kCoarseZones, a.seed + 2));
  } else {
    std::fprintf(stderr, "unknown workload: %s\n", a.workload.c_str());
    return 2;
  }
  if (mbb > 0) {
    std::FILE* f = std::fopen(path_in(a.dir, "mbb_candidates.txt").c_str(),
                              "w");
    ZH_REQUIRE_IO(f != nullptr, "cannot write in ", a.dir);
    std::fprintf(f, "%.0f\n", mbb);
    std::fclose(f);
  }
  out.nums("setup_s", setup);
  out.num("zones", static_cast<double>(zones.size()));
  out.print();
  return 0;
}

// ---------------------------------------------------------------------------
// Layer metrics shared by the traced runs.

/// CheckpointSink that times the journal it wraps.
class TimingSink final : public CheckpointSink {
 public:
  explicit TimingSink(CheckpointSink& inner) : inner_(&inner) {}
  void on_partition_complete(std::uint32_t part_index,
                             std::span<const BinCount> bins) override {
    Timer timer;
    inner_->on_partition_complete(part_index, bins);
    seconds += timer.seconds();
    ++records;
  }
  double seconds = 0.0;
  std::uint64_t records = 0;

 private:
  CheckpointSink* inner_;
};

/// MBB candidates the prepare step counted for a job's inputs.
double read_mbb(const std::string& dir) {
  double n = 0.0;
  if (std::FILE* f = std::fopen(path_in(dir, "mbb_candidates.txt").c_str(),
                                "r")) {
    if (std::fscanf(f, "%lf", &n) != 1) n = 0.0;
    std::fclose(f);
  }
  return n;
}

void step_metrics(JsonOut& m, const StepTimes& t, const WorkCounters& w,
                  double step1_cells, double step1_table_bytes, double mbb) {
  const double s1 = t.seconds[1];
  m.num("step1.s", s1);
  m.num("step1.cells", step1_cells);
  m.num("step1.mcells_s", s1 > 0 ? step1_cells / s1 / 1e6 : 0.0);
  m.num("step1.table_mb", step1_table_bytes / 1e6);
  m.num("step2.s", t.seconds[2]);
  m.num("step2.candidate_pairs", mbb);
  m.num("step2.kept_ratio",
        mbb > 0 ? static_cast<double>(w.pairs_inside + w.pairs_intersect) / mbb
                : 0.0);
  m.num("step3.s", t.seconds[3]);
  m.num("step3.bin_adds", static_cast<double>(w.aggregate_bin_adds));
  m.num("step3.gadds_s", t.seconds[3] > 0
                             ? static_cast<double>(w.aggregate_bin_adds) /
                                   t.seconds[3] / 1e9
                             : 0.0);
  m.num("step4.s", t.seconds[4]);
  m.num("step4.cell_tests", static_cast<double>(w.pip_cell_tests));
  m.num("step4.edge_tests", static_cast<double>(w.pip_edge_tests));
  m.num("step4.edge_tests_per_cell",
        w.pip_cell_tests > 0 ? static_cast<double>(w.pip_edge_tests) /
                                   static_cast<double>(w.pip_cell_tests)
                             : 0.0);
  m.num("step4.rows_scanned", static_cast<double>(w.pip_rows_scanned));
}

/// Step 0 metrics; `bytes_moved.bqtree` is turned into bqtree.bw_frac by
/// run.py once the copy probe has run.
void decode_metrics(JsonOut& m, double seconds, double cells,
                    double compressed_bytes) {
  m.num("bqtree.decode_s", seconds);
  m.num("bqtree.cells_decoded", cells);
  m.num("bqtree.decode_mcells_s", seconds > 0 ? cells / seconds / 1e6 : 0.0);
  m.num("bqtree.bytes_in", compressed_bytes);
  m.num("bytes_moved.bqtree", compressed_bytes + cells * sizeof(CellValue));
}

/// I/O times; run.py adds io.csv_rows from the oracle CSV, which every
/// checked output equals.
void io_metrics(JsonOut& m, const Tracer& tr, double raster_bytes,
                const char* read_span) {
  const double read_s = tr.total(read_span);
  m.num("io.read_raster_s", read_s);
  m.num("io.read_raster_mb_s", read_s > 0 ? raster_bytes / read_s / 1e6 : 0.0);
  m.num("io.parse_zones_s", tr.total("io.read_polygon_tsv"));
  m.num("io.write_csv_s", tr.total("io.write_histogram_csv"));
}

// ---------------------------------------------------------------------------
// trace-job: replays of the three job entry points.

int trace_hist(const Args& a, Tracer& tr, JsonOut& m) {
  const std::string bq_path = path_in(a.dir, "block.bq");
  // zhist hist's configuration: --tile 360 --bins 5000, the CLI's refine
  // default (auto), library defaults for everything else.
  const ZonalConfig cfg{.tile_size = kBlockTile, .bins = kBlockBins,
                        .refine_strategy = RefineStrategy::kAuto};
  Device device;
  const BqCompressedRaster bq =
      tr.span("io.read_bq", [&] { return read_bq(bq_path); });
  const DemRaster raster =
      tr.span("bqtree.decode_all", [&] { return bq.decode_all(); });
  const PolygonSet zones = tr.span("io.read_polygon_tsv", [&] {
    return read_polygon_tsv(path_in(a.dir, "zones.tsv"));
  });
  // ZonalPipeline::run's sequence, call by call.
  HistogramSet per_polygon;
  HistogramSet tile_hist;
  WorkCounters work;
  RefineCounters rc;
  const TilingScheme tiling(raster.rows(), raster.cols(), cfg.tile_size);
  tr.span("core.pipeline", [&] {
    per_polygon = HistogramSet(zones.size(), cfg.bins);
    const PolygonSoA soa =
        tr.span("geom.soa_build", [&] { return PolygonSoA::build(zones); });
    tr.span("core.step1", [&] {
      tile_histograms_into(device, raster, tiling, cfg.bins, cfg.count_mode,
                           tile_hist, cfg.cell_order);
    });
    const PairingResult pairing = tr.span("core.step2", [&] {
      return pair_and_group(zones, tiling, raster.transform());
    });
    tr.span("core.step3", [&] {
      aggregate_inside_tiles(device, pairing.inside, tile_hist, per_polygon);
    });
    rc = tr.span("core.step4", [&] {
      return refine_boundary_tiles(device, pairing.intersect, soa, raster,
                                   tiling, per_polygon, cfg.refine_granularity,
                                   cfg.refine_strategy);
    });
    work.pairs_inside = pairing.inside.pair_count();
    work.pairs_intersect = pairing.intersect.pair_count();
    work.aggregate_bin_adds =
        static_cast<std::uint64_t>(pairing.inside.pair_count()) * cfg.bins;
    work.cells_in_polygons = per_polygon.total();
  });
  tr.span("io.write_histogram_csv",
          [&] { write_histogram_csv(a.out, per_polygon); });

  StepTimes times;
  times.seconds[1] = tr.total("core.step1");
  times.seconds[2] = tr.total("core.step2");
  times.seconds[3] = tr.total("core.step3");
  times.seconds[4] = tr.total("core.step4");
  work.pip_cell_tests = rc.cell_tests;
  work.pip_edge_tests = rc.edge_tests;
  work.pip_rows_scanned = rc.rows_scanned;
  const auto cells = static_cast<double>(raster.cell_count());
  const auto table_bytes = static_cast<double>(tile_hist.flat().size_bytes());
  step_metrics(m, times, work, cells, table_bytes, read_mbb(a.dir));
  m.num("step4.inside_ratio",
        rc.cell_tests > 0 ? static_cast<double>(rc.cells_counted) /
                                static_cast<double>(rc.cell_tests)
                          : 0.0);
  m.num("bytes_moved.step1", cells * sizeof(CellValue) + table_bytes);
  decode_metrics(m, tr.total("bqtree.decode_all"), cells,
                 static_cast<double>(bq.compressed_bytes()));
  io_metrics(m, tr, static_cast<double>(fs::file_size(bq_path)),
             "io.read_bq");
  return 0;
}

int trace_catalog(const Args& a, Tracer& tr, JsonOut& m) {
  // zhist catalog's configuration: --tile 12 --bins 1000, filter-first
  // (run_lazy, the CLI's default), library defaults for everything else.
  const ZonalConfig cfg{.tile_size = kConusTile, .bins = kConusBins};
  Device device;
  const Catalog catalog = tr.span("io.open_catalog", [&] {
    return open_catalog(path_in(a.dir, "catalog"));
  });
  // run_catalog's sequence, call by call.
  const PolygonSet zones = tr.span("io.read_polygon_tsv", [&] {
    return read_polygon_tsv(catalog.zones_path());
  });
  HistogramSet merged(zones.size(), cfg.bins);
  StepTimes times;
  WorkCounters work;
  double tiles_histogrammed = 0.0;
  double cells_decoded = 0.0;
  double file_bytes = 0.0;
  double table_bytes = 0.0;
  for (std::size_t i = 0; i < catalog.raster_files.size(); ++i) {
    const std::string path = catalog.raster_path(i);
    file_bytes += static_cast<double>(fs::file_size(path));
    const BqCompressedRaster bq =
        tr.span("io.read_bq", [&] { return read_bq(path); });
    LazyCounters lc;
    const ZonalResult r = tr.span(
        "core.run_lazy", [&] { return run_lazy(device, bq, zones, cfg, &lc); });
    tr.span("core.merge", [&] { merged.add(r.per_polygon); });
    times += r.times;
    work += r.work;
    tiles_histogrammed += static_cast<double>(lc.tiles_histogrammed);
    cells_decoded += static_cast<double>(lc.cells_decoded);
    table_bytes = std::max(table_bytes,
                           static_cast<double>(lc.tiles_histogrammed) *
                               cfg.bins * sizeof(BinCount));
  }
  tr.span("io.write_histogram_csv",
          [&] { write_histogram_csv(a.out, merged); });

  // run_lazy histograms only the tiles inside pairs demand.
  const double step1_cells =
      tiles_histogrammed * static_cast<double>(kConusTile * kConusTile);
  step_metrics(m, times, work, step1_cells, table_bytes, read_mbb(a.dir));
  m.num("bytes_moved.step1", step1_cells * sizeof(CellValue) + table_bytes);
  decode_metrics(m, times.seconds[0], cells_decoded,
                 static_cast<double>(work.compressed_bytes));
  io_metrics(m, tr, file_bytes, "io.read_bq");
  return 0;
}

int trace_cluster(const Args& a, Tracer& tr, JsonOut& m) {
  const std::string zgrid = path_in(a.dir, "conus6.zgrid");
  const std::string journal_dir = path_in(a.dir, "trace_journal");
  fs::remove_all(journal_dir);
  // zhist hist --ranks R --partitions 2x4 --checkpoint-dir D: the CLI's
  // cluster configuration (fault tolerance on, refine auto).
  ClusterRunConfig cfg;
  cfg.ranks = std::min<std::size_t>(
      4, std::max(1u, std::thread::hardware_concurrency()));
  cfg.zonal = {.tile_size = kConusTile, .bins = kConusBins,
               .refine_strategy = RefineStrategy::kAuto};
  cfg.fault_tolerance.enabled = true;
  const std::vector<std::pair<int, int>> schemas{{2, 4}};

  std::vector<DemRaster> rasters;
  rasters.push_back(tr.span("io.read_zgrid", [&] { return read_zgrid(zgrid); }));
  const PolygonSet zones = tr.span("io.read_polygon_tsv", [&] {
    return read_polygon_tsv(path_in(a.dir, "zones.tsv"));
  });
  const std::string jpath = journal_dir + "/run.journal";
  JournalWriter journal = tr.span("io.journal_create", [&] {
    fs::create_directories(journal_dir);
    return JournalWriter::create(jpath,
                                 make_manifest(rasters, schemas, zones, cfg));
  });
  TimingSink sink(journal);
  cfg.checkpoint.sink = &sink;
  const ClusterRunResult cres = tr.span("cluster.run_cluster_zonal", [&] {
    return run_cluster_zonal(rasters, schemas, zones, cfg);
  });
  tr.span("io.journal_flush", [&] { journal.flush(); });
  tr.span("io.write_histogram_csv",
          [&] { write_histogram_csv(a.out, cres.merged); });
  if (cres.degraded) return 1;

  // Per-step times reduce as max over ranks, as the CLI reports them.
  StepTimes times;
  for (const StepTimes& t : cres.per_rank) times = times.max_with(t);
  const DemRaster& raster = rasters.front();
  const TilingScheme tiling(raster.rows(), raster.cols(), kConusTile);
  const auto cells = static_cast<double>(cres.work.cells_total);
  // One partition's per-tile table (the schema splits the raster in 8).
  const double table_bytes = static_cast<double>(tiling.tile_count()) *
                             kConusBins * sizeof(BinCount) / 8.0;
  step_metrics(m, times, cres.work, cells, table_bytes, read_mbb(a.dir));
  m.num("bytes_moved.step1", cells * sizeof(CellValue) + table_bytes);
  double partitions = 0.0;
  double retries = 0.0;
  for (const RankOutcome& o : cres.rank_outcomes) {
    partitions += o.partitions_completed;
  }
  for (const RankMetricsRow& r : cres.rank_metrics) {
    retries += static_cast<double>(r.retries);
  }
  double max_rank = 0.0;
  double sum_rank = 0.0;
  for (const double s : cres.rank_seconds) {
    max_rank = std::max(max_rank, s);
    sum_rank += s;
  }
  m.num("cluster.partitions", partitions);
  m.num("cluster.comm_bytes", static_cast<double>(cres.comm_bytes));
  m.num("cluster.rank_imbalance",
        sum_rank > 0 ? max_rank * static_cast<double>(cres.rank_seconds.size()) /
                           sum_rank
                     : 0.0);
  m.num("cluster.retries", retries);
  m.num("journal.records", static_cast<double>(sink.records));
  m.num("journal.bytes", static_cast<double>(fs::file_size(jpath)));
  m.num("journal.record_s", sink.seconds);
  io_metrics(m, tr, static_cast<double>(fs::file_size(zgrid)),
             "io.read_zgrid");
  fs::remove_all(journal_dir);
  return 0;
}

int cmd_trace_job(const Args& a) {
  Tracer tr(true);
  JsonOut m;
  int rc = 2;
  if (a.workload == "hist_block_bq") {
    rc = trace_hist(a, tr, m);
  } else if (a.workload == "catalog_conus_s30") {
    rc = trace_catalog(a, tr, m);
  } else if (a.workload == "cluster_journal") {
    rc = trace_cluster(a, tr, m);
  } else {
    std::fprintf(stderr, "no traced replay for workload: %s\n",
                 a.workload.c_str());
    return 2;
  }
  const double wall = tr.now();
  tr.write(a.spans);
  JsonOut out;
  out.num("top_level_s", tr.top_level());
  out.num("inproc_wall_s", wall);
  out.object("metrics", m);
  out.print();
  return rc;
}

// ---------------------------------------------------------------------------
// parspeed: Step 0 and Step 1 on the pool against one thread (block input).

int cmd_parspeed(const Args& a) {
  const BqCompressedRaster bq = read_bq(path_in(a.dir, "block.bq"));
  const TilingScheme& tiling = bq.tiling();
  ThreadPool one(1);
  Device device;
  Device device1(DeviceProfile::gtx_titan(), &one);
  std::vector<double> dec_n, dec_1, s1_n, s1_1;
  DemRaster raster = bq.decode_all();
  HistogramSet table;
  for (int k = 0; k < a.reps; ++k) {
    Timer t;
    const DemRaster r = bq.decode_all();
    dec_n.push_back(t.seconds());
    t.reset();
    std::vector<CellValue> cells;
    for (TileId id = 0; id < tiling.tile_count(); ++id) {
      const CellWindow w = tiling.tile_window(id);
      cells.resize(static_cast<std::size_t>(w.cell_count()));
      bq.decode_tile(id, cells);
      for (std::int64_t row = 0; row < w.rows; ++row) {
        std::copy_n(cells.begin() + row * w.cols, w.cols,
                    &raster.at(w.row0 + row, w.col0));
      }
    }
    dec_1.push_back(t.seconds());
    t.reset();
    tile_histograms_into(device, raster, tiling, kBlockBins,
                         CountMode::kAtomic, table);
    s1_n.push_back(t.seconds());
    t.reset();
    tile_histograms_into(device1, raster, tiling, kBlockBins,
                         CountMode::kAtomic, table);
    s1_1.push_back(t.seconds());
  }
  JsonOut out;
  out.num("bqtree.par_speedup", median(dec_1) / median(dec_n));
  out.num("step1.par_speedup", median(s1_1) / median(s1_n));
  out.num("threads", static_cast<double>(ThreadPool::global().size()));
  out.print();
  return 0;
}

// ---------------------------------------------------------------------------
// query: closed-loop QueryEngine session.

enum Layer : int { kCounties = 0, kCoarse = 1, kAoi = 2 };
constexpr const char* kLayerNames[] = {"counties", "coarse", "aoi"};

struct QueryKind {
  std::size_t raster;
  Layer layer;
};

/// One schedule block: the query mix in exact proportions, shuffled per
/// block, so every run sees the same mix whatever its seed. The shares put
/// the median inside the coarse-layer queries and p90 inside the county
/// queries instead of on a boundary between two layers. Popularity favours
/// the hot rasters (indices 0, 2, 3: 43,200 tiles, ~177 MB of entries at
/// 1000 bins, inside the 256 MB cache); coarse and county queries on the
/// cold ones (1, 4) force fills and evictions, and raster 5 (69,600 tiles)
/// only sees small AOI queries.
std::vector<QueryKind> schedule_block() {
  std::vector<QueryKind> b;
  auto add = [&](std::size_t r, Layer l, int n) {
    for (int i = 0; i < n; ++i) b.push_back({r, l});
  };
  add(3, kAoi, 2);
  add(2, kAoi, 1);
  add(0, kAoi, 1);
  add(4, kAoi, 1);
  add(5, kAoi, 1);
  add(3, kCoarse, 2);
  add(2, kCoarse, 2);
  add(0, kCoarse, 2);
  add(1, kCoarse, 1);
  add(4, kCoarse, 1);
  add(3, kCounties, 2);
  add(2, kCounties, 1);
  add(0, kCounties, 1);
  add(1, kCounties, 1);
  add(4, kCounties, 1);
  return b;
}

int cmd_query(const Args& a) {
  const std::size_t nr = conus::table1().size();
  Tracer tr(a.trace);
  Tracer quiet(false);
  std::vector<double> setup;
  // Setup: load the files and register the rasters, a.reps times; the
  // last repetition's engine serves the session.
  std::deque<DemRaster> rasters;
  std::vector<PolygonSet> layers;  // counties, coarse, aoi_0..aoi_5
  Device device;
  std::unique_ptr<QueryEngine> engine;
  QueryEngineConfig qcfg;
  qcfg.tile_size = kConusTile;
  double file_bytes = 0.0;
  double compressed_bytes = 0.0;
  for (int k = 0; k < a.reps; ++k) {
    engine.reset();
    rasters.clear();
    layers.clear();
    const bool traced = k + 1 == a.reps;
    Tracer& t = traced ? tr : quiet;
    Timer timer;
    engine = std::make_unique<QueryEngine>(device, qcfg);
    for (std::size_t i = 0; i < nr; ++i) {
      const std::string p = path_in(a.dir, conus::table1()[i].name + ".bq");
      const BqCompressedRaster bq =
          t.span("io.read_bq", [&] { return read_bq(p); });
      rasters.push_back(
          t.span("bqtree.decode_all", [&] { return bq.decode_all(); }));
      t.span("core.add_raster", [&] { engine->add_raster(rasters.back()); });
      if (traced) {
        file_bytes += static_cast<double>(fs::file_size(p));
        compressed_bytes += static_cast<double>(bq.compressed_bytes());
      }
    }
    t.span("io.read_polygon_tsv", [&] {
      layers.push_back(read_polygon_tsv(path_in(a.dir, "zones.tsv")));
      layers.push_back(read_polygon_tsv(path_in(a.dir, "coarse.tsv")));
      for (std::size_t i = 0; i < nr; ++i) {
        layers.push_back(read_polygon_tsv(
            path_in(a.dir, "aoi_" + std::to_string(i) + ".tsv")));
      }
    });
    setup.push_back(timer.seconds());
  }

  auto layer_of = [&](const QueryKind& q) -> const PolygonSet& {
    return q.layer == kAoi ? layers[2 + q.raster]
                           : layers[static_cast<std::size_t>(q.layer)];
  };
  auto key_of = [](const QueryKind& q) {
    return q.raster * 4 + static_cast<std::size_t>(q.layer);
  };

  // Oracle and MBB candidates of every pair the schedule uses (outside
  // setup and timing).
  const std::vector<QueryKind> block = schedule_block();
  std::map<std::size_t, HistogramSet> oracle;
  std::map<std::size_t, double> mbb_of;
  for (const QueryKind& q : block) {
    if (oracle.count(key_of(q)) != 0) continue;
    const DemRaster& r = rasters[q.raster];
    oracle.emplace(key_of(q), zonal_scanline(r, layer_of(q), kConusBins));
    mbb_of.emplace(key_of(q), mbb_candidates(layer_of(q), r.rows(), r.cols(),
                                             kConusTile, r.transform()));
  }

  // Closed loop, one client. With tracing on, blocks alternate between
  // untraced and traced so both see the same cache history.
  std::mt19937_64 rng(a.seed);
  std::vector<double> lat_s, cells, lat_traced, lat_untraced;
  std::vector<double> by_layer[3];
  std::uint64_t failed = 0;
  WorkCounters work;
  StepTimes times;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  double mbb = 0.0;
  const TileCacheStats cache0 = engine->cache_stats();
  double traced_wall = 0.0;
  double traced_top = 0.0;
  const auto t_end =
      Clock::now() + std::chrono::duration<double>(std::max(0.0, a.seconds));
  for (std::size_t blk = 0; Clock::now() < t_end || blk < 2; ++blk) {
    std::vector<QueryKind> order = block;
    std::shuffle(order.begin(), order.end(), rng);
    const bool traced = a.trace && blk % 2 == 1;
    Tracer& t = traced ? tr : quiet;
    const double blk_start = tr.now();
    const double top_before = tr.top_level();
    for (const QueryKind& q : order) {
      const ZonalQuery zq{.raster = q.raster, .zones = &layer_of(q),
                          .bins = kConusBins};
      QueryResult r;
      try {
        const auto q0 = Clock::now();
        r = t.span("core.query_engine.run", [&] { return engine->run(zq); });
        const double s =
            std::chrono::duration<double>(Clock::now() - q0).count();
        lat_s.push_back(s);
        (traced ? lat_traced : lat_untraced).push_back(s);
        by_layer[q.layer].push_back(s);
        cells.push_back(static_cast<double>(rasters[q.raster].cell_count()));
      } catch (const std::exception& e) {
        ++failed;
        std::fprintf(stderr, "query_mix_s30 seed %llu: query %zu threw: %s\n",
                     static_cast<unsigned long long>(a.seed), lat_s.size(),
                     e.what());
        continue;
      }
      const bool same = t.span("bench.oracle_compare", [&] {
        return r.per_polygon == oracle.at(key_of(q));
      });
      if (!same) {
        ++failed;
        std::fprintf(stderr,
                     "query_mix_s30 seed %llu: query %zu (raster %zu, %s) "
                     "differs from the oracle\n",
                     static_cast<unsigned long long>(a.seed), lat_s.size(),
                     q.raster, kLayerNames[q.layer]);
      }
      if (traced) {
        work += r.work;
        times += r.times;
        hits += r.cache_hits;
        misses += r.cache_misses;
        mbb += mbb_of.at(key_of(q));
      }
    }
    if (traced) {
      traced_wall += tr.now() - blk_start;
      traced_top += tr.top_level() - top_before;
    }
  }
  const TileCacheStats cache1 = engine->cache_stats();
  for (int l = 0; l < 3; ++l) {
    std::fprintf(stderr, "query_mix_s30: %s queries: %zu, median %.2f ms\n",
                 kLayerNames[l], by_layer[l].size(),
                 1e3 * median(by_layer[l]));
  }

  JsonOut out;
  out.nums("setup_s", setup);
  out.nums("latency_s", lat_s);
  out.nums("cells", cells);
  out.num("failed", static_cast<double>(failed));
  out.num("attempted", static_cast<double>(lat_s.size() + failed));
  if (a.trace) {
    JsonOut m;
    const double n_traced =
        std::max(1.0, static_cast<double>(lat_traced.size()));
    // Step 1 is served by the cache: its "table" is the compact per-query
    // table of demanded tiles, on average.
    step_metrics(m, times, work, static_cast<double>(work.cells_total),
                 static_cast<double>(hits + misses) * kConusBins *
                     sizeof(BinCount) / n_traced,
                 mbb);
    m.num("bytes_moved.step1",
          static_cast<double>(work.cells_total) * sizeof(CellValue));
    m.num("cache.hit_ratio",
          hits + misses > 0 ? static_cast<double>(hits) /
                                  static_cast<double>(hits + misses)
                            : 0.0);
    m.num("cache.fills", static_cast<double>(cache1.fills - cache0.fills));
    m.num("cache.evictions",
          static_cast<double>(cache1.evictions - cache0.evictions));
    m.num("cache.resident_mb", static_cast<double>(cache1.bytes) / 1e6);
    m.num("query.cells_filled", static_cast<double>(work.cells_total));
    double decoded = 0.0;
    for (const DemRaster& r : rasters) {
      decoded += static_cast<double>(r.cell_count());
    }
    decode_metrics(m, tr.total("bqtree.decode_all"), decoded,
                   compressed_bytes);
    io_metrics(m, tr, file_bytes, "io.read_bq");
    m.num("trace.coverage", traced_wall > 0 ? traced_top / traced_wall : 0.0);
    m.num("trace.overhead_frac",
          median(lat_traced) / median(lat_untraced) - 1.0);
    out.object("metrics", m);
    tr.write(a.spans);
  }
  out.print();
  return failed == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------------
// probe: STREAM-style copy bandwidth.

int cmd_probe(const Args& a) {
  const std::size_t n = (a.mb << 20) / sizeof(std::uint64_t);
  std::vector<std::uint64_t> src(n, 1);
  std::vector<std::uint64_t> dst(n, 0);
  const unsigned threads = std::max(1u, std::thread::hardware_concurrency());
  auto copy_all = [&] {
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] {
        const std::size_t b = n * t / threads;
        const std::size_t e = n * (t + 1) / threads;
        std::memcpy(dst.data() + b, src.data() + b,
                    (e - b) * sizeof(std::uint64_t));
      });
    }
    for (std::thread& th : pool) th.join();
  };
  copy_all();  // warm: page tables and the worker threads' first touch
  double best = 1e30;
  for (int k = 0; k < 5; ++k) {
    Timer t;
    copy_all();
    best = std::min(best, t.seconds());
  }
  JsonOut out;
  // STREAM convention: a copy moves the bytes read plus the bytes written.
  out.num("copy_gbs", 2.0 * static_cast<double>(n * sizeof(std::uint64_t)) /
                          best / 1e9);
  out.num("array_mb", static_cast<double>(a.mb) * 1.048576);
  out.num("check", static_cast<double>(dst[n / 2]));
  out.print();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse(argc, argv);
    if (a.cmd == "prepare") return cmd_prepare(a);
    if (a.cmd == "trace-job") return cmd_trace_job(a);
    if (a.cmd == "parspeed") return cmd_parspeed(a);
    if (a.cmd == "query") return cmd_query(a);
    if (a.cmd == "probe") return cmd_probe(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "zh_perfbench: %s\n", e.what());
    return 1;
  }
  usage();
}
