// zhist: command-line zonal histogramming.
//
// Subcommands:
//   zhist hist <raster> <zones.tsv> [-o hist.csv] [--bins N] [--tile N]
//       [--stats] [--partitions RxC] [--ranks N] [--fault-plan SPEC]
//       [--checkpoint-dir DIR] [--resume] [--checkpoint-interval N]
//     Zonal histograms of a raster (.zgrid, .asc or .bq) over a WKT-TSV
//     zone layer; optional classic statistics table; CSV output. Without
//     cluster flags the whole raster runs in one pipeline call, and a .bq
//     raster whose tiles match --tile decodes only the tiles some zone
//     touches, timed as Step 0. --partitions, --ranks, --fault-plan and
//     --checkpoint-dir run the supervised cluster driver instead (one
//     rank unless --ranks says more); --fault-plan injects scripted
//     message faults / rank crashes (see FaultPlan::parse), e.g.
//     "seed=1,drop=0.05,crash=2@partition_done".
//     --checkpoint-dir journals every accepted partition into
//     DIR/run.journal (fsync every N records); after a process death,
//     rerunning with --resume recomputes only un-journaled partitions
//     and produces bit-identical histograms (DESIGN.md 5d).
//   zhist encode <raster.zgrid|.asc> <out.bq> [--tile N]
//     BQ-Tree-compress a raster (one without a nodata value: the
//     container cannot store it).
//   zhist decode <in.bq> <out.zgrid>
//     Decompress a .bq container.
//   zhist render <raster> <out.ppm> [--max-edge N]
//     Hypsometric PPM rendering.
//   zhist synth <out.zgrid> [--rows N] [--cols N] [--seed S]
//     Generate a synthetic fBm DEM.
//   zhist points <points.csv> <zones.tsv> [--tile N]
//     Zonal point summation (x,y[,weight] CSV).
//   zhist simplify <zones.tsv> <out.tsv> --eps E
//     Douglas-Peucker generalization of a zone layer.
//   zhist validate <zones.tsv>
//     Geometry validity report.
//   zhist catalog <dir> [-o hist.csv] [--bins N] [--tile N]
//     Out-of-core run over a catalog directory.
//   zhist query --batch spec.json [--tile N]
//     Multi-query batch through the QueryEngine: rasters and zone layers
//     load once and every query runs the filter-first pipeline. The JSON
//     spec holds the query list (see cmd_query).
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/json.hpp"
#include "zh.hpp"

namespace {

using namespace zh;

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  zhist hist <raster> <zones.tsv> [-o hist.csv] "
               "[--bins N] [--tile N] [--stats] [--partitions RxC] "
               "[--refine brute|scanline|auto] [--ranks N] "
               "[--fault-plan SPEC] [--checkpoint-dir DIR] [--resume] "
               "[--checkpoint-interval N] [--trace FILE] "
               "[--metrics FILE] [--report] [--metrics-port N] "
               "[--metrics-linger-ms N]\n"
               "  zhist encode <raster> <out.bq> [--tile N]\n"
               "  zhist decode <in.bq> <out.zgrid>\n"
               "  zhist render <raster> <out.ppm> [--max-edge N]\n"
               "  zhist synth <out.zgrid> [--rows N] [--cols N] "
               "[--seed S]\n"
               "  zhist zones <out.tsv> [--zones N] [--seed S]\n"
               "  zhist query --batch spec.json [--tile N] "
               "[--metrics FILE] [--trace FILE] [--report] "
               "[--metrics-port N] [--metrics-linger-ms N]\n");
  std::exit(2);
}

struct Args {
  std::vector<std::string> positional;
  std::string out;
  BinIndex bins = 5000;
  std::int64_t tile = 360;
  bool stats = false;
  // The CLI defaults to auto so real runs pick the measured best path;
  // the library default stays brute (the paper's kernel) for fidelity.
  RefineStrategy refine = RefineStrategy::kAuto;
  int part_rows = 1;
  int part_cols = 1;
  std::int64_t rows = 1200;
  std::int64_t cols = 1200;
  std::size_t nzones = 64;
  std::uint64_t seed = 42;
  std::int64_t max_edge = 1024;
  double eps = 0.0;
  std::size_t ranks = 1;
  std::string fault_plan;
  std::string checkpoint_dir;  ///< durable run-journal directory
  bool resume = false;         ///< continue from the journal in the dir
  std::uint32_t checkpoint_interval = 1;  ///< fsync every N records
  std::string trace;    ///< Chrome trace_event JSON output path
  std::string metrics;  ///< run-report JSON output path
  bool report = false;  ///< print the human-readable run report
  int metrics_port = -1;  ///< serve /metrics on 127.0.0.1:N (0=ephemeral)
  int metrics_linger_ms = 0;  ///< keep serving this long after the run
  std::string batch;    ///< JSON batch spec for `zhist query`
};

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    if (a == "-o") {
      args.out = next();
    } else if (a == "--bins") {
      args.bins = static_cast<BinIndex>(std::stoul(next()));
    } else if (a == "--tile") {
      args.tile = std::stoll(next());
    } else if (a == "--stats") {
      args.stats = true;
    } else if (a == "--refine") {
      const std::string v = next();
      if (v == "brute") {
        args.refine = RefineStrategy::kBrute;
      } else if (v == "scanline") {
        args.refine = RefineStrategy::kScanline;
      } else if (v == "auto") {
        args.refine = RefineStrategy::kAuto;
      } else {
        std::fprintf(stderr, "unknown --refine strategy: %s\n", v.c_str());
        usage();
      }
    } else if (a == "--partitions") {
      const std::string v = next();
      const auto x = v.find('x');
      if (x == std::string::npos) usage();
      args.part_rows = std::stoi(v.substr(0, x));
      args.part_cols = std::stoi(v.substr(x + 1));
    } else if (a == "--rows") {
      args.rows = std::stoll(next());
    } else if (a == "--cols") {
      args.cols = std::stoll(next());
    } else if (a == "--zones") {
      args.nzones = static_cast<std::size_t>(std::stoull(next()));
    } else if (a == "--seed") {
      args.seed = std::stoull(next());
    } else if (a == "--max-edge") {
      args.max_edge = std::stoll(next());
    } else if (a == "--eps") {
      args.eps = std::stod(next());
    } else if (a == "--ranks") {
      args.ranks = static_cast<std::size_t>(std::stoull(next()));
    } else if (a == "--fault-plan") {
      args.fault_plan = next();
    } else if (a == "--checkpoint-dir") {
      args.checkpoint_dir = next();
    } else if (a == "--resume") {
      args.resume = true;
    } else if (a == "--checkpoint-interval") {
      args.checkpoint_interval =
          static_cast<std::uint32_t>(std::stoul(next()));
    } else if (a == "--trace") {
      args.trace = next();
    } else if (a == "--metrics") {
      args.metrics = next();
    } else if (a == "--report") {
      args.report = true;
    } else if (a == "--metrics-port") {
      args.metrics_port = std::stoi(next());
    } else if (a == "--metrics-linger-ms") {
      args.metrics_linger_ms = std::stoi(next());
    } else if (a == "--batch") {
      args.batch = next();
    } else if (!a.empty() && a[0] == '-') {
      std::fprintf(stderr, "unknown flag: %s\n", a.c_str());
      usage();
    } else {
      args.positional.push_back(a);
    }
  }
  return args;
}

bool ends_with(const std::string& s, const char* suffix) {
  const std::size_t n = std::strlen(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

DemRaster load_raster(const std::string& path) {
  if (ends_with(path, ".asc")) return read_ascii_grid(path);
  if (ends_with(path, ".bq")) return read_bq(path).decode_all();
  return read_zgrid(path);
}

// Fail fast (one line, nonzero exit via main's catch) before the run
// spends minutes computing into an unwritable --trace/--metrics path.
// Append mode so probing never truncates an existing file.
void require_writable(const std::string& path) {
  std::ofstream probe(path, std::ios::app);
  ZH_REQUIRE_IO(probe.good(), "cannot open for write: ", path);
}

// Turn instrumentation on per the flags; returns whether any obs output
// was requested at all.
bool setup_obs(const Args& args) {
  if (!args.trace.empty()) {
    require_writable(args.trace);
    obs::set_trace_enabled(true);
  }
  if (!args.metrics.empty()) require_writable(args.metrics);
  if (!args.metrics.empty() || args.report || args.metrics_port >= 0) {
    obs::set_metrics_enabled(true);
  }
  return !args.trace.empty() || !args.metrics.empty() || args.report;
}

// Start the live /metrics endpoint when --metrics-port was given. The
// bound port is printed to stderr (port 0 asks the kernel for one), so
// scripts scrape `metrics: serving http://...` instead of guessing.
void start_metrics_server(const Args& args,
                          std::optional<obs::MetricsServer>& server) {
  if (args.metrics_port >= 0) {
    obs::MetricsServerOptions opt;
    opt.port = static_cast<std::uint16_t>(args.metrics_port);
    server.emplace(opt);
    std::fprintf(stderr, "metrics: serving http://127.0.0.1:%u/metrics\n",
                 static_cast<unsigned>(server->port()));
  }
}

// Hold the endpoint open after the run for --metrics-linger-ms, so a
// scraper racing a short batch still gets a deterministic window (the
// check.sh obs stage relies on this).
void linger_metrics(const Args& args,
                    const std::optional<obs::MetricsServer>& server) {
  if (server.has_value() && args.metrics_linger_ms > 0) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(args.metrics_linger_ms));
  }
}

// Emit the requested outputs: human report, metrics JSON, trace JSON.
void finish_obs(const Args& args, const obs::RunReport& report) {
  if (args.report) obs::print_report(stdout, report);
  if (!args.metrics.empty()) {
    obs::write_report_json(args.metrics, report);
    std::fprintf(stderr, "wrote %s\n", args.metrics.c_str());
  }
  if (!args.trace.empty()) {
    obs::write_chrome_trace(args.trace);
    std::fprintf(stderr, "wrote %s\n", args.trace.c_str());
  }
}

obs::RunReport base_report(const Args& args, std::int64_t rows,
                           std::int64_t cols, const PolygonSet& zones) {
  obs::RunReport report;
  report.tool = "zhist hist";
  report.workload = args.positional[0] + " + " + args.positional[1];
  report.config = {
      {"raster_rows", std::to_string(rows)},
      {"raster_cols", std::to_string(cols)},
      {"zones", std::to_string(zones.size())},
      {"bins", std::to_string(args.bins)},
      {"tile", std::to_string(args.tile)},
      {"refine", args.refine == RefineStrategy::kBrute      ? "brute"
                 : args.refine == RefineStrategy::kScanline ? "scanline"
                                                            : "auto"},
      {"partitions", std::to_string(args.part_rows) + "x" +
                         std::to_string(args.part_cols)},
      {"ranks", std::to_string(args.ranks)},
  };
  if (!args.fault_plan.empty()) {
    report.config.emplace_back("fault_plan", args.fault_plan);
  }
  return report;
}

int cmd_hist(const Args& args) {
  if (args.positional.size() != 2) usage();
  const bool with_obs = setup_obs(args);
  std::optional<obs::MetricsServer> metrics_server;
  start_metrics_server(args, metrics_server);
  const std::string& path = args.positional[0];
  const bool cluster = args.ranks > 1 || args.part_rows > 1 ||
                       args.part_cols > 1 || !args.fault_plan.empty() ||
                       !args.checkpoint_dir.empty();
  // A single-process run takes .bq input compressed, so Step 0 decodes
  // only the tiles some zone touches. A cluster run, and a --tile that
  // re-tiles the file, decode the whole raster up front.
  std::optional<BqCompressedRaster> compressed;
  DemRaster raster;
  if (ends_with(path, ".bq")) {
    BqCompressedRaster bq = read_bq(path);
    if (!cluster && bq.tiling().tile_size() == args.tile) {
      compressed.emplace(std::move(bq));
    } else {
      raster = bq.decode_all();
    }
  } else {
    raster = load_raster(path);
  }
  const std::int64_t rows =
      compressed ? compressed->tiling().raster_rows() : raster.rows();
  const std::int64_t cols =
      compressed ? compressed->tiling().raster_cols() : raster.cols();
  const PolygonSet zones = read_polygon_tsv(args.positional[1]);
  std::fprintf(stderr, "raster %lldx%lld, %zu zones, %u bins, tile %lld\n",
               static_cast<long long>(rows), static_cast<long long>(cols),
               zones.size(), args.bins, static_cast<long long>(args.tile));

  if (cluster) {
    ClusterRunConfig cfg;
    cfg.ranks = args.ranks > 0 ? args.ranks : 1;
    cfg.zonal = {.tile_size = args.tile, .bins = args.bins,
                 .refine_strategy = args.refine};
    if (!args.fault_plan.empty()) {
      cfg.fault_tolerance.faults = FaultPlan::parse(args.fault_plan);
      if (cfg.fault_tolerance.faults.seed == 0) {
        cfg.fault_tolerance.faults.seed = args.seed;
      }
    }
    // Partition schema: honor --partitions, else one stripe per rank.
    const int pr =
        (args.part_rows == 1 && args.part_cols == 1)
            ? static_cast<int>(cfg.ranks)
            : args.part_rows;
    std::vector<DemRaster> rasters;
    rasters.push_back(std::move(raster));
    const std::vector<std::pair<int, int>> schemas{{pr, args.part_cols}};

    // Durable checkpoint/resume: journal every accepted partition into
    // <dir>/run.journal; --resume loads the journal (torn tail and all),
    // refuses a manifest mismatch, and recomputes only what is missing.
    std::optional<JournalWriter> journal;
    double resume_seconds = 0.0;
    std::uint32_t generation = 0;
    if (args.resume && args.checkpoint_dir.empty()) {
      std::fprintf(stderr, "--resume needs --checkpoint-dir\n");
      usage();
    }
    if (!args.checkpoint_dir.empty()) {
      std::filesystem::create_directories(args.checkpoint_dir);
      const std::string jpath = args.checkpoint_dir + "/run.journal";
      const RunManifest manifest =
          make_manifest(rasters, schemas, zones, cfg);
      JournalWriterOptions jopts;
      jopts.fsync_interval =
          args.checkpoint_interval > 0 ? args.checkpoint_interval : 1;
      jopts.abort = cfg.fault_tolerance.faults.abort;
      if (args.resume) {
        const JournalLoad load = load_journal(jpath);
        require_manifest_match(load.manifest, manifest, jpath);
        cfg.checkpoint.completed_partitions = load.completed;
        cfg.checkpoint.resume_bins = load.merged_bins;
        resume_seconds = load.resume_seconds;
        journal.emplace(JournalWriter::append(jpath, load, jopts));
        generation = journal->generation();
        std::fprintf(stderr,
                     "resume: %zu of %u partitions journaled "
                     "(generation %u, %llu torn bytes dropped)\n",
                     load.completed.size(), load.manifest.partition_count,
                     generation,
                     static_cast<unsigned long long>(load.torn_bytes));
      } else {
        journal.emplace(JournalWriter::create(jpath, manifest, jopts));
      }
      cfg.checkpoint.sink = &*journal;
    }

    const ClusterRunResult cres =
        run_cluster_zonal(rasters, schemas, zones, cfg);
    if (journal.has_value()) journal->flush();
    std::fprintf(stderr, "cluster: %zu ranks, %.2f s wall%s\n", cfg.ranks,
                 cres.wall_seconds,
                 cres.degraded ? " [DEGRADED: incomplete partitions]" : "");
    std::fprintf(stderr, "%-6s %-10s %10s %10s %10s\n", "rank", "state",
                 "completed", "reassigned", "heartbeats");
    for (std::size_t r = 0; r < cres.rank_outcomes.size(); ++r) {
      const RankOutcome& o = cres.rank_outcomes[r];
      const char* state = o.state == RankState::kCompleted ? "completed"
                          : o.state == RankState::kCrashed ? "crashed"
                                                           : "timed-out";
      std::fprintf(stderr, "%-6zu %-10s %10u %10u %10llu\n", r, state,
                   o.partitions_completed, o.partitions_reassigned,
                   static_cast<unsigned long long>(o.heartbeats));
    }
    if (!args.out.empty()) {
      write_histogram_csv(args.out, cres.merged);
      std::fprintf(stderr, "wrote %s\n", args.out.c_str());
    }
    if (args.stats || args.out.empty()) {
      std::printf("%-16s %12s %7s %7s %10s %10s\n", "zone", "cells", "min",
                  "max", "mean", "stddev");
      for (PolygonId z = 0; z < zones.size(); ++z) {
        const ZonalStats s = stats_from_histogram(cres.merged.of(z));
        std::printf("%-16s %12llu %7u %7u %10.2f %10.2f\n",
                    zones.name(z).c_str(),
                    static_cast<unsigned long long>(s.count), s.min, s.max,
                    s.mean, s.stddev);
      }
    }
    if (with_obs) {
      obs::RunReport report = base_report(args, rows, cols, zones);
      // Per-step times reduce as max over ranks -- the paper's "longest
      // runtime among all the nodes" convention.
      for (const StepTimes& t : cres.per_rank) {
        report.times = report.times.max_with(t);
      }
      report.has_times = true;
      append_work_counters(report, cres.work);
      report.counters.emplace_back("comm_bytes", cres.comm_bytes);
      report.counters.emplace_back("incomplete_partitions",
                                   cres.incomplete_partitions.size());
      if (journal.has_value()) {
        report.config.emplace_back("checkpoint_dir", args.checkpoint_dir);
        report.config.emplace_back("resume", args.resume ? "1" : "0");
        report.config.emplace_back("checkpoint_interval",
                                   std::to_string(args.checkpoint_interval));
        report.config.emplace_back("journal_generation",
                                   std::to_string(generation));
        report.counters.emplace_back("journal.records_written",
                                     journal->records_written());
        report.counters.emplace_back("journal.partitions_skipped",
                                     cres.partitions_skipped);
        report.counters.emplace_back(
            "journal.resume_ms",
            static_cast<std::uint64_t>(resume_seconds * 1e3));
      }
      report.rank_columns = rank_metrics_columns();
      for (std::size_t r = 0; r < cres.rank_metrics.size(); ++r) {
        report.rank_rows.push_back(
            rank_metrics_values(cres.rank_metrics[r]));
        const RankState st = cres.rank_outcomes[r].state;
        report.rank_states.push_back(st == RankState::kCompleted ? "completed"
                                     : st == RankState::kCrashed ? "crashed"
                                                                 : "timed-out");
      }
      finish_obs(args, report);
    }
    linger_metrics(args, metrics_server);
    return cres.degraded ? 1 : 0;
  }

  Device device;
  const ZonalPipeline pipe(device,
                           {.tile_size = args.tile, .bins = args.bins,
                            .refine_strategy = args.refine});
  Timer timer;
  const ZonalResult result =
      compressed ? pipe.run(*compressed, zones) : pipe.run(raster, zones);
  std::fprintf(stderr, "pipeline: %.2f s (steps %.2f s)\n", timer.seconds(),
               result.times.step_total());

  if (!args.out.empty()) {
    write_histogram_csv(args.out, result.per_polygon);
    std::fprintf(stderr, "wrote %s\n", args.out.c_str());
  }
  if (args.stats || args.out.empty()) {
    std::printf("%-16s %12s %7s %7s %10s %10s\n", "zone", "cells", "min",
                "max", "mean", "stddev");
    for (PolygonId z = 0; z < zones.size(); ++z) {
      const ZonalStats s = stats_from_histogram(result.per_polygon.of(z));
      std::printf("%-16s %12llu %7u %7u %10.2f %10.2f\n",
                  zones.name(z).c_str(),
                  static_cast<unsigned long long>(s.count), s.min, s.max,
                  s.mean, s.stddev);
    }
  }
  if (with_obs) {
    obs::RunReport report = base_report(args, rows, cols, zones);
    report.times = result.times;
    report.has_times = true;
    append_work_counters(report, result.work);
    finish_obs(args, report);
  }
  linger_metrics(args, metrics_server);
  return 0;
}

int cmd_encode(const Args& args) {
  if (args.positional.size() != 2) usage();
  const DemRaster raster = load_raster(args.positional[0]);
  const BqCompressedRaster compressed =
      BqCompressedRaster::encode(raster, args.tile);
  write_bq(args.positional[1], compressed);
  std::fprintf(stderr, "%s: %.1f%% of raw (%zu -> %zu bytes)\n",
               args.positional[1].c_str(),
               100.0 * compressed.compression_ratio(),
               compressed.raw_bytes(), compressed.compressed_bytes());
  return 0;
}

int cmd_decode(const Args& args) {
  if (args.positional.size() != 2) usage();
  write_zgrid(args.positional[1], read_bq(args.positional[0]).decode_all());
  return 0;
}

int cmd_render(const Args& args) {
  if (args.positional.size() != 2) usage();
  write_ppm(args.positional[1],
            render_elevation(load_raster(args.positional[0]),
                             args.max_edge));
  return 0;
}

int cmd_synth(const Args& args) {
  if (args.positional.size() != 1) usage();
  const GeoTransform t(-110.0, 45.0, 0.01, 0.01);
  write_zgrid(args.positional[0],
              generate_dem(args.rows, args.cols, t, {.seed = args.seed}));
  std::fprintf(stderr, "wrote %lldx%lld synthetic DEM to %s\n",
               static_cast<long long>(args.rows),
               static_cast<long long>(args.cols),
               args.positional[0].c_str());
  return 0;
}

int cmd_zones(const Args& args) {
  if (args.positional.size() != 1) usage();
  write_polygon_tsv(args.positional[0],
                    conus::generate_county_layer(
                        static_cast<int>(args.nzones), args.seed));
  std::fprintf(stderr, "wrote %zu synthetic zones to %s\n", args.nzones,
               args.positional[0].c_str());
  return 0;
}

int cmd_points(const Args& args) {
  if (args.positional.size() != 2) usage();
  const PointSet points = read_points_csv(args.positional[0]);
  const PolygonSet zones = read_polygon_tsv(args.positional[1]);
  const GeoBox ext = zones.extent();
  // Tile grid sized so the extent splits into ~args.tile tiles per axis.
  const std::int64_t cells = 64 * args.tile;
  const double cell =
      std::max(ext.width(), ext.height()) / static_cast<double>(cells);
  const GeoTransform t(ext.min_x, ext.max_y, cell, cell);
  const TilingScheme tiling(cells, cells, 64);

  Device device;
  PointZonalCounters counters;
  const auto rows =
      zonal_point_summation(device, points, zones, tiling, t, &counters);
  std::printf("%-16s %12s %16s\n", "zone", "count", "weight sum");
  for (PolygonId z = 0; z < zones.size(); ++z) {
    std::printf("%-16s %12llu %16.3f\n", zones.name(z).c_str(),
                static_cast<unsigned long long>(rows[z].count),
                rows[z].weight_sum);
  }
  std::fprintf(stderr,
               "%zu points; %llu bucket-aggregated, %llu PIP-tested\n",
               points.size(),
               static_cast<unsigned long long>(
                   counters.points_in_inside_tiles),
               static_cast<unsigned long long>(counters.pip_point_tests));
  return 0;
}

int cmd_simplify(const Args& args) {
  if (args.positional.size() != 2 || args.eps <= 0.0) usage();
  const PolygonSet zones = read_polygon_tsv(args.positional[0]);
  const PolygonSet simp = simplify_set(zones, args.eps);
  write_polygon_tsv(args.positional[1], simp);
  std::fprintf(stderr, "%zu -> %zu vertices (eps %.6g)\n",
               zones.vertex_count(), simp.vertex_count(), args.eps);
  return 0;
}

int cmd_validate(const Args& args) {
  if (args.positional.size() != 1) usage();
  const PolygonSet zones = read_polygon_tsv(args.positional[0]);
  int bad = 0;
  for (PolygonId z = 0; z < zones.size(); ++z) {
    const ValidationReport r = validate_polygon(zones[z]);
    if (r.ok()) continue;
    ++bad;
    std::printf("%s:", zones.name(z).c_str());
    if (r.has_duplicate_vertices) std::printf(" duplicate-vertices");
    if (r.has_self_intersection) std::printf(" self-intersection");
    if (r.has_ring_crossing) std::printf(" ring-crossing");
    if (r.has_degenerate_ring) std::printf(" degenerate-ring");
    std::printf("\n");
    for (const std::string& note : r.notes) {
      std::printf("  %s\n", note.c_str());
    }
  }
  std::fprintf(stderr, "%zu zones checked, %d with defects\n",
               zones.size(), bad);
  return bad == 0 ? 0 : 1;
}

int cmd_catalog(const Args& args) {
  if (args.positional.size() != 1) usage();
  const Catalog catalog = open_catalog(args.positional[0]);
  Device device;
  Timer timer;
  const CatalogRunResult r = run_catalog(
      device, catalog, {.tile_size = args.tile, .bins = args.bins});
  std::fprintf(stderr, "%zu rasters, %.1f MB read, %.2f s\n",
               r.rasters_processed,
               static_cast<double>(r.bytes_read) / 1e6, timer.seconds());
  if (!args.out.empty()) {
    write_histogram_csv(args.out, r.per_polygon);
    std::fprintf(stderr, "wrote %s\n", args.out.c_str());
  } else {
    const PolygonSet zones = read_polygon_tsv(catalog.zones_path());
    std::printf("%-16s %12s %7s %7s %10s\n", "zone", "cells", "min",
                "max", "mean");
    for (PolygonId z = 0; z < zones.size(); ++z) {
      const ZonalStats s = stats_from_histogram(r.per_polygon.of(z));
      std::printf("%-16s %12llu %7u %7u %10.2f\n",
                  zones.name(z).c_str(),
                  static_cast<unsigned long long>(s.count), s.min, s.max,
                  s.mean);
    }
  }
  return 0;
}

// Batch spec (parsed with the strict obs JSON reader):
//   {"tile": 360,                      // optional, overrides --tile
//    "queries": [{"raster": "dem.zgrid", "zones": "zones.tsv",
//                 "bins": 100, "out": "q0.csv"}, ...]}
// Rasters and zone layers are deduplicated by path, so repeated paths
// load once.
int cmd_query(const Args& args) {
  if (args.batch.empty() || !args.positional.empty()) usage();
  const bool with_obs = setup_obs(args);
  std::optional<obs::MetricsServer> metrics_server;
  start_metrics_server(args, metrics_server);
  const obs::JsonValue spec = obs::parse_json_file(args.batch);
  ZH_REQUIRE(spec.is_object(), "batch spec must be a JSON object: ",
             args.batch);
  const obs::JsonValue* queries = spec.find("queries");
  ZH_REQUIRE(queries != nullptr && queries->is_array() &&
                 !queries->arr.empty(),
             "batch spec needs a non-empty \"queries\" array");

  QueryEngineConfig cfg;
  cfg.tile_size = args.tile;
  if (const obs::JsonValue* t = spec.find("tile");
      t != nullptr && t->is_number()) {
    cfg.tile_size = static_cast<std::int64_t>(t->number);
  }

  // Load each distinct path once. Deques keep element addresses stable
  // as they grow; the engine and queries hold pointers into them.
  std::deque<DemRaster> rasters;
  std::deque<PolygonSet> zone_layers;
  std::map<std::string, RasterHandle> raster_by_path;
  std::map<std::string, const PolygonSet*> zones_by_path;

  Device device;
  QueryEngine engine(device, cfg);
  struct QuerySpec {
    ZonalQuery query;
    std::string out;
  };
  std::vector<QuerySpec> plan;
  plan.reserve(queries->arr.size());
  for (std::size_t i = 0; i < queries->arr.size(); ++i) {
    const obs::JsonValue& q = queries->arr[i];
    ZH_REQUIRE(q.is_object(), "query ", i, " must be a JSON object");
    const obs::JsonValue* raster = q.find("raster");
    const obs::JsonValue* zones = q.find("zones");
    ZH_REQUIRE(raster != nullptr && raster->is_string(), "query ", i,
               " needs a \"raster\" path");
    ZH_REQUIRE(zones != nullptr && zones->is_string(), "query ", i,
               " needs a \"zones\" path");
    QuerySpec qs;
    if (const auto it = raster_by_path.find(raster->str);
        it != raster_by_path.end()) {
      qs.query.raster = it->second;
    } else {
      rasters.push_back(load_raster(raster->str));
      qs.query.raster = engine.add_raster(rasters.back());
      raster_by_path.emplace(raster->str, qs.query.raster);
    }
    if (const auto it = zones_by_path.find(zones->str);
        it != zones_by_path.end()) {
      qs.query.zones = it->second;
    } else {
      zone_layers.push_back(read_polygon_tsv(zones->str));
      qs.query.zones = &zone_layers.back();
      zones_by_path.emplace(zones->str, qs.query.zones);
    }
    qs.query.bins = args.bins;
    if (const obs::JsonValue* bins = q.find("bins");
        bins != nullptr && bins->is_number()) {
      qs.query.bins = static_cast<BinIndex>(bins->number);
    }
    if (const obs::JsonValue* out = q.find("out");
        out != nullptr && out->is_string()) {
      qs.out = out->str;
      require_writable(qs.out);
    }
    plan.push_back(std::move(qs));
  }

  std::fprintf(stderr,
               "batch: %zu queries, %zu rasters, %zu zone layers, "
               "tile %lld\n",
               plan.size(), rasters.size(), zone_layers.size(),
               static_cast<long long>(cfg.tile_size));

  Timer timer;
  StepTimes total_times;
  WorkCounters total_work;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const QueryResult r = engine.run(plan[i].query);
    for (std::size_t st = 0; st < StepTimes::kSteps; ++st) {
      total_times.seconds[st] += r.times.seconds[st];
    }
    total_work += r.work;
    std::fprintf(stderr, "query %zu: %zu zones, steps %.3f s\n", i,
                 r.per_polygon.groups(), r.times.step_total());
    if (!plan[i].out.empty()) {
      write_histogram_csv(plan[i].out, r.per_polygon);
      std::fprintf(stderr, "wrote %s\n", plan[i].out.c_str());
    }
  }
  std::fprintf(stderr, "batch done: %.2f s\n", timer.seconds());

  if (with_obs) {
    obs::RunReport report;
    report.tool = "zhist query";
    report.workload = args.batch;
    report.config = {
        {"queries", std::to_string(plan.size())},
        {"rasters", std::to_string(rasters.size())},
        {"zone_layers", std::to_string(zone_layers.size())},
        {"tile", std::to_string(cfg.tile_size)},
    };
    report.times = total_times;
    report.has_times = true;
    append_work_counters(report, total_work);
    finish_obs(args, report);
  }
  linger_metrics(args, metrics_server);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string cmd = argv[1];
  try {
    const Args args = parse(argc, argv);
    if (cmd == "hist") return cmd_hist(args);
    if (cmd == "encode") return cmd_encode(args);
    if (cmd == "decode") return cmd_decode(args);
    if (cmd == "render") return cmd_render(args);
    if (cmd == "synth") return cmd_synth(args);
    if (cmd == "zones") return cmd_zones(args);
    if (cmd == "points") return cmd_points(args);
    if (cmd == "simplify") return cmd_simplify(args);
    if (cmd == "validate") return cmd_validate(args);
    if (cmd == "catalog") return cmd_catalog(args);
    if (cmd == "query") return cmd_query(args);
  } catch (const zh::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    // std::stoul and friends throw std:: exceptions on malformed flag
    // values; fail with one line instead of std::terminate.
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  usage();
}
