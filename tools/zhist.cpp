// zhist: command-line zonal histogramming.
//
// Subcommands (kCommands holds each one's synopsis, which usage() prints):
//   hist      Zonal histograms of a raster (.zgrid, .asc or .bq) over a
//             WKT-TSV zone layer; optional classic statistics table; CSV
//             output. Without cluster flags the whole raster runs in one
//             pipeline call, and a .bq raster whose tiles match --tile
//             decodes only the tiles some zone touches; any other .bq run
//             decodes the whole file first. Either decode is Step 0.
//             --partitions, --ranks, --fault-plan and --checkpoint-dir
//             run the supervised cluster driver instead (one rank unless
//             --ranks says more); --fault-plan scripts message delays,
//             a worker crash and a process abort (see FaultPlan::parse),
//             e.g. "seed=1,delay=0.05,crash=2@partition_done"; a crash
//             no rank can meet (the master, rank 0, a rank past --ranks,
//             or journal_record), or an abort none can (at a rank
//             checkpoint with one rank, or at journal_record without
//             --checkpoint-dir), stops the run with exit code 1 before
//             any input is read.
//             --checkpoint-dir journals every accepted partition into
//             DIR/run.journal, fsynced before the run goes on; after a
//             process death, rerunning with --resume recomputes only
//             un-journaled partitions and produces bit-identical
//             histograms (DESIGN.md 5d).
//   encode    BQ-Tree-compress a raster (one without a nodata value: the
//             container cannot store it).
//   decode    Decompress a .bq container.
//   synth     Generate a synthetic fBm DEM.
//   zones     Generate a synthetic county-style zone layer.
//   simplify  Douglas-Peucker generalization of a zone layer.
//   validate  Geometry validity report.
//   catalog   Out-of-core run over a catalog directory; CSV output and
//             the statistics table as for hist.
//   query     Multi-query batch through the QueryEngine: rasters and zone
//             layers load once (a .bq raster decoded whole, as Step 0)
//             and every query runs the filter-first pipeline. The JSON
//             spec holds the query list (see cmd_query).
//
// Each command takes exactly the flags its kCommands synopsis lists; any
// other flag stops the run with exit code 2 and the usage text before any
// input is read. Integer flag values, and the batch spec's "tile" and
// "bins", must be whole numbers that fit their field and meet its lower
// bound, --eps one finite number, and --fault-plan a spec
// FaultPlan::parse accepts; anything else stops the run with exit code 1
// before a file is written.
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/json.hpp"
#include "zh.hpp"

namespace {

using namespace zh;

// Prints every command's synopsis from kCommands and exits with code 2.
[[noreturn]] void usage();

struct Args {
  std::vector<std::string> positional;
  std::string out;
  BinIndex bins = 5000;
  std::int64_t tile = 360;
  bool stats = false;
  // Step-4 strategy of hist, catalog and query; auto, the library
  // default, picks by edge density.
  RefineStrategy refine = RefineStrategy::kAuto;
  int part_rows = 1;
  int part_cols = 1;
  std::int64_t rows = 1200;
  std::int64_t cols = 1200;
  int nzones = 64;
  std::uint64_t seed = 42;
  double eps = 0.0;
  std::size_t ranks = 1;
  std::string fault_plan;  ///< the --fault-plan spec as given
  FaultPlan faults;        ///< that spec, parsed with the flags
  std::string checkpoint_dir;  ///< durable run-journal directory
  bool resume = false;         ///< continue from the journal in the dir
  std::string trace;    ///< Chrome trace_event JSON output path
  std::string metrics;  ///< run report JSON output path
  bool report = false;  ///< print the human-readable run report
  std::string batch;    ///< JSON batch spec for `zhist query`
};

// Parse an integer flag value as T, the type of the field it sets (the
// caller passes the field's lower bound as a T). The whole token must be
// the number, and it must fit T and be at least `min`; from_chars takes
// no sign for unsigned T, so "-1" fails instead of wrapping.
template <typename T>
T parse_int(const std::string& flag, const std::string& token, T min) {
  static_assert(std::is_integral_v<T>);
  T value{};
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value);
  if (ec != std::errc() || ptr != end || value < min) {
    throw InvalidArgument(flag + ": '" + token +
                          "' is not an integer from " + std::to_string(min) +
                          " to " +
                          std::to_string(std::numeric_limits<T>::max()));
  }
  return value;
}

// Parse a real flag value: the whole token must be one finite number.
double parse_real(const std::string& flag, const std::string& token) {
  double value = 0.0;
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value);
  if (ec != std::errc() || ptr != end || !std::isfinite(value)) {
    throw InvalidArgument(flag + ": '" + token + "' is not a finite number");
  }
  return value;
}

// A batch-spec integer by parse_int's rule. The JSON reader keeps numbers
// as doubles; their shortest fixed-point text is the token a flag would
// carry, so 16.7, -1 and 2^32 fail exactly as they would on the command
// line.
template <typename T>
T json_int(const std::string& key, const obs::JsonValue& value, T min) {
  if (!value.is_number()) {
    throw InvalidArgument(key + ": not a JSON number");
  }
  char text[512];  // fits any double in fixed notation
  const auto [end, ec] = std::to_chars(text, text + sizeof(text),
                                       value.number, std::chars_format::fixed);
  ZH_REQUIRE(ec == std::errc(), key, ": unprintable number");
  return parse_int(key, std::string(text, end), min);
}

// Whether `synopsis` lists `flag`, as "[-o hist.csv]", "[--stats]" and
// "--batch spec.json" list theirs.
bool lists_flag(std::string_view synopsis, std::string_view flag) {
  for (std::size_t at = synopsis.find(flag); at != std::string_view::npos;
       at = synopsis.find(flag, at + 1)) {
    const std::size_t end = at + flag.size();
    const bool starts =
        at == 0 || synopsis[at - 1] == ' ' || synopsis[at - 1] == '[';
    const bool ends =
        end == synopsis.size() || synopsis[end] == ' ' || synopsis[end] == ']';
    if (starts && ends) return true;
  }
  return false;
}

// Parse the arguments of command `name`, which takes the flags its
// `synopsis` lists and no others.
Args parse(std::string_view name, std::string_view synopsis, int argc,
           char** argv) {
  Args args;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    if (!a.empty() && a[0] == '-' && !lists_flag(synopsis, a)) {
      std::fprintf(stderr, "zhist %.*s: unknown flag: %s\n",
                   static_cast<int>(name.size()), name.data(), a.c_str());
      usage();
    }
    if (a == "-o") {
      args.out = next();
    } else if (a == "--bins") {
      args.bins = parse_int(a, next(), BinIndex{1});
    } else if (a == "--tile") {
      args.tile = parse_int(a, next(), std::int64_t{1});
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
      args.part_rows = parse_int(a, v.substr(0, x), 1);
      args.part_cols = parse_int(a, v.substr(x + 1), 1);
    } else if (a == "--rows") {
      args.rows = parse_int(a, next(), std::int64_t{1});
    } else if (a == "--cols") {
      args.cols = parse_int(a, next(), std::int64_t{1});
    } else if (a == "--zones") {
      args.nzones = parse_int(a, next(), 1);
    } else if (a == "--seed") {
      args.seed = parse_int(a, next(), std::uint64_t{0});
    } else if (a == "--eps") {
      args.eps = parse_real(a, next());
    } else if (a == "--ranks") {
      args.ranks = parse_int(a, next(), std::size_t{1});
    } else if (a == "--fault-plan") {
      args.fault_plan = next();
      args.faults = FaultPlan::parse(args.fault_plan);
    } else if (a == "--checkpoint-dir") {
      args.checkpoint_dir = next();
    } else if (a == "--resume") {
      args.resume = true;
    } else if (a == "--trace") {
      args.trace = next();
    } else if (a == "--metrics") {
      args.metrics = next();
    } else if (a == "--report") {
      args.report = true;
    } else if (a == "--batch") {
      args.batch = next();
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

// Decode every tile of `bq`, adding the wall time to `step0`: a run
// report's Step 0 is all the decoding its run did.
DemRaster decode_whole(const BqCompressedRaster& bq, double& step0) {
  const Timer timer;
  DemRaster raster = bq.decode_all();
  step0 += timer.seconds();
  return raster;
}

// A .bq raster decodes whole (timed into `step0`).
DemRaster load_raster(const std::string& path, double& step0) {
  if (ends_with(path, ".asc")) return read_ascii_grid(path);
  if (ends_with(path, ".bq")) return decode_whole(read_bq(path), step0);
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
  return !args.trace.empty() || !args.metrics.empty() || args.report;
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

const char* to_string(RankState state) {
  return state == RankState::kCompleted ? "completed" : "crashed";
}

// `schema` is the partition grid the run used: 1x1 for one pipeline
// call, the driver's schema for a cluster run.
obs::RunReport base_report(const Args& args, std::int64_t rows,
                           std::int64_t cols, const PolygonSet& zones,
                           std::pair<int, int> schema) {
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
      {"partitions", std::to_string(schema.first) + "x" +
                         std::to_string(schema.second)},
      {"ranks", std::to_string(args.ranks)},
  };
  if (!args.fault_plan.empty()) {
    report.config.emplace_back("fault_plan", args.fault_plan);
  }
  return report;
}

// The outputs of hist and catalog: the -o CSV with its "wrote" line, and
// the zone-statistics table with --stats or without -o. `zones()` gives
// the zone layer that names the table's rows; it runs only for the table,
// so catalog reads its zone file only then.
template <typename Zones>
void write_outputs(const Args& args, const HistogramSet& hist,
                   const Zones& zones) {
  if (!args.out.empty()) {
    write_histogram_csv(args.out, hist);
    std::fprintf(stderr, "wrote %s\n", args.out.c_str());
  }
  if (!args.stats && !args.out.empty()) return;
  const PolygonSet& layer = zones();
  std::printf("%-16s %12s %7s %7s %10s %10s\n", "zone", "cells", "min",
              "max", "mean", "stddev");
  for (PolygonId z = 0; z < layer.size(); ++z) {
    const ZonalStats s = stats_from_histogram(hist.of(z));
    std::printf("%-16s %12llu %7u %7u %10.2f %10.2f\n",
                layer.name(z).c_str(),
                static_cast<unsigned long long>(s.count), s.min, s.max,
                s.mean, s.stddev);
  }
}

// The body of `zhist hist`: when `with_obs`, fills `report` for
// finish_obs.
void run_hist(const Args& args, bool with_obs, obs::RunReport& report) {
  const std::string& path = args.positional[0];
  const bool cluster = args.ranks > 1 || args.part_rows > 1 ||
                       args.part_cols > 1 || !args.fault_plan.empty() ||
                       !args.checkpoint_dir.empty();
  // A single-process run takes .bq input compressed, so Step 0 decodes
  // only the tiles some zone touches. A cluster run, and a --tile that
  // re-tiles the file, decode the whole raster up front, and that decode
  // is their Step 0.
  std::optional<BqCompressedRaster> compressed;
  DemRaster raster;
  double step0 = 0.0;
  if (ends_with(path, ".bq")) {
    BqCompressedRaster bq = read_bq(path);
    if (!cluster && bq.tiling().tile_size() == args.tile) {
      compressed.emplace(std::move(bq));
    } else {
      raster = decode_whole(bq, step0);
    }
  } else {
    raster = load_raster(path, step0);
  }
  const std::int64_t rows =
      compressed ? compressed->tiling().raster_rows() : raster.rows();
  const std::int64_t cols =
      compressed ? compressed->tiling().raster_cols() : raster.cols();
  const PolygonSet zones = read_polygon_tsv(args.positional[1]);
  // The cluster's partition schema: --partitions, else one stripe per
  // rank. One the raster's tiles cannot fill is refused here, before the
  // run prints anything.
  const std::pair<int, int> schema{
      args.part_rows == 1 && args.part_cols == 1
          ? static_cast<int>(args.ranks)
          : args.part_rows,
      args.part_cols};
  if (cluster) {
    (void)grid_partition(rows, cols, schema.first, schema.second, args.tile);
  }
  std::fprintf(stderr, "raster %lldx%lld, %zu zones, %u bins, tile %lld\n",
               static_cast<long long>(rows), static_cast<long long>(cols),
               zones.size(), args.bins, static_cast<long long>(args.tile));

  if (cluster) {
    ClusterRunConfig cfg;
    cfg.ranks = args.ranks;
    cfg.zonal = {.tile_size = args.tile, .bins = args.bins,
                 .refine_strategy = args.refine};
    cfg.fault_tolerance.faults = args.faults;
    if (cfg.fault_tolerance.faults.seed == 0) {
      cfg.fault_tolerance.faults.seed = args.seed;
    }
    std::vector<DemRaster> rasters;
    rasters.push_back(std::move(raster));
    const std::vector<std::pair<int, int>> schemas{schema};

    // Durable checkpoint/resume: journal every accepted partition into
    // <dir>/run.journal; --resume loads the journal (torn tail and all),
    // refuses a manifest mismatch, and recomputes only what is missing.
    std::optional<JournalWriter> journal;
    double resume_seconds = 0.0;
    std::uint64_t torn_bytes = 0;
    std::uint32_t generation = 0;
    if (!args.checkpoint_dir.empty()) {
      std::filesystem::create_directories(args.checkpoint_dir);
      const std::string jpath = args.checkpoint_dir + "/run.journal";
      const RunManifest manifest =
          make_manifest(rasters, schemas, zones, cfg);
      JournalWriterOptions jopts;
      jopts.abort = cfg.fault_tolerance.faults.abort;
      if (args.resume) {
        const JournalLoad load = load_journal(jpath);
        require_manifest_match(load.manifest, manifest, jpath);
        cfg.checkpoint.completed_partitions = load.completed;
        cfg.checkpoint.resume_bins = load.merged_bins;
        resume_seconds = load.resume_seconds;
        torn_bytes = load.torn_bytes;
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
    std::fprintf(stderr, "cluster: %zu ranks, %.2f s wall\n", cfg.ranks,
                 cres.wall_seconds);
    std::fprintf(stderr, "%-6s %-10s %10s %10s\n", "rank", "state",
                 "completed", "reassigned");
    for (std::size_t r = 0; r < cres.rank_outcomes.size(); ++r) {
      const RankOutcome& o = cres.rank_outcomes[r];
      std::fprintf(stderr, "%-6zu %-10s %10u %10u\n", r, to_string(o.state),
                   o.partitions_completed, o.partitions_reassigned);
    }
    write_outputs(args, cres.merged,
                  [&]() -> const PolygonSet& { return zones; });
    if (with_obs) {
      report = base_report(args, rows, cols, zones, schemas[0]);
      // Per-step times reduce as max over ranks -- the paper's "longest
      // runtime among all the nodes" convention.
      for (const StepTimes& t : cres.per_rank) {
        report.times = report.times.max_with(t);
      }
      report.times.seconds[0] += step0;
      report.has_times = true;
      append_work_counters(report, cres.work);
      report.counters.emplace_back("comm_bytes", cres.comm_bytes);
      if (journal.has_value()) {
        report.config.emplace_back("checkpoint_dir", args.checkpoint_dir);
        report.config.emplace_back("resume", args.resume ? "1" : "0");
        report.config.emplace_back("journal_generation",
                                   std::to_string(generation));
        report.counters.emplace_back("journal.records_written",
                                     journal->records_written());
        report.counters.emplace_back("journal.partitions_skipped",
                                     cres.partitions_skipped);
        report.counters.emplace_back(
            "journal.resume_ms",
            static_cast<std::uint64_t>(resume_seconds * 1e3));
        if (args.resume) {
          report.counters.emplace_back("journal.torn_bytes", torn_bytes);
        }
      }
      report.rank_columns = rank_metrics_columns();
      for (std::size_t r = 0; r < cres.rank_metrics.size(); ++r) {
        report.rank_rows.push_back(
            rank_metrics_values(cres.rank_metrics[r]));
        report.rank_states.push_back(to_string(cres.rank_outcomes[r].state));
      }
    }
    return;
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

  write_outputs(args, result.per_polygon,
                [&]() -> const PolygonSet& { return zones; });
  if (with_obs) {
    report = base_report(args, rows, cols, zones, {1, 1});
    report.times = result.times;
    report.times.seconds[0] += step0;
    report.has_times = true;
    append_work_counters(report, result.work);
  }
}

int cmd_hist(const Args& args) {
  if (args.positional.size() != 2) usage();
  // --resume means nothing without a journal to read.
  if (args.resume && args.checkpoint_dir.empty()) {
    std::fprintf(stderr, "--resume needs --checkpoint-dir\n");
    usage();
  }
  // A scripted crash or abort no rank can meet stops the run before any
  // input is read.
  require_faults_can_fire(args.faults, args.ranks,
                          !args.checkpoint_dir.empty());
  const bool with_obs = setup_obs(args);
  obs::RunReport report;
  {
    // One root span over the whole run, closed before the trace is
    // written, so the trace's longest span is the run itself.
    ZH_TRACE_SPAN("zhist.hist", "cli");
    run_hist(args, with_obs, report);
  }
  if (with_obs) finish_obs(args, report);
  return 0;
}

int cmd_encode(const Args& args) {
  if (args.positional.size() != 2) usage();
  double step0 = 0.0;  // encode prints no run report
  const DemRaster raster = load_raster(args.positional[0], step0);
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
                    conus::generate_county_layer(args.nzones, args.seed));
  std::fprintf(stderr, "wrote %d synthetic zones to %s\n", args.nzones,
               args.positional[0].c_str());
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
  const CatalogRunResult r =
      run_catalog(device, catalog,
                  {.tile_size = args.tile, .bins = args.bins,
                   .refine_strategy = args.refine});
  std::fprintf(stderr, "%zu rasters, %.1f MB read, %.2f s\n",
               r.rasters_processed,
               static_cast<double>(r.bytes_read) / 1e6, timer.seconds());
  write_outputs(args, r.per_polygon,
                [&] { return read_polygon_tsv(catalog.zones_path()); });
  return 0;
}

// Throw InvalidArgument naming the first member of `object` whose key is
// not in `allowed`; `where` names the object in the message.
void require_known_keys(const obs::JsonValue& object,
                        std::initializer_list<std::string_view> allowed,
                        const std::string& where) {
  for (const auto& [key, value] : object.obj) {
    if (std::find(allowed.begin(), allowed.end(), key) == allowed.end()) {
      throw InvalidArgument(where + ": unknown key \"" + key + "\"");
    }
  }
}

// The member `key` of `object` as a string: nullopt when absent, and an
// InvalidArgument when it is not a JSON string.
std::optional<std::string> json_string(const obs::JsonValue& object,
                                       const std::string& key,
                                       const std::string& where) {
  const obs::JsonValue* value = object.find(key);
  if (value == nullptr) return std::nullopt;
  if (!value->is_string()) {
    throw InvalidArgument(where + " \"" + key + "\": not a JSON string");
  }
  return value->str;
}

// Batch spec (parsed with the strict obs JSON reader):
//   {"tile": 360,                      // optional, overrides --tile
//    "queries": [{"raster": "dem.zgrid", "zones": "zones.tsv",
//                 "bins": 100, "out": "q0.csv"}, ...]}
// Each query needs "raster" and "zones" paths; "bins" (overrides --bins)
// and "out" (the query's CSV) are optional. Every key and value is
// checked before any file is read or written: an unknown key or a value
// of the wrong type stops the run with exit code 1. Rasters and zone
// layers are deduplicated by path, so repeated paths load once.
int cmd_query(const Args& args) {
  if (args.batch.empty() || !args.positional.empty()) usage();
  const obs::JsonValue spec = obs::parse_json_file(args.batch);
  ZH_REQUIRE(spec.is_object(), "batch spec must be a JSON object: ",
             args.batch);
  require_known_keys(spec, {"tile", "queries"}, "batch spec");
  QueryEngineConfig cfg;
  cfg.tile_size = args.tile;
  cfg.refine_strategy = args.refine;
  if (const obs::JsonValue* t = spec.find("tile"); t != nullptr) {
    cfg.tile_size = json_int("\"tile\"", *t, std::int64_t{1});
  }
  const obs::JsonValue* queries = spec.find("queries");
  ZH_REQUIRE(queries != nullptr && queries->is_array() &&
                 !queries->arr.empty(),
             "batch spec needs a non-empty \"queries\" array");
  struct QuerySpec {
    std::string raster;
    std::string zones;
    BinIndex bins;
    std::optional<std::string> out;
  };
  std::vector<QuerySpec> specs;
  specs.reserve(queries->arr.size());
  for (std::size_t i = 0; i < queries->arr.size(); ++i) {
    const obs::JsonValue& q = queries->arr[i];
    const std::string where = "query " + std::to_string(i);
    ZH_REQUIRE(q.is_object(), where, " must be a JSON object");
    require_known_keys(q, {"raster", "zones", "bins", "out"}, where);
    QuerySpec qs;
    const std::optional<std::string> raster = json_string(q, "raster", where);
    const std::optional<std::string> zones = json_string(q, "zones", where);
    ZH_REQUIRE(raster.has_value(), where, " needs a \"raster\" path");
    ZH_REQUIRE(zones.has_value(), where, " needs a \"zones\" path");
    qs.raster = *raster;
    qs.zones = *zones;
    qs.bins = args.bins;
    if (const obs::JsonValue* bins = q.find("bins"); bins != nullptr) {
      qs.bins = json_int(where + " \"bins\"", *bins, BinIndex{1});
    }
    qs.out = json_string(q, "out", where);
    specs.push_back(std::move(qs));
  }
  const bool with_obs = setup_obs(args);

  // Load each distinct path once. Deques keep element addresses stable
  // as they grow; the engine and queries hold pointers into them.
  std::deque<DemRaster> rasters;
  std::deque<PolygonSet> zone_layers;
  std::map<std::string, RasterHandle> raster_by_path;
  std::map<std::string, const PolygonSet*> zones_by_path;

  Device device;
  QueryEngine engine(device, cfg);
  std::vector<ZonalQuery> plan;
  plan.reserve(specs.size());
  StepTimes total_times;  // a .bq raster's decode is the batch's Step 0
  for (const QuerySpec& qs : specs) {
    ZonalQuery query;
    if (const auto it = raster_by_path.find(qs.raster);
        it != raster_by_path.end()) {
      query.raster = it->second;
    } else {
      rasters.push_back(load_raster(qs.raster, total_times.seconds[0]));
      query.raster = engine.add_raster(rasters.back());
      raster_by_path.emplace(qs.raster, query.raster);
    }
    if (const auto it = zones_by_path.find(qs.zones);
        it != zones_by_path.end()) {
      query.zones = it->second;
    } else {
      zone_layers.push_back(read_polygon_tsv(qs.zones));
      query.zones = &zone_layers.back();
      zones_by_path.emplace(qs.zones, query.zones);
    }
    query.bins = qs.bins;
    plan.push_back(query);
  }
  for (const QuerySpec& qs : specs) {
    if (qs.out) require_writable(*qs.out);
  }

  std::fprintf(stderr,
               "batch: %zu queries, %zu rasters, %zu zone layers, "
               "tile %lld\n",
               plan.size(), rasters.size(), zone_layers.size(),
               static_cast<long long>(cfg.tile_size));

  Timer timer;
  WorkCounters total_work;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const QueryResult r = engine.run(plan[i]);
    for (std::size_t st = 0; st < StepTimes::kSteps; ++st) {
      total_times.seconds[st] += r.times.seconds[st];
    }
    total_work += r.work;
    std::fprintf(stderr, "query %zu: %zu zones, steps %.3f s\n", i,
                 r.per_polygon.groups(), r.times.step_total());
    if (const std::optional<std::string>& out = specs[i].out) {
      write_histogram_csv(*out, r.per_polygon);
      std::fprintf(stderr, "wrote %s\n", out->c_str());
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
  return 0;
}

struct Command {
  const char* name;
  const char* synopsis;  ///< arguments after the name, for usage()
  int (*run)(const Args&);
};

constexpr Command kCommands[] = {
    {"hist",
     "<raster> <zones.tsv> [-o hist.csv] [--bins N] [--tile N] [--stats] "
     "[--partitions RxC] [--refine brute|scanline|auto] [--ranks N] "
     "[--seed S] [--fault-plan SPEC] [--checkpoint-dir DIR] [--resume] "
     "[--trace FILE] [--metrics FILE] [--report]",
     cmd_hist},
    {"encode", "<raster> <out.bq> [--tile N]", cmd_encode},
    {"decode", "<in.bq> <out.zgrid>", cmd_decode},
    {"synth", "<out.zgrid> [--rows N] [--cols N] [--seed S]", cmd_synth},
    {"zones", "<out.tsv> [--zones N] [--seed S]", cmd_zones},
    {"simplify", "<zones.tsv> <out.tsv> --eps E", cmd_simplify},
    {"validate", "<zones.tsv>", cmd_validate},
    {"catalog",
     "<dir> [-o hist.csv] [--bins N] [--tile N] [--stats] "
     "[--refine brute|scanline|auto]",
     cmd_catalog},
    {"query",
     "--batch spec.json [--tile N] [--bins N] "
     "[--refine brute|scanline|auto] [--metrics FILE] [--trace FILE] "
     "[--report]",
     cmd_query},
};

void usage() {
  std::fprintf(stderr, "usage:\n");
  for (const Command& c : kCommands) {
    std::fprintf(stderr, "  zhist %s %s\n", c.name, c.synopsis);
  }
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string_view name = argv[1];
  const Command* cmd = nullptr;
  for (const Command& c : kCommands) {
    if (c.name == name) cmd = &c;
  }
  if (cmd == nullptr) {
    std::fprintf(stderr, "unknown command: %s\n", argv[1]);
    usage();
  }
  try {
    return cmd->run(parse(cmd->name, cmd->synopsis, argc, argv));
  } catch (const zh::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    // The standard library (std::filesystem, allocation) throws std::
    // exceptions; fail with one line instead of std::terminate.
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
