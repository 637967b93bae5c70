#include "core/cluster_driver.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstring>
#include <mutex>
#include <type_traits>

#include "core/load_balance.hpp"
#include "obs/obs.hpp"

namespace zh {

namespace {

// Protocol tags of the supervised dispatch (worker <-> master).
/// worker -> master: u32 index + histogram + the partition's WorkCounters
constexpr int kTagResult = 101;
constexpr int kTagMore = 102;    ///< worker -> master: request for more work
constexpr int kTagAssign = 103;  ///< master -> worker: u32 list (empty=done)

// How long the master's supervision loop waits for a message before it
// re-checks for dead ranks.
constexpr std::int64_t kPollMs = 20;

// A result message carries the partition's WorkCounters as raw bytes.
static_assert(std::is_trivially_copyable_v<WorkCounters>);

std::vector<std::byte> encode_result(std::uint32_t part_index,
                                     const ZonalResult& r) {
  const std::span<const BinCount> bins = r.per_polygon.flat();
  std::vector<std::byte> bytes(sizeof(part_index) + bins.size_bytes() +
                               sizeof(WorkCounters));
  std::byte* out = bytes.data();
  std::memcpy(out, &part_index, sizeof(part_index));
  out += sizeof(part_index);
  std::memcpy(out, bins.data(), bins.size_bytes());
  out += bins.size_bytes();
  std::memcpy(out, &r.work, sizeof(WorkCounters));
  return bytes;
}

// Fold one partition's wall time into a rank's latency columns.
void tally_latency(RankMetricsRow& row, double seconds) {
  const std::uint64_t us = static_cast<std::uint64_t>(seconds * 1e6);
  row.latency_us_sum += us;
  row.latency_us_max = std::max(row.latency_us_max, us);
}

}  // namespace

std::vector<std::string> rank_metrics_columns() {
  return {"partitions",     "comm_bytes",     "cells_total",
          "pip_cell_tests", "latency_us_sum", "latency_us_max",
          "reported"};
}

std::vector<std::uint64_t> rank_metrics_values(const RankMetricsRow& row) {
  return {row.partitions_processed,
          row.comm_bytes_sent,
          row.cells_total,
          row.pip_cell_tests,
          row.latency_us_sum,
          row.latency_us_max,
          row.reported};
}

void require_faults_can_fire(const FaultPlan& faults, std::size_t ranks,
                             bool journaled) {
  // Such a crash or abort would pass silently: only the workers visit
  // the rank checkpoints, at journal_record only an abort fires, and
  // only a journal visits journal_record.
  if (const CrashSpec& crash = faults.crash;
      crash.point != CrashPoint::kNone) {
    ZH_REQUIRE(crash.rank >= 1 && crash.rank < ranks, "scripted crash of "
               "rank ", crash.rank, " never fires: only the worker ranks "
               "[1, ", ranks, ") visit crash checkpoints");
    ZH_REQUIRE(crash.point != CrashPoint::kJournalRecord,
               "scripted crash at journal_record never fires: only an "
               "abort fires there");
  }
  if (const CrashPoint abort = faults.abort.point;
      abort == CrashPoint::kJournalRecord) {
    ZH_REQUIRE(journaled, "scripted abort at journal_record never fires: "
               "the run has no checkpoint journal");
  } else if (abort != CrashPoint::kNone) {
    ZH_REQUIRE(ranks >= 2, "scripted abort at ", to_string(abort),
               " never fires: a one-rank run has no worker to visit it");
  }
}

ClusterRunResult run_cluster_zonal(
    const std::vector<DemRaster>& rasters,
    const std::vector<std::pair<int, int>>& schemas,
    const PolygonSet& polygons, const ClusterRunConfig& config) {
  ZH_REQUIRE(rasters.size() == schemas.size(),
             "one partition schema per raster required");
  ZH_REQUIRE(config.ranks >= 1, "need at least one rank");
  ZH_TRACE_SPAN("cluster.run_zonal", "cluster");
  const FaultToleranceConfig& ft = config.fault_tolerance;
  const CheckpointConfig& ck = config.checkpoint;
  require_faults_can_fire(ft.faults, config.ranks, ck.sink != nullptr);

  // Build the global partition list (tile-aligned) and assign owners.
  std::vector<RasterPartition> parts;
  for (std::size_t i = 0; i < rasters.size(); ++i) {
    const auto windows = grid_partition(
        rasters[i].rows(), rasters[i].cols(), schemas[i].first,
        schemas[i].second, config.zonal.tile_size);
    for (const CellWindow& w : windows) {
      parts.push_back(
          RasterPartition{static_cast<std::uint32_t>(i), w, 0});
    }
  }
  // Partition costs (a serial Step-2 pass over every partition) are
  // computed on first use only: by the cost-balanced assignment, or when
  // a dead rank's partitions need their LPT order. A fault-free
  // round-robin run never pays for them.
  std::vector<double> costs;
  const auto partition_costs = [&]() -> const std::vector<double>& {
    if (costs.empty()) {
      ZH_TRACE_SPAN("cluster.partition_costs", "cluster");
      std::vector<GeoTransform> transforms;
      transforms.reserve(rasters.size());
      for (const DemRaster& r : rasters) transforms.push_back(r.transform());
      costs = estimate_partition_costs(parts, transforms,
                                       config.zonal.tile_size, polygons);
    }
    return costs;
  };
  if (config.assignment == PartitionAssignment::kCostBalanced) {
    assign_least_loaded(parts, config.ranks, partition_costs());
  } else {
    assign_round_robin(parts, config.ranks);
  }

  const PolygonSoA soa = PolygonSoA::build(polygons);

  ClusterRunResult result;
  result.per_rank.assign(config.ranks, StepTimes{});
  result.per_rank_work.assign(config.ranks, WorkCounters{});
  result.rank_seconds.assign(config.ranks, 0.0);
  result.rank_metrics.assign(config.ranks, RankMetricsRow{});
  std::mutex result_mutex;
  std::atomic<std::uint64_t> comm_bytes{0};
  constexpr RankId kRoot = 0;

  const auto compute_partition = [&](ZonalPipeline& pipeline,
                                     std::uint32_t index) {
    ZH_TRACE_SPAN("cluster.partition", "cluster");
    const RasterPartition& part = parts[index];
    const DemRaster window =
        rasters[part.raster_index].copy_window(part.window);
    return pipeline.run(window, polygons, soa);
  };

  // Supervised master-worker dispatch. Each rank first computes the
  // partitions it owns; workers stream one result message per partition
  // and then pull reassigned work until released. The master
  // accumulates each partition exactly once (first copy wins), so a
  // crashed rank's delayed result and the recomputation after
  // reassignment both stay exact. Completion is idempotent per partition
  // index -- the whole recovery scheme rests on that.
  result.merged = HistogramSet(polygons.size(), config.zonal.bins);

  // Resume state: partitions a previous generation journaled are marked
  // done up front and their merged contribution preloaded, so this run
  // dispatches only the remainder yet merges bit-identically.
  std::vector<char> resumed(parts.size(), 0);
  for (const std::uint32_t index : ck.completed_partitions) {
    ZH_REQUIRE(index < parts.size(), "resume partition index ", index,
               " out of range for ", parts.size(), " partitions");
    ZH_REQUIRE(resumed[index] == 0, "resume partition index ", index,
               " listed twice");
    resumed[index] = 1;
  }
  result.partitions_skipped = ck.completed_partitions.size();
  if (!ck.completed_partitions.empty()) {
    auto flat = result.merged.flat();
    ZH_REQUIRE(ck.resume_bins.size() == flat.size(),
               "resume histogram size mismatch: got ", ck.resume_bins.size(),
               " bins, expected ", flat.size());
    std::copy(ck.resume_bins.begin(), ck.resume_bins.end(), flat.begin());
  }

  // Crash fates are recorded by the dying ranks themselves (one writer
  // per element): the master can finish before it observes a death that
  // happened after the rank's last useful message, so its view alone
  // would make the outcome table timing-dependent.
  std::vector<char> rank_crashed(config.ranks, 0);

  run_cluster(config.ranks, ft.faults, [&](Communicator& comm) {
    const RankId me = comm.rank();
    Timer wall;
    // Each rank gets its own virtual device (one accelerator per node,
    // as on Titan).
    Device device;
    ZonalPipeline pipeline(device, config.zonal);
    RankMetricsRow row;

    // Flush the rank's own accounting after every partition, not at the
    // end: a rank that crashes later keeps what it already did. The
    // run's `work` is added where the master accepts a partition.
    const auto flush = [&](const ZonalResult& r) {
      ++row.partitions_processed;
      std::lock_guard lock(result_mutex);
      result.per_rank[me] += r.times;
      result.per_rank_work[me] += r.work;
    };
    // Each rank writes its own metrics row and wall time once it is past
    // its last crash checkpoint: a scripted kBeforeFinish crash leaves the
    // row defaulted (reported == 0), which is what the table should show.
    const auto finish = [&] {
      row.comm_bytes_sent = comm.bytes_sent();
      row.reported = 1;
      comm_bytes.fetch_add(comm.bytes_sent(), std::memory_order_relaxed);
      std::lock_guard lock(result_mutex);
      row.cells_total = result.per_rank_work[me].cells_total;
      row.pip_cell_tests = result.per_rank_work[me].pip_cell_tests;
      result.rank_metrics[me] = row;
      result.rank_seconds[me] = wall.seconds();
    };

    if (me != kRoot) {
      try {
        comm.checkpoint(CrashPoint::kStartup);
        const auto process = [&](std::uint32_t index) {
          comm.checkpoint(CrashPoint::kPartitionStart);
          Timer part_timer;
          const ZonalResult r = compute_partition(pipeline, index);
          tally_latency(row, part_timer.seconds());
          comm.checkpoint(CrashPoint::kPartitionDone);
          comm.send_bytes(kRoot, kTagResult, encode_result(index, r));
          comm.checkpoint(CrashPoint::kResultSent);
          flush(r);
        };
        for (std::uint32_t i = 0; i < parts.size(); ++i) {
          // Journaled partitions need no recomputation -- the master
          // preloaded their contribution from the resume state.
          if (parts[i].owner == me && resumed[i] == 0) process(i);
        }
        // Pull loop: ask for reassigned work until the master says done.
        // No deadline: the master answers only once it has work for us
        // or every partition is done, however long the slowest takes; a
        // dead master ends the wait with kRankDead.
        for (;;) {
          comm.send_bytes(kRoot, kTagMore, {});
          std::vector<std::uint32_t> assigned;
          comm.recv<std::uint32_t>(kRoot, kTagAssign, Deadline::never(),
                                   assigned)
              .throw_if_error();
          if (assigned.empty()) break;
          for (const std::uint32_t index : assigned) process(index);
        }
        comm.checkpoint(CrashPoint::kBeforeFinish);
      } catch (const RankCrash&) {
        rank_crashed[me] = 1;  // sole writer of this element
        throw;
      }
      finish();
      return;
    }

    // ---- Master: compute own partitions, then supervise workers. ----
    const std::size_t total = parts.size();
    std::vector<char> completed(total, 0);
    std::size_t completed_count = 0;
    for (std::uint32_t i = 0; i < total; ++i) {
      if (resumed[i] != 0) {
        completed[i] = 1;
        ++completed_count;
      }
    }
    std::vector<RankOutcome> outcome(comm.size());

    // The run's work sums the accepted copies, once per partition;
    // only the master thread writes result.work.
    const auto accumulate = [&](std::uint32_t index,
                                std::span<const BinCount> bins,
                                const WorkCounters& work) {
      if (completed[index] != 0) return false;  // first copy wins
      completed[index] = 1;
      ++completed_count;
      auto flat = result.merged.flat();
      ZH_REQUIRE(bins.size() == flat.size(),
                 "partition result size mismatch: got ", bins.size(),
                 " bins, expected ", flat.size());
      for (std::size_t i = 0; i < flat.size(); ++i) flat[i] += bins[i];
      result.work += work;
      // Journal-before-acknowledge: the acceptance becomes durable
      // before the master acts on it (serving more work, finishing the
      // run), so a process death after this point never forgets an
      // acknowledged partition. Runs on the master thread only.
      if (ck.sink != nullptr) ck.sink->on_partition_complete(index, bins);
      return true;
    };

    const auto compute_own = [&](std::uint32_t index) {
      Timer part_timer;
      const ZonalResult r = compute_partition(pipeline, index);
      tally_latency(row, part_timer.seconds());
      accumulate(index, r.per_polygon.flat(), r.work);
      ++outcome[kRoot].partitions_completed;
      flush(r);
    };

    for (std::uint32_t i = 0; i < parts.size(); ++i) {
      if (parts[i].owner == kRoot && resumed[i] == 0) compute_own(i);
    }

    // Worker supervision state. A worker is dead only once the runtime
    // reports that its thread exited; a slow or silent one keeps its work.
    enum class WState : std::uint8_t { kActive, kParked, kDead };
    std::vector<WState> wstate(comm.size(), WState::kActive);
    std::vector<std::vector<std::uint32_t>> open(comm.size());
    for (std::uint32_t i = 0; i < parts.size(); ++i) {
      if (parts[i].owner != kRoot && resumed[i] == 0) {
        open[parts[i].owner].push_back(i);
      }
    }
    std::vector<std::uint32_t> orphans;  // kept cost-descending (LPT)
    std::vector<char> sent_done(comm.size(), 0);

    const auto send_done = [&](RankId r) {
      if (sent_done[r] != 0) return;
      comm.send<std::uint32_t>(r, kTagAssign, {});
      sent_done[r] = 1;
    };
    const auto declare_dead = [&](RankId r) {
      wstate[r] = WState::kDead;
      for (const std::uint32_t index : open[r]) {
        if (completed[index] == 0) {
          orphans.push_back(index);
          ++outcome[r].partitions_reassigned;
        }
      }
      open[r].clear();
      if (!orphans.empty()) {
        const std::vector<double>& cost = partition_costs();
        std::stable_sort(orphans.begin(), orphans.end(),
                         [&](std::uint32_t a, std::uint32_t b) {
                           return cost[a] > cost[b];
                         });
      }
    };
    // Hand the largest orphaned partition to `r` (LPT greedy: the
    // requester is by construction the least-loaded survivor).
    const auto serve = [&](RankId r) {
      while (!orphans.empty() && completed[orphans.front()] != 0) {
        orphans.erase(orphans.begin());  // stale entry, already done
      }
      if (orphans.empty()) return false;
      const std::uint32_t index = orphans.front();
      orphans.erase(orphans.begin());
      comm.send<std::uint32_t>(r, kTagAssign,
                               std::span<const std::uint32_t>(&index, 1));
      open[r].push_back(index);
      wstate[r] = WState::kActive;
      return true;
    };

    constexpr std::array<int, 2> kTags{kTagResult, kTagMore};
    const auto handle = [&](const AnyMessage& msg) {
      if (msg.tag == kTagResult) {
        std::uint32_t index = 0;
        ZH_REQUIRE(msg.payload.size() >= sizeof(index) + sizeof(WorkCounters),
                   "short partition result from rank ", msg.src);
        std::memcpy(&index, msg.payload.data(), sizeof(index));
        ZH_REQUIRE(index < total, "partition index ", index,
                   " out of range from rank ", msg.src);
        const std::size_t bin_bytes =
            msg.payload.size() - sizeof(index) - sizeof(WorkCounters);
        std::vector<BinCount> bins(bin_bytes / sizeof(BinCount));
        std::memcpy(bins.data(), msg.payload.data() + sizeof(index),
                    bins.size() * sizeof(BinCount));
        WorkCounters work;
        std::memcpy(&work, msg.payload.data() + sizeof(index) + bin_bytes,
                    sizeof(WorkCounters));
        if (accumulate(index, bins, work)) {
          ++outcome[msg.src].partitions_completed;
        }
        auto& mine = open[msg.src];
        mine.erase(std::remove(mine.begin(), mine.end(), index),
                   mine.end());
      } else {  // kTagMore
        if (!serve(msg.src)) {
          if (completed_count == total) {
            send_done(msg.src);
          } else {
            // Hold the request: reassignable work may still appear if
            // another rank dies.
            wstate[msg.src] = WState::kParked;
          }
        }
      }
    };
    while (completed_count < total) {
      AnyMessage msg;
      if (comm.recv_any(kTags, Deadline::after_ms(kPollMs), msg).is_ok()) {
        handle(msg);
      }
      // Death detection: the runtime flags a rank whose thread exited.
      for (RankId r = 1; r < comm.size(); ++r) {
        if (wstate[r] != WState::kDead && comm.rank_dead(r)) {
          // Everything the rank sent before dying is already enqueued
          // (in-process sends are synchronous). Drain it first so
          // finished partitions are credited to the rank instead of
          // being orphaned and recomputed.
          AnyMessage pending;
          while (comm.recv_any(kTags, Deadline::after_ms(0), pending)
                     .is_ok()) {
            handle(pending);
          }
          declare_dead(r);
        }
      }
      // Reassign orphaned work to parked survivors (LPT order).
      for (RankId r = 1; r < comm.size() && !orphans.empty(); ++r) {
        if (wstate[r] == WState::kParked) serve(r);
      }
      while (!orphans.empty() && completed[orphans.front()] != 0) {
        orphans.erase(orphans.begin());
      }
      bool any_live = false;
      for (RankId r = 1; r < comm.size(); ++r) {
        any_live = any_live || wstate[r] != WState::kDead;
      }
      // No worker left to take the orphans: the master computes them.
      // An unfinished partition is always in a live worker's open list
      // or in `orphans`, so the loop ends with every partition done.
      if (!orphans.empty() && !any_live) {
        const std::vector<std::uint32_t> leftover = std::move(orphans);
        orphans.clear();
        for (const std::uint32_t index : leftover) {
          if (completed[index] == 0) compute_own(index);
        }
      }
    }

    // Wind down: release every worker we have not released yet. Crashed
    // ranks never read their mailbox again; the send is harmless.
    for (RankId r = 1; r < comm.size(); ++r) send_done(r);

    {
      std::lock_guard lock(result_mutex);
      result.rank_outcomes = outcome;  // counters; fates are set below
    }
    finish();
  });

  // Every rank has joined: apply the workers' crash records.
  for (RankId r = 0; r < config.ranks; ++r) {
    if (rank_crashed[r] != 0) {
      result.rank_outcomes[r].state = RankState::kCrashed;
    }
  }

  result.comm_bytes = comm_bytes.load();
  for (const double s : result.rank_seconds) {
    result.wall_seconds = std::max(result.wall_seconds, s);
  }
  return result;
}

}  // namespace zh
