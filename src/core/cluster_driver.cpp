#include "core/cluster_driver.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstring>
#include <mutex>

#include "core/load_balance.hpp"
#include "obs/obs.hpp"

namespace zh {

namespace {

using Clock = Deadline::Clock;

// Protocol tags of the supervised dispatch (worker <-> master).
constexpr int kTagHeartbeat = 100;  ///< worker -> master: u32 partition index
constexpr int kTagResult = 101;  ///< worker -> master: u32 index + histogram
constexpr int kTagMore = 102;    ///< worker -> master: request for more work
constexpr int kTagAssign = 103;  ///< master -> worker: u32 list (empty=done)
constexpr int kTagMetrics = 104;  ///< worker -> master: one RankMetricsRow
constexpr int kTagTrace = 105;  ///< worker -> master: zh-trace-frame v1 blob

std::vector<std::byte> encode_result(std::uint32_t part_index,
                                     std::span<const BinCount> bins) {
  std::vector<std::byte> bytes(sizeof(part_index) + bins.size_bytes());
  std::memcpy(bytes.data(), &part_index, sizeof(part_index));
  std::memcpy(bytes.data() + sizeof(part_index), bins.data(),
              bins.size_bytes());
  return bytes;
}

// Accumulate a completed partition's work into a rank's metrics row.
void tally_work(RankMetricsRow& row, const WorkCounters& work) {
  row.cells_total += work.cells_total;
  row.pip_cell_tests += work.pip_cell_tests;
}

// Fold one partition's wall time into a rank's latency columns and the
// live registry histogram the /metrics endpoint serves.
void tally_latency(RankMetricsRow& row, double seconds) {
  ZH_LATENCY_RECORD("latency.partition", seconds);
  const std::uint64_t us = static_cast<std::uint64_t>(seconds * 1e6);
  row.latency_us_sum += us;
  row.latency_us_max = std::max(row.latency_us_max, us);
}

}  // namespace

std::vector<std::string> rank_metrics_columns() {
  return {"partitions",     "heartbeats",     "results",
          "retries",        "comm_bytes",     "cells_total",
          "pip_cell_tests", "latency_us_sum", "latency_us_max",
          "reported"};
}

std::vector<std::uint64_t> rank_metrics_values(const RankMetricsRow& row) {
  return {row.partitions_processed,
          row.heartbeats_sent,
          row.results_sent,
          row.retries,
          row.comm_bytes_sent,
          row.cells_total,
          row.pip_cell_tests,
          row.latency_us_sum,
          row.latency_us_max,
          row.reported};
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
  result.rank_outcomes.assign(config.ranks, RankOutcome{});
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
  // accumulates each partition exactly once (first copy wins), so
  // duplicate deliveries, straggler late results, and recomputation
  // after reassignment all stay exact. Completion is idempotent per
  // partition index -- the whole recovery scheme rests on that.
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
    ZH_COUNTER_ADD("journal.partitions_skipped",
                   ck.completed_partitions.size());
  }

  ClusterOptions options;
  options.faults = ft.faults;
  options.tolerate_rank_crash = true;

  // Crash fates are recorded by the dying ranks themselves (one writer
  // per element): the master can finish before it observes a death that
  // happened after the rank's last useful message, so its view alone
  // would make the outcome table timing-dependent.
  std::vector<char> rank_crashed(config.ranks, 0);
  std::vector<RankOutcome> master_outcome(config.ranks);

  run_cluster(config.ranks, options, [&](Communicator& comm) {
    const RankId me = comm.rank();
    Timer wall;
    // Each rank gets its own virtual device (one accelerator per node,
    // as on Titan).
    Device device(config.device_profile);
    ZonalPipeline pipeline(device, config.zonal);

    // Flush accounting after every partition, not at the end: a rank
    // that crashes later keeps what it already contributed.
    const auto flush = [&](const ZonalResult& r) {
      std::lock_guard lock(result_mutex);
      result.per_rank[me] += r.times;
      result.per_rank_work[me] += r.work;
      result.work += r.work;
    };

    if (me != kRoot) {
      RankMetricsRow row;
      // Stream this rank's trace buffer to the master incrementally
      // (after every partition plus once at the end), so a rank that
      // later crashes has already contributed everything it flushed.
      // Rank attribution is pinned here, at flush time -- the ingesting
      // thread (possibly the master after takeover) must never re-stamp.
      const auto flush_trace = [&] {
        if (!obs::trace_enabled()) return;
        const std::vector<obs::TraceEvent> events =
            obs::take_thread_events(static_cast<std::int32_t>(me));
        if (events.empty()) return;
        comm.send_bytes(kRoot, kTagTrace, obs::encode_trace_events(events));
      };
      try {
        comm.checkpoint(CrashPoint::kStartup);
        const auto process = [&](std::uint32_t index) {
          comm.checkpoint(CrashPoint::kPartitionStart);
          comm.send<std::uint32_t>(
              kRoot, kTagHeartbeat,
              std::span<const std::uint32_t>(&index, 1));
          ++row.heartbeats_sent;
          Timer part_timer;
          const ZonalResult r = compute_partition(pipeline, index);
          tally_latency(row, part_timer.seconds());
          comm.checkpoint(CrashPoint::kPartitionDone);
          comm.send_bytes(kRoot, kTagResult,
                          encode_result(index, r.per_polygon.flat()));
          ++row.results_sent;
          comm.checkpoint(CrashPoint::kResultSent);
          ++row.partitions_processed;
          tally_work(row, r.work);
          flush(r);
          flush_trace();
        };
        for (std::uint32_t i = 0; i < parts.size(); ++i) {
          // Journaled partitions need no recomputation -- the master
          // preloaded their contribution from the resume state.
          if (parts[i].owner == me && resumed[i] == 0) process(i);
        }
        // Pull loop: ask for reassigned work until the master says done.
        for (;;) {
          comm.send_bytes(kRoot, kTagMore, {});
          const std::vector<std::uint32_t> assigned =
              comm.recv<std::uint32_t>(kRoot, kTagAssign);
          if (assigned.empty()) break;
          for (const std::uint32_t index : assigned) process(index);
        }
        comm.checkpoint(CrashPoint::kBeforeFinish);
        // The metrics row travels after the last crash checkpoint: a
        // scripted kBeforeFinish crash leaves the row unreported, which
        // is exactly what the master's table should show.
        row.retries = comm.retries();
        row.comm_bytes_sent = comm.bytes_sent();
        row.reported = 1;
        comm.send<RankMetricsRow>(
            kRoot, kTagMetrics, std::span<const RankMetricsRow>(&row, 1));
        // Final trace flush travels after the metrics row; anything
        // recorded past this point retires with the thread and is still
        // visible in the in-process snapshot.
        flush_trace();
      } catch (const RankCrash&) {
        rank_crashed[me] = 1;  // sole writer of this element
        throw;
      }
      {
        std::lock_guard lock(result_mutex);
        result.rank_seconds[me] = wall.seconds();
      }
      comm_bytes.fetch_add(comm.bytes_sent(), std::memory_order_relaxed);
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

    const auto accumulate = [&](std::uint32_t index,
                                std::span<const BinCount> bins) {
      if (completed[index] != 0) return false;  // first copy wins
      completed[index] = 1;
      ++completed_count;
      auto flat = result.merged.flat();
      ZH_REQUIRE(bins.size() == flat.size(),
                 "partition result size mismatch: got ", bins.size(),
                 " bins, expected ", flat.size());
      for (std::size_t i = 0; i < flat.size(); ++i) flat[i] += bins[i];
      // Journal-before-acknowledge: the acceptance becomes durable
      // before the master acts on it (serving more work, finishing the
      // run), so a process death after this point never forgets an
      // acknowledged partition. Runs on the master thread only.
      if (ck.sink != nullptr) ck.sink->on_partition_complete(index, bins);
      return true;
    };

    RankMetricsRow master_row;  // staging for rows[kRoot] latency columns
    const auto compute_own = [&](std::uint32_t index) {
      Timer part_timer;
      const ZonalResult r = compute_partition(pipeline, index);
      tally_latency(master_row, part_timer.seconds());
      accumulate(index, r.per_polygon.flat());
      ++outcome[kRoot].partitions_completed;
      flush(r);
    };

    for (std::uint32_t i = 0; i < parts.size(); ++i) {
      if (parts[i].owner == kRoot && resumed[i] == 0) compute_own(i);
    }

    // Worker supervision state.
    enum class WState : std::uint8_t { kActive, kParked, kDead };
    std::vector<WState> wstate(comm.size(), WState::kActive);
    std::vector<Clock::time_point> last_seen(comm.size(), Clock::now());
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
    const auto declare_dead = [&](RankId r, RankState state) {
      wstate[r] = WState::kDead;
      outcome[r].state = state;
      for (const std::uint32_t index : open[r]) {
        if (completed[index] == 0) {
          orphans.push_back(index);
          ++outcome[r].partitions_reassigned;
        }
      }
      open[r].clear();
      ZH_COUNTER_ADD("cluster.reassigned_partitions",
                     outcome[r].partitions_reassigned);
      if (state == RankState::kTimedOut) {
        ZH_COUNTER_ADD("cluster.heartbeat_misses", 1);
      }
      if (!orphans.empty()) {
        const std::vector<double>& cost = partition_costs();
        std::stable_sort(orphans.begin(), orphans.end(),
                         [&](std::uint32_t a, std::uint32_t b) {
                           return cost[a] > cost[b];
                         });
      }
      // A timed-out rank may merely be a straggler: release it so it
      // exits once it surfaces instead of waiting for work forever.
      if (state == RankState::kTimedOut) send_done(r);
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
      last_seen[r] = Clock::now();
      return true;
    };

    constexpr std::array<int, 4> kTags{kTagHeartbeat, kTagResult, kTagMore,
                                       kTagTrace};
    const std::int64_t poll_ms =
        std::clamp<std::int64_t>(ft.worker_timeout_ms / 10, 1, 20);
    const auto handle = [&](const AnyMessage& msg) {
      last_seen[msg.src] = Clock::now();
      if (msg.tag == kTagHeartbeat) {
        ++outcome[msg.src].heartbeats;
      } else if (msg.tag == kTagResult) {
        ZH_REQUIRE(msg.payload.size() >= sizeof(std::uint32_t),
                   "short partition result from rank ", msg.src);
        std::uint32_t index = 0;
        std::memcpy(&index, msg.payload.data(), sizeof(index));
        ZH_REQUIRE(index < total, "partition index ", index,
                   " out of range from rank ", msg.src);
        const std::size_t nbins =
            (msg.payload.size() - sizeof(index)) / sizeof(BinCount);
        std::vector<BinCount> bins(nbins);
        std::memcpy(bins.data(), msg.payload.data() + sizeof(index),
                    nbins * sizeof(BinCount));
        if (accumulate(index, bins)) {
          ++outcome[msg.src].partitions_completed;
        }
        auto& mine = open[msg.src];
        mine.erase(std::remove(mine.begin(), mine.end(), index),
                   mine.end());
      } else if (msg.tag == kTagTrace) {
        // Merge the worker's flushed trace buffer as it arrives;
        // duplicate deliveries of the same frame are deduplicated
        // inside ingest, and rank attribution travels in the frame.
        obs::ingest_trace_events(msg.payload);
      } else {  // kTagMore
        if (!serve(msg.src)) {
          if (completed_count == total) {
            send_done(msg.src);
          } else {
            // Hold the request: reassignable work may still appear if
            // another rank dies. Parked ranks are excluded from the
            // silence check -- they are waiting on us.
            wstate[msg.src] = WState::kParked;
          }
        }
      }
    };
    while (completed_count < total) {
      // Trigger retransmission of protocol messages dropped in transit.
      for (RankId r = 1; r < comm.size(); ++r) {
        if (wstate[r] == WState::kDead) continue;
        for (const int tag : kTags) comm.recover_lost(r, tag);
      }
      AnyMessage msg;
      const Status s =
          comm.recv_any(kTags, Deadline::after_ms(poll_ms), msg);
      const Clock::time_point now = Clock::now();
      if (s.is_ok()) handle(msg);
      // Death detection: crashed ranks are flagged by the runtime; a
      // silent-but-alive rank (straggler) is declared dead after the
      // heartbeat window.
      for (RankId r = 1; r < comm.size(); ++r) {
        if (wstate[r] == WState::kDead) continue;
        if (comm.rank_dead(r)) {
          // Everything the rank sent before dying is already enqueued
          // (in-process sends are synchronous). Drain it first so
          // finished partitions are credited to the rank instead of
          // being orphaned and recomputed.
          for (const int tag : kTags) comm.recover_lost(r, tag);
          AnyMessage pending;
          while (comm.recv_any(kTags, Deadline::after_ms(0), pending)
                     .is_ok()) {
            handle(pending);
          }
          declare_dead(r, RankState::kCrashed);
        } else if (wstate[r] == WState::kActive &&
                   now - last_seen[r] >
                       std::chrono::milliseconds(ft.worker_timeout_ms)) {
          declare_dead(r, RankState::kTimedOut);
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
      if (!orphans.empty() && !any_live) {
        if (!ft.master_takeover) break;  // degraded: coverage gap reported
        const std::vector<std::uint32_t> leftover = std::move(orphans);
        orphans.clear();
        for (const std::uint32_t index : leftover) {
          if (completed[index] == 0) compute_own(index);
        }
      }
      if (!any_live && orphans.empty() && completed_count < total) {
        break;  // defensive: nothing can make progress any more
      }
    }

    // Wind down: release every worker we have not released yet. Crashed
    // ranks never read their mailbox again; the send is harmless.
    for (RankId r = 1; r < comm.size(); ++r) send_done(r);

    // Drain the per-rank metrics rows. Released survivors send theirs
    // after their last checkpoint; the recv retry path recovers dropped
    // rows, and a crashed rank fails fast with kRankDead -- its row
    // stays defaulted (reported == 0).
    std::vector<RankMetricsRow> rows(comm.size());
    for (RankId r = 1; r < comm.size(); ++r) {
      std::vector<RankMetricsRow> got;
      const Status s =
          comm.recv<RankMetricsRow>(r, kTagMetrics,
                                    Deadline::after_ms(ft.worker_timeout_ms),
                                    got, ft.retry);
      if (s.is_ok() && got.size() == 1) rows[r] = got[0];
    }

    // Drain trace blobs still in flight (final flushes of released
    // ranks, plus anything a dead rank sent before dying). recover_lost
    // retransmits frames parked by drop faults first, so every "s" flow
    // half that reached the wire makes it into the merged timeline --
    // otherwise the receiver-side "f" events would dangle. A single-rank
    // run has no worker to wait for.
    if (obs::trace_enabled() && comm.size() > 1) {
      constexpr std::array<int, 1> kTraceOnly{kTagTrace};
      for (RankId r = 1; r < comm.size(); ++r) {
        comm.recover_lost(r, kTagTrace);
      }
      const std::int64_t drain_ms =
          std::max<std::int64_t>(poll_ms, ft.faults.delay_ms + 10);
      AnyMessage blob;
      while (comm.recv_any(kTraceOnly, Deadline::after_ms(drain_ms), blob)
                 .is_ok()) {
        obs::ingest_trace_events(blob.payload);
      }
    }

    {
      std::lock_guard lock(result_mutex);
      rows[kRoot].partitions_processed = outcome[kRoot].partitions_completed;
      rows[kRoot].retries = comm.retries();
      rows[kRoot].comm_bytes_sent = comm.bytes_sent();
      tally_work(rows[kRoot], result.per_rank_work[kRoot]);
      rows[kRoot].latency_us_sum = master_row.latency_us_sum;
      rows[kRoot].latency_us_max = master_row.latency_us_max;
      rows[kRoot].reported = 1;
      for (RankId r = 0; r < comm.size(); ++r) {
        result.rank_metrics[r] = rows[r];
      }
      // Fates are merged with the worker-recorded crash flags after the
      // cluster joins; here only the master-side counters are staged.
      for (RankId r = 0; r < comm.size(); ++r) master_outcome[r] = outcome[r];
      result.degraded = completed_count < total;
      for (std::uint32_t i = 0; i < total; ++i) {
        if (completed[i] == 0) result.incomplete_partitions.push_back(i);
      }
      result.rank_seconds[kRoot] = wall.seconds();
    }
    comm_bytes.fetch_add(comm.bytes_sent(), std::memory_order_relaxed);
  });

  // Merge fates now that every rank has joined: a worker's own crash
  // record wins over the master's (possibly unfinished) observation, so
  // the outcome table is deterministic even when the run completes
  // before the master notices a post-result crash.
  for (RankId r = 0; r < config.ranks; ++r) {
    RankOutcome o = master_outcome[r];
    if (rank_crashed[r] != 0) o.state = RankState::kCrashed;
    result.rank_outcomes[r] = o;
  }

  result.comm_bytes = comm_bytes.load();
  for (const double s : result.rank_seconds) {
    result.wall_seconds = std::max(result.wall_seconds, s);
  }
  return result;
}

}  // namespace zh
