// In-process MPI-like communicator.
//
// The paper's cluster runs use MPI across Titan nodes: each node executes
// the four zonal steps on its raster partitions, then the master combines
// per-polygon histograms. This module reproduces that programming model
// in one process: run_cluster() launches one thread per rank; ranks talk
// through mailboxes with (source, tag) matching. Point-to-point send and
// receive are all the cluster driver's master-worker protocol needs
// (core/cluster_driver.cpp); every byte sent is accounted per rank.
//
// Fault model:
//  * the transport is reliable and non-overtaking, as MPI's
//    point-to-point messages are: a send is enqueued at once, and a
//    receive matches (source, tag) front to back;
//  * every blocking receive names its Deadline (Deadline::never() for a
//    wait only a peer's answer or death can end) and returns a Status;
//  * a rank that exits (crash or exception) is marked dead; peers
//    blocked on it get StatusCode::kRankDead instead of deadlocking;
//  * a FaultPlan delays messages (a straggler) and scripts crashes at
//    checkpoints, deterministically per seed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "cluster/fault.hpp"
#include "common/error.hpp"
#include "common/types.hpp"

namespace zh {

class Cluster;

/// A message received by recv_any: payload plus provenance.
struct AnyMessage {
  RankId src = 0;
  int tag = 0;
  std::vector<std::byte> payload;
};

/// Per-rank handle used inside run_cluster bodies.
class Communicator {
 public:
  [[nodiscard]] RankId rank() const { return rank_; }
  [[nodiscard]] std::size_t size() const;

  /// Point-to-point send of raw bytes with a user tag (non-blocking:
  /// enqueues into the destination mailbox; never waits). When tracing
  /// is enabled, records the "s" half of the send->recv flow edge and
  /// carries its flow id to the receiver.
  void send_bytes(RankId dst, int tag, std::vector<std::byte> payload);

  /// Deadline-bounded receive of the next message from `src` with `tag`:
  /// one wait, up to the deadline. Returns kTimeout when the deadline
  /// expires and kRankDead when `src` is dead with nothing pending.
  [[nodiscard]] Status recv_bytes(RankId src, int tag, Deadline deadline,
                                  std::vector<std::byte>& out);

  /// Receive the next visible message from any source whose tag is in
  /// `tags` (master-side supervision loop); returns kTimeout on deadline
  /// expiry.
  [[nodiscard]] Status recv_any(std::span<const int> tags, Deadline deadline,
                                AnyMessage& out);

  /// Typed send/recv of trivially copyable element spans.
  template <typename T>
  void send(RankId dst, int tag, std::span<const T> data) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::vector<std::byte> bytes(data.size_bytes());
    // Empty sends are legal protocol messages (e.g. the "done"
    // assignment); memcpy's pointers must be non-null even for n == 0.
    if (!data.empty()) {
      std::memcpy(bytes.data(), data.data(), data.size_bytes());
    }
    send_bytes(dst, tag, std::move(bytes));
  }

  template <typename T>
  [[nodiscard]] Status recv(RankId src, int tag, Deadline deadline,
                            std::vector<T>& out) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::vector<std::byte> bytes;
    if (Status s = recv_bytes(src, tag, deadline, bytes); !s.is_ok()) {
      return s;
    }
    if (bytes.size() % sizeof(T) != 0) {
      return Status::error(
          StatusCode::kCorrupt,
          detail::format_parts(
              "rank ", rank_, ": message from rank ", src, " tag ", tag,
              " has ", bytes.size(), " bytes, not a multiple of element size ",
              sizeof(T)));
    }
    out.resize(bytes.size() / sizeof(T));
    if (!bytes.empty()) {
      std::memcpy(out.data(), bytes.data(), bytes.size());
    }
    return Status::ok();
  }

  /// Whether `r` has exited (crash or completion). Dead ranks never send
  /// again; pending in-flight messages remain receivable.
  [[nodiscard]] bool rank_dead(RankId r) const;

  /// Visit a named crash checkpoint: throws RankCrash when the cluster's
  /// FaultPlan scripts this rank to die at this visit. No-op otherwise.
  void checkpoint(CrashPoint point);

  /// Bytes this rank has sent so far (communication-volume accounting).
  [[nodiscard]] std::uint64_t bytes_sent() const { return bytes_sent_; }

 private:
  friend class Cluster;
  Communicator(Cluster* cluster, RankId rank)
      : cluster_(cluster), rank_(rank) {}

  Cluster* cluster_;
  RankId rank_;
  std::uint64_t bytes_sent_ = 0;
};

/// Launch `ranks` threads, each running body(comm), with `faults`
/// injected into their messages and checkpoints (an empty plan injects
/// nothing). Returns when all ranks finish. A RankCrash kills only the
/// rank that threw it: it goes silent, like a lost node, and survivors
/// keep running. Any other rank exception is rethrown (the first one).
/// A rank that exits is marked dead so peers blocked on it fail fast
/// instead of deadlocking.
void run_cluster(std::size_t ranks, const FaultPlan& faults,
                 const std::function<void(Communicator&)>& body);

}  // namespace zh
