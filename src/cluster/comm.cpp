#include "cluster/comm.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <tuple>
#include <utility>

#include "common/contracts.hpp"
#include "obs/obs.hpp"

namespace zh {

namespace {

using Clock = Deadline::Clock;

struct Message {
  RankId src;
  int tag;
  std::uint64_t seq;        ///< mailbox arrival number (framing check)
  std::size_t framed_size;  ///< payload size recorded at send time
  std::vector<std::byte> payload;
  /// Injected-delay release time; min() = visible immediately.
  Clock::time_point visible_at = Clock::time_point::min();
  /// Id of the send->recv flow edge; 0 when tracing was off at send.
  std::uint64_t flow_id = 0;
};

/// Record the receive half of a send->recv flow edge.
void finish_flow(std::uint64_t flow_id) {
  if (flow_id != 0 && obs::trace_enabled()) {
    obs::record_flow('f', "comm.recv", "comm", flow_id, obs::now_us());
  }
}

}  // namespace

/// Shared state of one run_cluster invocation.
class Cluster {
 public:
  Cluster(std::size_t ranks, const FaultPlan& faults)
      : faults_(faults),
        delays_(faults_.delay_prob > 0.0),
        ranks_(ranks),
        mailboxes_(ranks),
        dead_(std::make_unique<std::atomic<bool>[]>(ranks)) {
    for (std::size_t r = 0; r < ranks; ++r) dead_[r].store(false);
  }

  [[nodiscard]] std::size_t size() const { return ranks_; }

  void deliver(RankId dst, Message msg) {
    ZH_REQUIRE(dst < ranks_, "destination rank out of range");
    ZH_ASSERT(msg.src < ranks_, "message source rank ", msg.src,
              " out of range [0, ", ranks_, ")");
    ZH_ASSERT(msg.framed_size == msg.payload.size(),
              "message framing corrupted in transit: header says ",
              msg.framed_size, " bytes, payload holds ",
              msg.payload.size());
    if (delays_) {
      const FaultAction action = faults_.action_for(
          msg.src, dst, msg.tag, next_stream_index(msg.src, dst, msg.tag));
      if (action.delay_ms > 0) {
        msg.visible_at =
            Clock::now() + std::chrono::milliseconds(action.delay_ms);
      }
    }
    Mailbox& box = mailboxes_[dst];
    {
      std::lock_guard lock(box.mutex);
      msg.seq = box.arrivals++;
      box.queue.push_back(std::move(msg));
    }
    box.cv.notify_all();
  }

  /// Deadline-bounded matching receive. kRankDead is only reported when
  /// nothing from `src` is pending or in flight, so messages sent before
  /// a crash remain receivable.
  [[nodiscard]] Status await(RankId dst, RankId src, int tag,
                             Deadline deadline, std::vector<std::byte>& out,
                             std::uint64_t& flow_id) {
    ZH_ASSERT(src < ranks_, "recv from rank ", src,
              " which is outside the cluster of ", ranks_, " ranks");
    Mailbox& box = mailboxes_[dst];
    std::unique_lock lock(box.mutex);
    for (;;) {
      const Clock::time_point now = Clock::now();
      Clock::time_point earliest = Clock::time_point::max();
      bool future_match = false;
      for (auto it = box.queue.begin(); it != box.queue.end(); ++it) {
        if (it->src != src || it->tag != tag) continue;
        if (it->visible_at > now) {
          future_match = true;
          earliest = std::min(earliest, it->visible_at);
          continue;
        }
        ZH_ASSERT(it->framed_size == it->payload.size(),
                  "message framing corrupted in mailbox");
        if (!delays_) check_fifo_order(box, src, tag, it->seq);
        out = std::move(it->payload);
        flow_id = it->flow_id;
        box.queue.erase(it);
        return Status::ok();
      }
      if (!future_match && dead_[src].load(std::memory_order_acquire)) {
        return Status::error(
            StatusCode::kRankDead,
            detail::format_parts("rank ", dst, ": recv from rank ", src,
                                 " tag ", tag,
                                 ": peer is dead with no message in flight"));
      }
      if (!deadline.is_never() && now >= deadline.when()) {
        return Status::error(
            StatusCode::kTimeout,
            detail::format_parts("rank ", dst, ": recv from rank ", src,
                                 " tag ", tag, " timed out"));
      }
      Clock::time_point wake = deadline.when();
      if (future_match) wake = std::min(wake, earliest);
      if (wake == Clock::time_point::max()) {
        box.cv.wait(lock);
      } else {
        box.cv.wait_until(lock, wake);
      }
    }
  }

  /// First visible message from any source with a tag in `tags`.
  [[nodiscard]] Status await_any(RankId dst, std::span<const int> tags,
                                 Deadline deadline, AnyMessage& out,
                                 std::uint64_t& flow_id) {
    Mailbox& box = mailboxes_[dst];
    std::unique_lock lock(box.mutex);
    for (;;) {
      const Clock::time_point now = Clock::now();
      Clock::time_point earliest = Clock::time_point::max();
      bool future_match = false;
      for (auto it = box.queue.begin(); it != box.queue.end(); ++it) {
        const bool tag_match =
            std::find(tags.begin(), tags.end(), it->tag) != tags.end();
        if (!tag_match) continue;
        if (it->visible_at > now) {
          future_match = true;
          earliest = std::min(earliest, it->visible_at);
          continue;
        }
        out.src = it->src;
        out.tag = it->tag;
        out.payload = std::move(it->payload);
        flow_id = it->flow_id;
        box.queue.erase(it);
        return Status::ok();
      }
      if (!deadline.is_never() && now >= deadline.when()) {
        return Status::error(
            StatusCode::kTimeout,
            detail::format_parts("rank ", dst,
                                 ": recv_any timed out with no message"));
      }
      Clock::time_point wake = deadline.when();
      if (future_match) wake = std::min(wake, earliest);
      if (wake == Clock::time_point::max()) {
        box.cv.wait(lock);
      } else {
        box.cv.wait_until(lock, wake);
      }
    }
  }

  /// Factory for rank handles (Cluster is a friend of Communicator;
  /// the run_cluster lambda is not).
  [[nodiscard]] Communicator make_comm(RankId rank) {
    return Communicator(this, rank);
  }

  /// Mark a rank as exited (crash, error, or completion) and wake every
  /// waiter so blocked peers observe the death instead of deadlocking.
  void mark_dead(RankId rank) {
    dead_[rank].store(true, std::memory_order_release);
    for (Mailbox& box : mailboxes_) {
      // A waiter checks dead_ under its mailbox lock and then waits,
      // releasing it; taking the lock here after the store means it has
      // either seen the store or is already waiting for this notify.
      { std::lock_guard lock(box.mutex); }
      box.cv.notify_all();
    }
  }

  [[nodiscard]] bool rank_dead(RankId rank) const {
    ZH_REQUIRE(rank < ranks_, "rank out of range");
    return dead_[rank].load(std::memory_order_acquire);
  }

  /// Visit a crash checkpoint; throws RankCrash on the scripted visit.
  /// A scripted process abort (AbortSpec) fires first: its occurrences
  /// count process-wide visits of the point across all ranks, modelling
  /// whole-node death rather than one rank going silent.
  void checkpoint(RankId rank, CrashPoint point) {
    const CrashSpec& crash = faults_.crash;
    const AbortSpec& abort = faults_.abort;
    if (crash.point == CrashPoint::kNone &&
        abort.point == CrashPoint::kNone) {
      return;
    }
    std::uint32_t occurrence = 0;
    std::uint32_t abort_occurrence = 0;
    {
      std::lock_guard lock(checkpoint_mutex_);
      occurrence = checkpoint_visits_[{rank, point}]++;
      if (abort.point == point) abort_occurrence = abort_visits_[point]++;
    }
    if (abort.point == point && abort.occurrence == abort_occurrence) {
      hard_exit(point, abort_occurrence);
    }
    if (crash.rank == rank && crash.point == point &&
        crash.occurrence == occurrence) {
      throw RankCrash(rank, point, occurrence);
    }
  }

 private:
  struct Mailbox {
    std::mutex mutex;
    std::condition_variable cv;
    std::deque<Message> queue;
    std::uint64_t arrivals = 0;  ///< next arrival sequence number
#if ZH_ENABLE_CONTRACTS
    /// Highest seq consumed per (src, tag); guards per-sender FIFO order.
    std::map<std::pair<RankId, int>, std::uint64_t> taken;
#endif
  };

  /// The mailbox matches (src, tag) by scanning from the front, and
  /// deliver() appends, so consumed sequence numbers must be strictly
  /// increasing per (src, tag) stream -- the per-sender FIFO guarantee
  /// MPI-style code relies on. Skipped when a FaultPlan injects delays,
  /// which let a later message overtake a held-back one on purpose.
  /// Caller holds box.mutex.
  static void check_fifo_order(Mailbox& box, RankId src, int tag,
                               std::uint64_t seq) {
#if ZH_ENABLE_CONTRACTS
    const auto key = std::make_pair(src, tag);
    const auto it = box.taken.find(key);
    if (it != box.taken.end()) {
      ZH_ASSERT(seq > it->second,
                "mailbox FIFO order violated for src=", src, " tag=", tag,
                ": consumed seq ", seq, " after ", it->second);
      it->second = seq;
    } else {
      box.taken.emplace(key, seq);
    }
#else
    (void)box;
    (void)src;
    (void)tag;
    (void)seq;
#endif
  }

  /// Deterministic per-(src, dst, tag) message index for fault decisions.
  std::uint64_t next_stream_index(RankId src, RankId dst, int tag) {
    std::lock_guard lock(stream_mutex_);
    return stream_counters_[std::make_tuple(src, dst, tag)]++;
  }

  FaultPlan faults_;
  bool delays_;  ///< the plan can delay messages
  std::size_t ranks_;
  std::vector<Mailbox> mailboxes_;
  std::unique_ptr<std::atomic<bool>[]> dead_;

  std::mutex stream_mutex_;
  std::map<std::tuple<RankId, RankId, int>, std::uint64_t> stream_counters_;

  std::mutex checkpoint_mutex_;
  std::map<std::pair<RankId, CrashPoint>, std::uint32_t> checkpoint_visits_;
  /// Process-wide visit counts per point (AbortSpec occurrences), also
  /// guarded by checkpoint_mutex_.
  std::map<CrashPoint, std::uint32_t> abort_visits_;
};

std::size_t Communicator::size() const { return cluster_->size(); }

void Communicator::send_bytes(RankId dst, int tag,
                              std::vector<std::byte> payload) {
  bytes_sent_ += payload.size();
  // Record the "s" event before handing the message to the transport so
  // its timestamp never postdates delivery.
  std::uint64_t flow_id = 0;
  if (obs::trace_enabled()) {
    flow_id = obs::next_flow_id();
    obs::record_flow('s', "comm.send", "comm", flow_id, obs::now_us());
  }
  const std::size_t framed = payload.size();
  cluster_->deliver(dst,
                    Message{rank_, tag, /*seq=*/0, framed, std::move(payload),
                            Clock::time_point::min(), flow_id});
}

Status Communicator::recv_bytes(RankId src, int tag, Deadline deadline,
                                std::vector<std::byte>& out) {
  ZH_TRACE_SPAN("comm.recv", "comm");
  std::uint64_t flow_id = 0;
  const Status s = cluster_->await(rank_, src, tag, deadline, out, flow_id);
  if (s.is_ok()) finish_flow(flow_id);
  return s;
}

Status Communicator::recv_any(std::span<const int> tags, Deadline deadline,
                              AnyMessage& out) {
  std::uint64_t flow_id = 0;
  const Status s = cluster_->await_any(rank_, tags, deadline, out, flow_id);
  if (s.is_ok()) finish_flow(flow_id);
  return s;
}

bool Communicator::rank_dead(RankId r) const {
  return cluster_->rank_dead(r);
}

void Communicator::checkpoint(CrashPoint point) {
  cluster_->checkpoint(rank_, point);
}

void run_cluster(std::size_t ranks, const FaultPlan& faults,
                 const std::function<void(Communicator&)>& body) {
  ZH_REQUIRE(ranks >= 1, "cluster needs at least one rank");
  Cluster cluster(ranks, faults);

  std::exception_ptr error;
  std::mutex error_mutex;

  // Dedicated threads (not pool tasks): ranks block on recv and must not
  // starve each other. CP.25's joining-thread discipline via explicit
  // join below.
  std::vector<std::thread> threads;
  threads.reserve(ranks);
  for (RankId r = 0; r < ranks; ++r) {
    threads.emplace_back([&, r] {
      // Attribute every span/metric this rank thread records to rank r
      // (the trace viewer groups rank lanes by this). The thread's trace
      // buffer moves into the process registry when the thread exits.
      obs::set_thread_rank(static_cast<std::int32_t>(r));
      Communicator comm = cluster.make_comm(r);
      try {
        body(comm);
      } catch (const RankCrash&) {
        // The rank simply goes silent, like a lost node.
      } catch (...) {
        std::lock_guard lock(error_mutex);
        if (!error) error = std::current_exception();
      }
      // Every exit path marks the rank dead so peers blocked on it fail
      // fast (kRankDead) instead of hanging until their deadline.
      cluster.mark_dead(r);
    });
  }
  for (auto& t : threads) t.join();
  if (error) std::rethrow_exception(error);
}

}  // namespace zh
