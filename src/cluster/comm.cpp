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

// recv_bytes' first wait slice and the cap on later, jittered ones.
constexpr std::int64_t kFirstSliceMs = 50;
constexpr std::int64_t kMaxSliceMs = 1000;

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
        has_faults_(!faults_.empty()),
        ranks_(ranks),
        mailboxes_(ranks),
        dead_(std::make_unique<std::atomic<bool>[]>(ranks)) {
    for (std::size_t r = 0; r < ranks; ++r) dead_[r].store(false);
  }

  [[nodiscard]] std::size_t size() const { return ranks_; }
  [[nodiscard]] const FaultPlan& faults() const { return faults_; }

  void deliver(RankId dst, Message msg) {
    ZH_REQUIRE(dst < ranks_, "destination rank out of range");
    ZH_ASSERT(msg.src < ranks_, "message source rank ", msg.src,
              " out of range [0, ", ranks_, ")");
    ZH_ASSERT(msg.framed_size == msg.payload.size(),
              "message framing corrupted in transit: header says ",
              msg.framed_size, " bytes, payload holds ",
              msg.payload.size());
    FaultAction action;
    if (has_faults_) {
      action = faults_.action_for(msg.src, dst, msg.tag,
                                  next_stream_index(msg.src, dst, msg.tag));
    }
    Mailbox& box = mailboxes_[dst];
    {
      std::lock_guard lock(box.mutex);
      if (action.drop) {
        // Lost in transit: parked until a retrying receiver triggers
        // "retransmission" via recover_lost(). No notify -- the loss is
        // silent, exactly like a dropped MPI packet.
        msg.seq = box.arrivals++;
        box.lost.push_back(std::move(msg));
        return;
      }
      if (action.delay_ms > 0) {
        msg.visible_at =
            Clock::now() + std::chrono::milliseconds(action.delay_ms);
      }
      Message dup;
      if (action.duplicate) dup = msg;
      msg.seq = box.arrivals++;
      if (action.reorder) {
        box.queue.push_front(std::move(msg));
      } else {
        box.queue.push_back(std::move(msg));
      }
      if (action.duplicate) {
        dup.seq = box.arrivals++;
        box.queue.push_back(std::move(dup));
      }
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
        if (!has_faults_) check_fifo_order(box, src, tag, it->seq);
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

  /// Re-deliver messages lost in transit for (dst <- src, tag): the
  /// in-process analog of sender retransmission after an ack timeout.
  std::size_t recover_lost(RankId dst, RankId src, int tag) {
    Mailbox& box = mailboxes_[dst];
    std::size_t recovered = 0;
    {
      std::lock_guard lock(box.mutex);
      for (auto it = box.lost.begin(); it != box.lost.end();) {
        if (it->src == src && it->tag == tag) {
          Message msg = std::move(*it);
          it = box.lost.erase(it);
          msg.seq = box.arrivals++;
          msg.visible_at = Clock::time_point::min();
          box.queue.push_back(std::move(msg));
          ++recovered;
        } else {
          ++it;
        }
      }
    }
    if (recovered > 0) box.cv.notify_all();
    return recovered;
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
    std::deque<Message> lost;  ///< dropped in transit, recoverable by retry
    std::uint64_t arrivals = 0;  ///< next arrival sequence number
#if ZH_ENABLE_CONTRACTS
    /// Highest seq consumed per (src, tag); guards per-sender FIFO order.
    std::map<std::pair<RankId, int>, std::uint64_t> taken;
#endif
  };

  /// The mailbox matches (src, tag) by scanning from the front, and
  /// deliver() appends, so consumed sequence numbers must be strictly
  /// increasing per (src, tag) stream -- the per-sender FIFO guarantee
  /// MPI-style code relies on. Skipped when a FaultPlan injects
  /// reordering/duplication on purpose. Caller holds box.mutex.
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
  bool has_faults_;
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

std::int64_t decorrelated_backoff_ms(std::uint64_t seed, RankId receiver,
                                     RankId src, int tag,
                                     std::uint32_t attempt,
                                     std::int64_t base_ms,
                                     std::int64_t prev_ms) {
  const std::int64_t lo = std::max<std::int64_t>(base_ms, 1);
  const std::int64_t hi = std::max(lo, 3 * std::max(prev_ms, lo));
  std::uint64_t h = splitmix64(seed ^ 0x6A09E667F3BCC909ull);
  h = splitmix64(h ^ (static_cast<std::uint64_t>(receiver) << 32 | src));
  h = splitmix64(h ^
                 static_cast<std::uint64_t>(static_cast<std::int64_t>(tag)));
  h = splitmix64(h ^ attempt);
  return lo + static_cast<std::int64_t>(
                  h % static_cast<std::uint64_t>(hi - lo + 1));
}

std::size_t Communicator::size() const { return cluster_->size(); }

void Communicator::send_bytes(RankId dst, int tag,
                              std::vector<std::byte> payload) {
  bytes_sent_ += payload.size();
  ZH_COUNTER_ADD("comm.msgs_sent", 1);
  ZH_COUNTER_ADD("comm.bytes_sent", payload.size());
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
  std::int64_t slice_ms = kFirstSliceMs;
  for (std::uint32_t attempt = 0;; ++attempt) {
    std::uint64_t flow_id = 0;
    const Deadline slice = Deadline::after_ms(slice_ms).min(deadline);
    const Status s = cluster_->await(rank_, src, tag, slice, out, flow_id);
    if (s.is_ok()) {
      finish_flow(flow_id);
      return s;
    }
    // The slice ended empty-handed, or `src` is dead with nothing
    // visible: retransmit what was dropped in transit and go around
    // again, unless nothing came back and no wait is left.
    const std::size_t recovered = cluster_->recover_lost(rank_, src, tag);
    if (recovered == 0 &&
        (s.code() == StatusCode::kRankDead || deadline.expired())) {
      return s;
    }
    ++retries_;
    ZH_COUNTER_ADD("comm.retries", 1);
    ZH_COUNTER_ADD("comm.msgs_recovered", recovered);
    // Decorrelated jitter, so receivers that timed out together spread
    // their next attempts instead of retrying in lockstep.
    slice_ms = std::min(
        kMaxSliceMs,
        decorrelated_backoff_ms(cluster_->faults().seed, rank_, src, tag,
                                attempt, kFirstSliceMs, slice_ms));
  }
}

Status Communicator::recv_any(std::span<const int> tags, Deadline deadline,
                              AnyMessage& out) {
  std::uint64_t flow_id = 0;
  const Status s = cluster_->await_any(rank_, tags, deadline, out, flow_id);
  if (s.is_ok()) finish_flow(flow_id);
  return s;
}

std::size_t Communicator::recover_lost(RankId src, int tag) {
  return cluster_->recover_lost(rank_, src, tag);
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
