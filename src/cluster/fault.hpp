// Deterministic fault injection for the in-process cluster.
//
// The paper's cluster runs executed on Titan over MPI, whose
// point-to-point transport is reliable and non-overtaking: a message is
// never lost, duplicated or reordered. What a run can meet is a slow
// node and a dead one. A FaultPlan scripts both deterministically: the
// delay fault (a straggler) is decided by a counter-keyed hash of
// (seed, src, dst, tag, message index), so the same seed reproduces the
// same delivery schedule regardless of thread interleaving; rank crashes
// and process aborts fire at named pipeline checkpoints. Tests feed a
// plan through run_cluster / run_cluster_zonal to rehearse failure
// scenarios that real MPI jobs only hit in production.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "common/error.hpp"
#include "common/types.hpp"

namespace zh {

/// Pipeline checkpoints at which a scripted crash can fire. The cluster
/// driver visits these in order for every partition it processes; the
/// journal writer visits kJournalRecord once per record it appends.
enum class CrashPoint : std::uint8_t {
  kNone = 0,
  kStartup,         ///< before any partition work on the rank
  kPartitionStart,  ///< before computing a partition
  kPartitionDone,   ///< after computing, before sending the result
  kResultSent,      ///< after the per-partition result left the rank
  kBeforeFinish,    ///< before the final completion handshake
  kJournalRecord,   ///< mid-append of a checkpoint journal record
};

/// Human-readable checkpoint name ("partition_done", ...).
[[nodiscard]] std::string_view to_string(CrashPoint point);

/// splitmix64: tiny, high-quality 64-bit mixer. Every deterministic
/// fault decision in the cluster layer chains through it, so a replay
/// with the same seed reproduces the same schedule.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t x);

/// Exit code of a scripted process abort (`abort=<point>#<occurrence>`),
/// distinct from ordinary failure exits so harnesses can tell a planned
/// kill from a genuine error.
inline constexpr int kAbortExitCode = 43;

/// Terminate the process immediately -- no destructors, no atexit, no
/// stream flushes -- simulating SIGKILL/OOM-kill for the checkpoint
/// kill/resume harness. Durable state is exactly what was fsync'd.
[[noreturn]] void hard_exit(CrashPoint point, std::uint32_t occurrence);

/// Thrown inside a rank to simulate node loss. run_cluster treats it as
/// the death of that rank alone: the rank goes silent and survivors keep
/// running.
class RankCrash : public Error {
 public:
  RankCrash(RankId rank, CrashPoint point, std::uint32_t occurrence);

  [[nodiscard]] RankId rank() const { return rank_; }
  [[nodiscard]] CrashPoint point() const { return point_; }

 private:
  RankId rank_;
  CrashPoint point_;
};

/// Per-message fault decision produced by a FaultPlan.
struct FaultAction {
  std::uint32_t delay_ms = 0;  ///< message becomes visible only after this

  [[nodiscard]] bool any() const { return delay_ms > 0; }
};

/// Scripted crash: rank `rank` dies at the `occurrence`-th visit (0-based)
/// of checkpoint `point`.
struct CrashSpec {
  RankId rank = 0;
  CrashPoint point = CrashPoint::kNone;
  std::uint32_t occurrence = 0;
};

/// Scripted whole-process abort: hard_exit() at the `occurrence`-th
/// process-wide visit (0-based, counted across all ranks) of checkpoint
/// `point`. Unlike CrashSpec -- which kills one in-process rank and lets
/// survivors recover -- this models node death: the run can only continue
/// by restarting the process and resuming from the durable journal.
struct AbortSpec {
  CrashPoint point = CrashPoint::kNone;
  std::uint32_t occurrence = 0;
};

/// Seedable description of what goes wrong during a cluster run. An empty
/// (default) plan injects nothing and costs one branch per message.
struct FaultPlan {
  std::uint64_t seed = 0;
  double delay_prob = 0.0;
  std::uint32_t delay_ms = 20;  ///< delay applied when the delay fault fires
  CrashSpec crash;              ///< at most one scripted crash
  AbortSpec abort;              ///< at most one scripted process abort

  [[nodiscard]] bool empty() const {
    return delay_prob == 0.0 && crash.point == CrashPoint::kNone &&
           abort.point == CrashPoint::kNone;
  }

  /// The deterministic fault decision for the `index`-th message on the
  /// (src, dst, tag) stream. Pure function of the plan and its arguments.
  [[nodiscard]] FaultAction action_for(RankId src, RankId dst, int tag,
                                       std::uint64_t index) const;

  /// One-line grammar of the spec strings parse() accepts; embedded in
  /// every parse error so a malformed spec is self-documenting.
  static constexpr std::string_view kGrammar =
      "expected key=value[,key=value...] with keys seed=<u64>, "
      "delay=<probability in [0,1]>, delay_ms=<u32>, "
      "crash=<rank>@<point>[#<occurrence>], abort=<point>[#<occurrence>]; "
      "points: startup, partition_start, partition_done, result_sent, "
      "before_finish, journal_record";

  /// Parse a comma-separated spec, e.g.
  ///   "seed=7,delay=0.2,delay_ms=50,crash=2@partition_done#1,
  ///    abort=journal_record#3"
  /// per kGrammar. Every integer is the whole token, unsigned and in its
  /// field's range. Throws InvalidArgument on malformed specs; the message
  /// carries the byte offset of the offending token plus the grammar.
  [[nodiscard]] static FaultPlan parse(std::string_view spec);
};

}  // namespace zh
