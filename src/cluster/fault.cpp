#include "cluster/fault.hpp"

#include <array>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <type_traits>

namespace zh {

namespace {

/// Uniform draw in [0, 1) keyed by (plan seed, message identity).
double draw(const FaultPlan& plan, RankId src, RankId dst, int tag,
            std::uint64_t index) {
  std::uint64_t h = splitmix64(plan.seed);
  h = splitmix64(h ^ (static_cast<std::uint64_t>(src) << 32 | dst));
  h = splitmix64(h ^ static_cast<std::uint64_t>(static_cast<std::int64_t>(tag)));
  h = splitmix64(h ^ index);
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

constexpr std::array<std::pair<std::string_view, CrashPoint>, 7> kPointNames{
    {{"none", CrashPoint::kNone},
     {"startup", CrashPoint::kStartup},
     {"partition_start", CrashPoint::kPartitionStart},
     {"partition_done", CrashPoint::kPartitionDone},
     {"result_sent", CrashPoint::kResultSent},
     {"before_finish", CrashPoint::kBeforeFinish},
     {"journal_record", CrashPoint::kJournalRecord}}};

/// All parse failures funnel through here so every message has the same
/// shape -- problem, byte offset, full spec, grammar -- and tests can pin
/// the exact text (no __FILE__:__LINE__ noise).
[[noreturn]] void parse_fail(std::string_view spec, std::size_t offset,
                             std::string_view problem) {
  throw InvalidArgument(detail::format_parts(
      "fault plan: ", problem, " at byte ", offset, " of '", spec, "' (",
      FaultPlan::kGrammar, ")"));
}

double parse_prob(std::string_view spec, std::size_t offset,
                  std::string_view key, std::string_view value) {
  // from_chars, not strtod: strtod honors LC_NUMERIC, so a comma-decimal
  // locale would silently truncate "0.5" to 0.
  double p = 0.0;
  const auto [end, ec] =
      std::from_chars(value.data(), value.data() + value.size(), p);
  if (value.empty() || ec != std::errc() ||
      end != value.data() + value.size() || !(p >= 0.0 && p <= 1.0)) {
    parse_fail(spec, offset,
               detail::format_parts("key '", key, "' needs a probability in "
                                    "[0,1], got '", value, "'"));
  }
  return p;
}

/// An integer of the field's own type T: the whole token, digits only
/// (from_chars takes no sign or whitespace for an unsigned T), and in T's
/// range -- so nothing truncates, wraps or negates on the way in.
template <typename T>
T parse_uint(std::string_view spec, std::size_t offset, std::string_view key,
             std::string_view value) {
  static_assert(std::is_unsigned_v<T>);
  T n{};
  const auto [end, ec] =
      std::from_chars(value.data(), value.data() + value.size(), n);
  if (ec != std::errc() || end != value.data() + value.size()) {
    parse_fail(spec, offset,
               detail::format_parts("key '", key, "' needs an integer from 0 "
                                    "to ", std::numeric_limits<T>::max(),
                                    ", got '", value, "'"));
  }
  return n;
}

/// A checkpoint a crash or abort can fire at; "none" names no checkpoint,
/// so it is not one.
CrashPoint parse_point(std::string_view spec, std::size_t offset,
                       std::string_view name) {
  for (const auto& [n, point] : kPointNames) {
    if (name == n && point != CrashPoint::kNone) return point;
  }
  parse_fail(spec, offset,
             detail::format_parts("unknown crash point '", name, "'"));
}

CrashSpec parse_crash(std::string_view spec, std::size_t offset,
                      std::string_view value) {
  const auto at = value.find('@');
  if (at == std::string_view::npos) {
    parse_fail(spec, offset,
               detail::format_parts("key 'crash' needs "
                                    "<rank>@<point>[#<occurrence>], got '",
                                    value, "'"));
  }
  CrashSpec out;
  out.rank = parse_uint<RankId>(spec, offset, "crash", value.substr(0, at));
  std::string_view rest = value.substr(at + 1);
  const auto hash = rest.find('#');
  if (hash != std::string_view::npos) {
    out.occurrence = parse_uint<std::uint32_t>(
        spec, offset + at + 1 + hash + 1, "crash occurrence",
        rest.substr(hash + 1));
    rest = rest.substr(0, hash);
  }
  out.point = parse_point(spec, offset + at + 1, rest);
  return out;
}

AbortSpec parse_abort(std::string_view spec, std::size_t offset,
                      std::string_view value) {
  AbortSpec out;
  std::string_view rest = value;
  const auto hash = rest.find('#');
  if (hash != std::string_view::npos) {
    out.occurrence = parse_uint<std::uint32_t>(
        spec, offset + hash + 1, "abort occurrence", rest.substr(hash + 1));
    rest = rest.substr(0, hash);
  }
  out.point = parse_point(spec, offset, rest);
  return out;
}

}  // namespace

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

std::string_view to_string(CrashPoint point) {
  for (const auto& [name, p] : kPointNames) {
    if (p == point) return name;
  }
  return "unknown";
}

void hard_exit(CrashPoint point, std::uint32_t occurrence) {
  const std::string_view name = to_string(point);
  // A simulated node death must not unwind, flush containers, or run
  // atexit handlers -- durable state is exactly the fsync'd bytes. The
  // one-line epitaph lets the kill/resume harness confirm the abort
  // fired (stderr is unbuffered, so it survives _Exit).
  // zh-lint-ignore(stdio-in-lib): abort-fault epitaph; the kill/resume harness reads stderr
  std::fprintf(stderr, "zh: scripted process abort at %.*s #%u\n",
               static_cast<int>(name.size()), name.data(), occurrence);
  std::_Exit(kAbortExitCode);
}

RankCrash::RankCrash(RankId rank, CrashPoint point, std::uint32_t occurrence)
    : Error(detail::format_parts("rank ", rank, " crashed at ",
                                 to_string(point), " #", occurrence,
                                 " (scripted fault)")),
      rank_(rank),
      point_(point) {}

FaultAction FaultPlan::action_for(RankId src, RankId dst, int tag,
                                  std::uint64_t index) const {
  FaultAction action;
  if (delay_prob > 0.0 && draw(*this, src, dst, tag, index) < delay_prob) {
    action.delay_ms = delay_ms;
  }
  return action;
}

FaultPlan FaultPlan::parse(std::string_view spec) {
  FaultPlan plan;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    auto comma = spec.find(',', pos);
    if (comma == std::string_view::npos) comma = spec.size();
    const std::string_view item = spec.substr(pos, comma - pos);
    const std::size_t item_off = pos;
    pos = comma + 1;
    if (item.empty()) continue;
    const auto eq = item.find('=');
    if (eq == std::string_view::npos) {
      parse_fail(spec, item_off,
                 detail::format_parts("expected key=value, got '", item, "'"));
    }
    const std::string_view key = item.substr(0, eq);
    const std::string_view value = item.substr(eq + 1);
    const std::size_t value_off = item_off + eq + 1;
    if (key == "seed") {
      plan.seed = parse_uint<std::uint64_t>(spec, value_off, key, value);
    } else if (key == "delay") {
      plan.delay_prob = parse_prob(spec, value_off, key, value);
    } else if (key == "delay_ms") {
      plan.delay_ms = parse_uint<std::uint32_t>(spec, value_off, key, value);
    } else if (key == "crash") {
      plan.crash = parse_crash(spec, value_off, value);
    } else if (key == "abort") {
      plan.abort = parse_abort(spec, value_off, value);
    } else {
      parse_fail(spec, item_off,
                 detail::format_parts("unknown key '", key, "'"));
    }
  }
  return plan;
}

}  // namespace zh
