// Clean fixture: near-misses for every rule; zh-lint must stay silent.
#include "common/base.hpp"

namespace zh {

// naked-new near-misses: deleted functions and comments are not
// deallocations; the suppressed singleton documents its reason.
struct FixtureNoCopy {
  FixtureNoCopy(const FixtureNoCopy&) = delete;
  FixtureNoCopy& operator=(const FixtureNoCopy&) = delete;
};

FixtureBase& fixture_registry() {
  // zh-lint-ignore(naked-new): fixture: intentional leaky singleton
  static FixtureBase* b = new FixtureBase();
  return *b;
}

// index-width near-misses: wide operands, widened casts, and a literal
// operand ("new int" in a string, 1'000'000 separators exercise the lexer).
long fixture_index(const FixtureBase& base, unsigned plane) {
  const long cells = base.rows * base.cols;
  const char* text = "std::cout << new int[rows * cols];";
  const long scaled = cells * 1'000'000 + static_cast<long>(plane);
  return scaled + static_cast<long>(sizeof(text));
}

// index-width pass-3 near-misses: a wide scan vector, a narrow vector
// whose name is not a scan/offset, and a scan-named scalar.
std::vector<std::uint64_t> pos_v;
std::vector<std::uint32_t> tile_ids;
std::uint32_t num_scalar = 0;

// raw-mutex-lock near-miss: RAII guards; weak against .lock() only.
void fixture_guard(std::mutex& m) {
  std::lock_guard<std::mutex> hold(m);
}

// stdio near-miss: writing to a caller-supplied FILE* is the library's
// reporting contract (obs/report.cpp does exactly this).
void fixture_report(std::FILE* out, long v) {
  std::fprintf(out, "%ld\n", v);
  std::snprintf(nullptr, 0, "%ld", v);
}

// switch-enum near-misses: exhaustive without default, partial with one.
int fixture_switch(FixtureCode code) {
  switch (code) {
    case FixtureCode::kOk: return 0;
    case FixtureCode::kBad: return 1;
  }
  switch (code) {
    case FixtureCode::kOk: return 0;
    default: return 1;
  }
}

// discarded-status near-misses: consumed results.
int fixture_status(Communicator& comm, Deadline d) {
  if (auto s = comm.recv_any(tags, d, msg); !s.is_ok()) return 1;
  comm.recv_bytes(0, 1, d, buf).throw_if_error();
  return fixture_switch(FixtureCode::kOk);  // NOLINT(misc-no-recursion): fixture: scoped and justified
}

}  // namespace zh
