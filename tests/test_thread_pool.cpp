#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <string_view>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "device/thread_pool.hpp"
#include "obs/obs.hpp"

namespace zh {
namespace {

TEST(ThreadPool, SizeIsPositive) {
  EXPECT_GE(ThreadPool::global().size(), 1u);
  ThreadPool local(3);
  EXPECT_EQ(local.size(), 3u);
}

TEST(ThreadPool, ParallelForCoversExactlyOnce) {
  const std::size_t n = 100'000;
  std::vector<std::atomic<int>> hits(n);
  ThreadPool::global().parallel_for(n, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ParallelForEmptyRange) {
  bool called = false;
  ThreadPool::global().parallel_for(
      0, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, ParallelForSingleElement) {
  std::atomic<int> sum{0};
  ThreadPool::global().parallel_for(1, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) sum += static_cast<int>(i) + 7;
  });
  EXPECT_EQ(sum.load(), 7);
}

TEST(ThreadPool, ParallelForSumsCorrectly) {
  const std::size_t n = 1 << 18;
  std::vector<std::uint64_t> data(n);
  std::iota(data.begin(), data.end(), 0u);
  std::atomic<std::uint64_t> total{0};
  ThreadPool::global().parallel_for(n, [&](std::size_t b, std::size_t e) {
    std::uint64_t local = 0;
    for (std::size_t i = b; i < e; ++i) local += data[i];
    total.fetch_add(local, std::memory_order_relaxed);
  });
  EXPECT_EQ(total.load(), static_cast<std::uint64_t>(n) * (n - 1) / 2);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  // A pool task calling parallel_for again must make progress even when
  // every worker is busy (the calling thread participates in draining).
  std::atomic<std::uint64_t> total{0};
  ThreadPool::global().parallel_for(8, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      ThreadPool::global().parallel_for(
          64, [&](std::size_t ib, std::size_t ie) {
            total.fetch_add(ie - ib, std::memory_order_relaxed);
          });
    }
  });
  EXPECT_EQ(total.load(), 8u * 64u);
}

TEST(ThreadPool, ExceptionPropagates) {
  EXPECT_THROW(
      ThreadPool::global().parallel_for(100,
                                        [&](std::size_t b, std::size_t) {
                                          if (b == 0) {
                                            throw InvalidArgument("boom");
                                          }
                                        }),
      InvalidArgument);
}

TEST(ThreadPool, PostRuns) {
  std::atomic<bool> ran{false};
  std::atomic<int> gate{0};
  ThreadPool::global().post([&] {
    ran = true;
    gate = 1;
  });
  while (gate.load() == 0) std::this_thread::yield();
  EXPECT_TRUE(ran.load());
}

TEST(ThreadPool, GrainLargerThanNRunsInlineOnCaller) {
  // n == 1 is a single chunk executed on the calling thread (no tasks
  // posted, no synchronization).
  std::atomic<int> calls{0};
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id body_thread;
  ThreadPool::global().parallel_for(1, [&](std::size_t b, std::size_t e) {
    ++calls;
    body_thread = std::this_thread::get_id();
    EXPECT_EQ(b, 0u);
    EXPECT_EQ(e, 1u);
  });
  EXPECT_EQ(calls.load(), 1);
  EXPECT_EQ(body_thread, caller);
}

TEST(ThreadPool, ExceptionPropagatesFromInlinePath) {
  // n == 1 executes the body inline; the throw must surface unchanged.
  EXPECT_THROW(ThreadPool::global().parallel_for(
                   1, [](std::size_t, std::size_t) {
                     throw std::runtime_error("inline boom");
                   }),
               std::runtime_error);
}

TEST(ThreadPool, FirstExceptionWinsAndPoolStaysUsable) {
  // Every chunk throws; exactly one exception (the first recorded)
  // propagates, and the pool must remain fully operational afterwards.
  ThreadPool pool(4);
  try {
    pool.parallel_for(1024, [](std::size_t b, std::size_t) {
      throw InvalidArgument("chunk " + std::to_string(b));
    });
    FAIL() << "parallel_for swallowed the body exceptions";
  } catch (const InvalidArgument&) {
  }
  std::atomic<std::size_t> covered{0};
  pool.parallel_for(4096, [&](std::size_t b, std::size_t e) {
    covered.fetch_add(e - b, std::memory_order_relaxed);
  });
  EXPECT_EQ(covered.load(), 4096u);
}

TEST(ThreadPool, ChunksNeverClaimPastNOrOverlap) {
  // Sweep awkward (n, pool size) combinations: the chunk size follows
  // both, every invocation must stay inside [0, n), chunks must be
  // non-empty, and coverage must be exact (no claim past n
  // double-counts).
  for (const unsigned threads : {1u, 3u, 4u}) {
    ThreadPool pool(threads);
    for (const std::size_t n : {1u, 2u, 7u, 64u, 1000u, 1001u}) {
      std::atomic<std::size_t> covered{0};
      std::atomic<bool> bad{false};
      pool.parallel_for(n, [&](std::size_t b, std::size_t e) {
        if (b >= e || e > n) bad = true;
        covered.fetch_add(e - b, std::memory_order_relaxed);
      });
      EXPECT_FALSE(bad.load()) << "n=" << n << " threads=" << threads;
      EXPECT_EQ(covered.load(), n) << "n=" << n << " threads=" << threads;
    }
  }
}

#if defined(ZH_ENABLE_OBS)
TEST(ThreadPool, DegenerateRangesPostNoPoolTasks) {
  // n == 0 and n == 1 short-circuit before any task is posted: no
  // worker wakeups, no queue traffic. Every task posted while tracing
  // is on runs inside a pool.task span, so no such span after both
  // calls pins the no-post fast path.
  obs::set_trace_enabled(false);
  obs::trace_clear();
  obs::set_trace_enabled(true);
  std::atomic<int> calls{0};
  ThreadPool::global().parallel_for(
      0, [&](std::size_t, std::size_t) { ++calls; });
  ThreadPool::global().parallel_for(
      1, [&](std::size_t, std::size_t) { ++calls; });
  obs::set_trace_enabled(false);
  EXPECT_EQ(calls.load(), 1);  // the n == 1 call runs inline, once
  std::size_t tasks = 0;
  for (const obs::TraceEvent& e : obs::trace_snapshot()) {
    if (std::string_view(e.name) == "pool.task") ++tasks;
  }
  EXPECT_EQ(tasks, 0u) << "a degenerate parallel_for posted tasks";
  obs::trace_clear();
}
#endif

TEST(ThreadPool, ConcurrentPostDuringShutdownDrainsEverything) {
  // Tasks re-posting from inside workers race with the destructor setting
  // stop_. The shutdown protocol (workers exit only on stop_ + empty
  // queue) guarantees every successfully posted task still executes.
  std::atomic<int> executed{0};
  constexpr int kSeeds = 64;
  {
    ThreadPool pool(3);
    for (int i = 0; i < kSeeds; ++i) {
      pool.post([&executed, &pool] {
        executed.fetch_add(1, std::memory_order_relaxed);
        pool.post(
            [&executed] { executed.fetch_add(1, std::memory_order_relaxed); });
      });
    }
  }  // ~ThreadPool: stop + join; re-posted tasks drain before workers exit
  EXPECT_EQ(executed.load(), 2 * kSeeds);
}

TEST(ThreadPool, DestructorRunsAllPendingTasks) {
  std::atomic<int> executed{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 256; ++i) {
      pool.post([&executed] {
        executed.fetch_add(1, std::memory_order_relaxed);
      });
    }
  }
  EXPECT_EQ(executed.load(), 256);
}

}  // namespace
}  // namespace zh
