// Persistent worker-thread pool.
//
// Per the C++ Core Guidelines (CP.41: minimize thread creation/destruction)
// the pool is created once and reused for every kernel launch, parallel
// primitive and cluster rank; tasks are the unit of work (CP.4).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace zh {

class ThreadPool {
 public:
  /// Create a pool with `threads` workers (0 = hardware concurrency).
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads.
  [[nodiscard]] std::size_t size() const { return workers_.size(); }

  /// Enqueue a fire-and-forget task. The caller must arrange its own
  /// completion signalling (parallel_for does this for callers).
  void post(std::function<void()> task);

  /// Run `body(begin, end)` over [0, n) split into contiguous chunks, one
  /// chunk per task, and block until all chunks finish. Exceptions thrown
  /// by the body are captured and rethrown on the calling thread (first
  /// one wins). n == 1 runs inline on the caller.
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t, std::size_t)>& body);

  /// Process-wide shared pool (lazily constructed, never destroyed before
  /// static teardown).
  static ThreadPool& global();

 private:
  void worker_loop();
  static std::size_t div_up_local(std::size_t a, std::size_t b);

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
};

}  // namespace zh
