#include "device/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>
#include <utility>

#include "common/contracts.hpp"
#include "common/error.hpp"
#include "obs/obs.hpp"

namespace zh {

ThreadPool::ThreadPool(unsigned threads) {
  unsigned n = threads != 0 ? threads : std::thread::hardware_concurrency();
  if (n == 0) n = 1;
  workers_.reserve(n);
  for (unsigned i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::post(std::function<void()> task) {
  ZH_ASSERT(task != nullptr, "posted an empty task");
#if defined(ZH_ENABLE_OBS)
  // Only pay the wrapper allocation while a trace is being recorded.
  if (obs::trace_enabled()) {
    task = [inner = std::move(task)] {
      ZH_TRACE_SPAN("pool.task", "pool");
      inner();
    };
  }
#endif
  {
    std::lock_guard lock(mutex_);
    // Posting during shutdown is permitted (the destructor may race with
    // in-flight producers); the task runs only if a worker is still alive
    // to drain it. Posting after the destructor returns is caller UB.
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      // Wait predicate guarantees work is available past this point.
      ZH_ASSERT(!queue_.empty(), "worker woke with an empty queue");
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

namespace {

// Shared state of one parallel_for batch. Workers and the calling thread
// cooperatively claim chunks via `next`; the call returns when `active`
// drops to zero. Held by shared_ptr because helper tasks posted to the
// pool may still be scheduled (and immediately find no chunks) after the
// calling thread has returned.
struct ForBatch {
  std::size_t n = 0;
  std::size_t chunk = 1;
  const std::function<void(std::size_t, std::size_t)>* body = nullptr;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> active{0};  // threads currently draining
  std::atomic<bool> failed{false};
  std::exception_ptr error;
  std::mutex error_mutex;

  // Claim and run chunks until none remain. Registration in `active`
  // must precede the first claim: `body` lives on the caller's stack, and
  // the caller frees it once its own drain() returns and active == 0. A
  // claim made by a thread not yet counted in `active` would let the
  // caller leave while the claim still needs `body` (a use-after-return
  // ASan catches).
  void drain() {
    active.fetch_add(1, std::memory_order_acq_rel);
    for (;;) {
      const std::size_t begin = next.fetch_add(chunk, std::memory_order_relaxed);
      if (begin >= n) break;
      const std::size_t end = std::min(n, begin + chunk);
      ZH_ASSERT(end <= n, "chunk end past range");
      try {
        if (!failed.load(std::memory_order_relaxed)) (*body)(begin, end);
      } catch (...) {
        std::lock_guard lock(error_mutex);
        if (!error) error = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
        // The caller reads `error` lock-free after observing active == 0;
        // declare the edge explicitly for the race checker (the release
        // fetch_sub below carries it for the hardware).
        ZH_TSAN_RELEASE(&error);
      }
    }
    active.fetch_sub(1, std::memory_order_acq_rel);
  }
};

}  // namespace

void ThreadPool::parallel_for(
    std::size_t n, const std::function<void(std::size_t, std::size_t)>& body) {
  if (n == 0) return;

  // Chunk so each worker sees several chunks (load balancing for uneven
  // work, e.g. boundary tiles with heavier Step-4 cost).
  const std::size_t target_chunks = std::max<std::size_t>(1, size() * 4);
  const std::size_t chunk = div_up_local(n, target_chunks);
  if (chunk >= n) {
    body(0, n);
    return;
  }

  auto batch = std::make_shared<ForBatch>();
  batch->n = n;
  batch->chunk = chunk;
  batch->body = &body;

  // One helper per worker; each drains chunks then exits. The calling
  // thread participates too, so parallel_for never deadlocks even when
  // invoked from inside a pool task (all workers busy).
  const std::size_t helpers = size();
  for (std::size_t i = 0; i < helpers; ++i) {
    post([batch] { batch->drain(); });
  }
  batch->drain();

  // All chunks are claimed once drain() returns on this thread; spin-wait
  // (with yield) until every registered helper has left its drain loop.
  while (batch->active.load(std::memory_order_acquire) != 0) {
    std::this_thread::yield();
  }
  ZH_TSAN_ACQUIRE(&batch->error);
  // Take the error out of the batch, so the exception dies on this thread
  // once the caller's handler is done with it. A helper may drop the
  // batch last, and freeing the exception there is ordered after the
  // handler only by the runtime's exception refcount, which TSan cannot
  // see (it reports the helper's destructor racing with what()).
  if (std::exception_ptr error = std::exchange(batch->error, nullptr)) {
    std::rethrow_exception(error);
  }
}

std::size_t ThreadPool::div_up_local(std::size_t a, std::size_t b) {
  return (a + b - 1) / b;
}

ThreadPool& ThreadPool::global() {
  // zh-lint-ignore(naked-new): intentional leak so the pool outlives all statics
  static ThreadPool& pool = *new ThreadPool();
  return pool;
}

}  // namespace zh
