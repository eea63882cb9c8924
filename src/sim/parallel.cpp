#include "sim/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <limits>
#include <mutex>
#include <optional>
#include <string>
#include <thread>

#include "sim/observe.hpp"
#include "sim/trace.hpp"

namespace ringent::sim {

bool parse_jobs_value(const char* text, std::size_t& out) {
  // Digits only: strtoull would also skip leading blanks and accept a sign,
  // and it silently wraps negative input ("-3" becomes 2^64 - 3).
  if (text == nullptr || *text < '0' || *text > '9') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') return false;
  if (errno == ERANGE ||
      value > std::numeric_limits<std::size_t>::max()) {
    return false;
  }
  out = static_cast<std::size_t>(value);
  return true;
}

std::size_t max_jobs() {
  const unsigned hw = std::thread::hardware_concurrency();
  const std::size_t cores = hw == 0 ? 1 : hw;
  return std::max<std::size_t>(4 * cores, 8);
}

std::size_t default_jobs() {
  std::size_t env_jobs = 0;
  if (parse_jobs_value(std::getenv("RINGENT_JOBS"), env_jobs) &&
      env_jobs != 0) {
    return std::min(env_jobs, max_jobs());
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

std::size_t resolve_jobs(std::size_t jobs) {
  return jobs == 0 ? default_jobs() : std::min(jobs, max_jobs());
}

namespace {

/// Run task `i` in the current scope: counted, spanned when the scope
/// traces, and timed into the pool_task_ns histogram when it collects
/// histograms (two clock reads — the off path is the task call alone).
void run_task(std::size_t i, const std::function<void(std::size_t)>& task) {
  metrics::bump(metrics::Counter::pool_tasks);
  std::optional<trace::Span> span;
  if (trace::enabled()) span.emplace("task " + std::to_string(i), "pool");
  if (!telemetry::enabled()) {
    task(i);
    return;
  }
  const double start = metrics::wall_seconds();
  task(i);
  const double elapsed = metrics::wall_seconds() - start;
  telemetry::record(telemetry::Histogram::pool_task_ns,
                    elapsed > 0.0 ? static_cast<std::uint64_t>(elapsed * 1e9)
                                  : 0);
}

}  // namespace

struct ThreadPool::Impl {
  std::mutex mutex;
  std::condition_variable work_ready;
  std::condition_variable work_done;
  bool stop = false;

  // Current batch; all fields written under `mutex` before the generation
  // bump that releases the workers.
  std::uint64_t generation = 0;
  std::size_t count = 0;
  const std::function<void(std::size_t)>* fn = nullptr;
  Scope* scope = nullptr;  ///< the caller's scope: each task runs in a child
  std::atomic<std::size_t> next{0};
  std::size_t busy = 0;  ///< workers still draining the current batch

  // First (lowest-index) exception of the batch.
  std::size_t error_index = 0;
  std::exception_ptr error;

  std::vector<std::thread> workers;

  /// Claim and run tasks until the cursor passes `count`. Indices are
  /// claimed in increasing order, so every index below the first throwing
  /// one is guaranteed to have been claimed (and run to completion) — which
  /// is what makes "rethrow the lowest-index exception" deterministic.
  void drain(const std::function<void(std::size_t)>& task) {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      try {
        if (scope != nullptr) {
          const Scope task_scope(scope->collects(), scope);
          run_task(i, task);
        } else {
          run_task(i, task);
        }
      } catch (...) {
        std::lock_guard<std::mutex> lock(mutex);
        if (error == nullptr || i < error_index) {
          error = std::current_exception();
          error_index = i;
        }
        // Fail fast: park the cursor past the end so unclaimed tasks are
        // skipped. In-flight tasks still finish (no cancellation).
        next.store(count, std::memory_order_relaxed);
      }
    }
  }

  void worker_loop() {
    std::uint64_t seen = 0;
    for (;;) {
      const std::function<void(std::size_t)>* task = nullptr;
      {
        std::unique_lock<std::mutex> lock(mutex);
        work_ready.wait(lock, [&] { return stop || generation != seen; });
        if (stop) return;
        seen = generation;
        task = fn;
      }
      drain(*task);
      {
        std::lock_guard<std::mutex> lock(mutex);
        if (--busy == 0) work_done.notify_all();
      }
    }
  }
};

ThreadPool::ThreadPool(std::size_t jobs) : jobs_(resolve_jobs(jobs)) {
  if (jobs_ < 2) return;
  impl_ = std::make_unique<Impl>();
  impl_->workers.reserve(jobs_ - 1);
  // The calling thread participates in every batch, so jobs_ workers means
  // jobs_ - 1 spawned threads.
  for (std::size_t i = 0; i + 1 < jobs_; ++i) {
    impl_->workers.emplace_back([impl = impl_.get()] { impl->worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  if (impl_ == nullptr) return;
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->stop = true;
  }
  impl_->work_ready.notify_all();
  for (auto& worker : impl_->workers) worker.join();
}

void ThreadPool::for_each_index(std::size_t count,
                                const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  if (impl_ == nullptr || count == 1) {
    // Inline path: a plain sequential loop (first exception propagates).
    for (std::size_t i = 0; i < count; ++i) run_task(i, fn);
    return;
  }

  Impl& impl = *impl_;
  {
    std::lock_guard<std::mutex> lock(impl.mutex);
    impl.count = count;
    impl.fn = &fn;
    impl.scope = Scope::current();
    impl.next.store(0, std::memory_order_relaxed);
    impl.error = nullptr;
    impl.error_index = 0;
    impl.busy = impl.workers.size();
    ++impl.generation;
  }
  impl.work_ready.notify_all();

  impl.drain(fn);  // the calling thread is worker number jobs_

  std::unique_lock<std::mutex> lock(impl.mutex);
  impl.work_done.wait(lock, [&] { return impl.busy == 0; });
  if (impl.error != nullptr) {
    const std::exception_ptr error = impl.error;
    impl.error = nullptr;
    lock.unlock();
    std::rethrow_exception(error);
  }
}

}  // namespace ringent::sim
