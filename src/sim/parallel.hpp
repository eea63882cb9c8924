// Deterministic parallel execution for independent simulation tasks.
//
// Every paper experiment is a sweep over *independent* simulations (boards,
// stage counts, supply levels, restarts). This layer shards such a sweep
// across worker threads while keeping the determinism contract of the rest
// of the library intact:
//
//  * one task = one self-contained simulation: the task body builds its own
//    core::Oscillator (or ring model) and derives every RNG stream from
//    (master seed, label, task index) via derive_seed — tasks share nothing
//    mutable, so the schedule cannot leak into the results;
//  * results are collected by task index, never by completion order;
//  * there is no work stealing and no per-thread state: workers claim task
//    indices from one monotone cursor, so which thread runs a task is the
//    only nondeterminism — and it is unobservable.
//
// Consequence: every parallelized driver returns bit-identical results for
// any thread count, including 1 (asserted by tests/test_parallel.cpp).
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

namespace ringent::sim {

/// Default worker count: the RINGENT_JOBS environment variable if set to a
/// positive integer (clamped to max_jobs()), otherwise
/// std::thread::hardware_concurrency() (min 1).
std::size_t default_jobs();

/// Hard ceiling on worker threads: 4× hardware_concurrency, floor 8 (so
/// low-core CI machines can still exercise moderate oversubscription).
/// resolve_jobs() clamps to this, so an absurd --jobs / RINGENT_JOBS value
/// cannot ask ThreadPool to spawn billions of threads.
std::size_t max_jobs();

/// Resolve a jobs knob: 0 means "use default_jobs()"; anything above
/// max_jobs() is clamped down to it.
std::size_t resolve_jobs(std::size_t jobs);

/// Parse the text of a --jobs / RINGENT_JOBS value: plain decimal digits.
/// Returns true and stores the parsed count (0 = "use the default") on
/// success; returns false — and leaves `out` untouched — on empty,
/// non-numeric, signed, blank-prefixed or overflowing text
/// ("99999999999999999999" is rejected, not wrapped).
bool parse_jobs_value(const char* text, std::size_t& out);

/// A fixed-size pool of worker threads executing indexed task batches.
///
/// for_each_index(count, fn) runs fn(0) .. fn(count - 1), each exactly once,
/// and blocks until all complete. Indices are claimed in increasing order
/// from a shared atomic cursor (no work stealing, no per-thread queues).
/// If tasks throw, the exception of the *lowest* throwing index is rethrown
/// — the same exception a sequential loop would have surfaced first — so
/// error behaviour is deterministic too.
///
/// With jobs == 1 (or a single task) the batch runs inline on the calling
/// thread and no worker threads are ever spawned.
///
/// Observation: when a scope is current on the calling thread
/// (sim/observe.hpp), every task of a threaded batch runs under its own
/// child of that scope, which adds the task's counts into it when the task
/// ends; inline tasks count straight into it. Totals are the same at any
/// `jobs`.
///
/// The pool itself is not thread-safe: one batch at a time, driven from the
/// owning thread. Tasks must not touch the pool.
class ThreadPool {
 public:
  /// `jobs` = 0 resolves to default_jobs().
  explicit ThreadPool(std::size_t jobs = 0);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t jobs() const { return jobs_; }

  void for_each_index(std::size_t count,
                      const std::function<void(std::size_t)>& fn);

 private:
  struct Impl;
  std::size_t jobs_ = 1;
  std::unique_ptr<Impl> impl_;  ///< null when jobs_ == 1
};

/// Run fn(i) for i in [0, count) on `jobs` workers (0 = default).
template <typename Fn>
void parallel_for_each(std::size_t count, std::size_t jobs, Fn&& fn) {
  ThreadPool pool(jobs);
  pool.for_each_index(count, [&fn](std::size_t i) { fn(i); });
}

/// Map i in [0, count) through fn on `jobs` workers; results are returned
/// in index order regardless of completion order.
template <typename Fn>
auto parallel_index_map(std::size_t count, std::size_t jobs, Fn&& fn)
    -> std::vector<std::invoke_result_t<Fn&, std::size_t>> {
  using R = std::invoke_result_t<Fn&, std::size_t>;
  std::vector<std::optional<R>> slots(count);
  parallel_for_each(count, jobs,
                    [&](std::size_t i) { slots[i].emplace(fn(i)); });
  std::vector<R> out;
  out.reserve(count);
  for (auto& slot : slots) out.push_back(std::move(*slot));
  return out;
}

/// Map each item of `items` through fn on `jobs` workers; the result vector
/// is index-aligned with `items`.
template <typename T, typename Fn>
auto parallel_map(const std::vector<T>& items, std::size_t jobs, Fn&& fn)
    -> std::vector<std::invoke_result_t<Fn&, const T&>> {
  return parallel_index_map(items.size(), jobs,
                            [&](std::size_t i) { return fn(items[i]); });
}

}  // namespace ringent::sim
