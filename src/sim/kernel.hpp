// Discrete-event simulation kernel.
//
// The kernel advances a femtosecond-resolution clock through a time-ordered
// event queue. Determinism is guaranteed two ways: events at equal timestamps
// fire in schedule order (a monotonically increasing sequence number breaks
// ties), and all stochastic behaviour lives in the components, which draw
// from explicitly seeded streams.
//
// Components implement Process and are registered with add_process(); events
// address them by NodeId plus a component-defined 32-bit tag, so the hot loop
// performs no allocation.
//
// Hot-path structure: the kernel owns one pending-event set, a FlatHeap4
// (sim/event_queue.hpp), by value, and both run calls drain it through one
// loop that dispatches Process::fire virtually. Ring workloads keep a few
// to a few hundred events pending, and a devirtualized fire route measured
// no faster end to end (docs/architecture.md, §Kernel performance).
// The kernel does not own processes: a ring model owns its stages and
// registers them for the duration of a run (see ring/iro.hpp, ring/str.hpp).
//
// Metrics (sim/metrics.hpp) are counted by the kernel, not per event: the
// drain loop only advances the kernel's own schedule sequence and fire
// count, processes add theirs through count(), and everything pending is
// published into the calling thread's counter block once, when the
// run_until / run_events call returns (or throws). A schedule or count
// issued outside a run call publishes before returning, or when the
// enclosing Kernel::Batch closes. The contract: a snapshot taken on a
// thread between kernel calls is exact. metrics::enabled() is read at
// publish time only, so the event loop does no metrics work.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/require.hpp"
#include "common/time.hpp"
#include "sim/event_queue.hpp"
#include "sim/metrics.hpp"
#include "sim/telemetry.hpp"

namespace ringent::sim {

using NodeId = std::uint32_t;
inline constexpr NodeId invalid_node = ~NodeId{0};

class Kernel;

/// Interface for anything that can receive scheduled events.
class Process {
 public:
  virtual ~Process() = default;

  /// Called when an event scheduled for this process reaches the head of the
  /// queue. `tag` is the value passed at schedule time; its meaning is
  /// private to the process.
  virtual void fire(Kernel& kernel, std::uint32_t tag) = 0;
};

class Kernel {
 public:
  Kernel() = default;
  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  /// Register a process; the returned id addresses it in schedule calls.
  /// The caller keeps ownership and must keep the process alive until the
  /// kernel is destroyed or reset.
  NodeId add_process(Process* process) {
    RINGENT_REQUIRE(process != nullptr, "null process");
    processes_.push_back(process);
    return static_cast<NodeId>(processes_.size() - 1);
  }

  /// Number of registered processes.
  std::size_t process_count() const { return processes_.size(); }

  /// Schedule an event `delay` after the current time. Delays must be
  /// non-negative and must not carry the clock past Time::max(); zero-delay
  /// events fire after already-queued events with the same timestamp.
  void schedule_in(Time delay, NodeId node, std::uint32_t tag = 0) {
    RINGENT_REQUIRE(!delay.is_negative(), "negative delay");
    RINGENT_REQUIRE(delay <= Time::max() - now_,
                    "delay overflows the simulation clock");
    schedule_at(now_ + delay, node, tag);
  }

  /// Schedule an event at an absolute time >= now().
  void schedule_at(Time at, NodeId node, std::uint32_t tag = 0) {
    RINGENT_REQUIRE(node < processes_.size(), "unknown node id");
    RINGENT_REQUIRE(at >= now_, "cannot schedule in the past");
    heap_.push(QueuedEvent{at, next_seq_++, node, tag});
    telemetry::record(telemetry::Histogram::queue_depth, heap_.size());
    if (!batching_) publish();
  }

  /// Count `n` occurrences of `counter` on behalf of a process (the STR's
  /// Charlie evaluations, say). Published with the kernel's own counts when
  /// the enclosing Batch closes (every run call is one), or at once
  /// outside a Batch.
  void count(metrics::Counter counter, std::uint64_t n = 1) {
    pending_[static_cast<std::size_t>(counter)] += n;
    if (!batching_) publish();
  }

  /// Current simulation time (the timestamp of the last fired event).
  Time now() const { return now_; }

  /// Total events fired since construction.
  std::uint64_t events_fired() const { return events_fired_; }

  /// True if no events are pending.
  bool idle() const { return heap_.empty(); }

  /// Fire events until the queue is empty or the next event is later than
  /// `t_end`. Events exactly at `t_end` are fired. Returns events fired by
  /// this call. On return now() == t_end if any horizon was reached early.
  std::uint64_t run_until(Time t_end);

  /// Fire at most `max_events` events. Returns events fired.
  std::uint64_t run_events(std::uint64_t max_events);

  /// While a Batch is open, schedules and counts accumulate in the kernel;
  /// they are published once when it closes, on every way out (a throwing
  /// Process::fire included). Every run call drains inside one; a process
  /// that schedules many events outside a run (Str::start) opens its own.
  class Batch {
   public:
    explicit Batch(Kernel& kernel) : kernel_(kernel) {
      kernel_.batching_ = true;
    }
    ~Batch() {
      kernel_.batching_ = false;
      kernel_.publish();
    }
    Batch(const Batch&) = delete;
    Batch& operator=(const Batch&) = delete;

   private:
    Kernel& kernel_;
  };

  /// Drop all pending events and reset the clock to zero. Registered
  /// processes stay registered.
  void reset_time();

  /// Pre-size the pending-event set for an expected steady population
  /// (e.g. ~1 event per ring stage) so the hot loop never reallocates.
  void reserve_events(std::size_t expected_events) {
    heap_.reserve(expected_events);
  }

 private:
  /// Add everything counted since the last publish into the calling
  /// thread's counter block (nothing when metrics are off) and clear it.
  void publish();

  /// The one drain loop behind both run calls: pop and fire events in
  /// (time, seq) order while the next one is no later than `t_end`, at most
  /// `max_events` of them, inside one Batch. Returns events fired.
  std::uint64_t drain(Time t_end, std::uint64_t max_events);

  std::vector<Process*> processes_;
  FlatHeap4 heap_;
  Time now_ = Time::zero();
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_fired_ = 0;
  // Metrics not yet published. Schedules and fires are not tallied per
  // event: publish() reads them off next_seq_ / events_fired_ against these
  // watermarks. Per-Kernel state, so never shared across threads.
  std::array<std::uint64_t, metrics::counter_count> pending_{};
  std::uint64_t published_seq_ = 0;
  std::uint64_t published_fired_ = 0;
  bool batching_ = false;
};

}  // namespace ringent::sim
