// The clock and event counts of a ring model's own event loop.
//
// A ring model schedules and fires its own events: an IRO keeps its one
// circulating event as a plain (time, stage) pair, an STR keeps a FlatHeap4
// (sim/event_queue.hpp) of enabled stages. What both loops share lives here:
// the simulated clock, the fire and schedule totals, the per-event telemetry
// probes (sim/telemetry.hpp) and the counts not yet published into the
// observation scope current on the calling thread (sim/metrics.hpp).
//
// Nothing is published per event. The loop counts into plain members and a
// Publish scope adds everything pending with one metrics::bump_all() when it
// closes, on every way out (a throwing noise source included). Every run
// call and every start() is one such scope, so a scope's totals read between
// ring calls are exact. The current scope is looked up at publish time only:
// counts pending while no scope collects metrics are dropped, not deferred.
// The per-event histogram probes go to the histograms of the scope current
// when the Publish scope opened, held in a member so that an event costs no
// thread-local lookup.
//
// Counter meanings are those of the event-kernel era they replace, so
// manifests and pins read the same numbers: every schedule counts one
// events_scheduled and one heap_pushes, every fire one events_fired and one
// heap_pops.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "common/time.hpp"
#include "sim/metrics.hpp"
#include "sim/telemetry.hpp"

namespace ringent::sim {

class EventClock {
 public:
  /// Current simulation time: the last fired event, or the last run
  /// horizon if that is later.
  Time now() const { return now_; }

  /// Events fired and scheduled since construction. The schedule total is
  /// also the next schedule's sequence number (ties fire in schedule order).
  std::uint64_t events_fired() const { return fired_; }
  std::uint64_t events_scheduled() const { return scheduled_; }

  /// Fire the event due at `at` (no earlier than now()).
  void fire(Time at) {
    record(telemetry::Histogram::event_gap_fs,
           static_cast<std::uint64_t>((at - now_).fs()));
    now_ = at;
    ++fired_;
  }

  /// Count one schedule; `pending` is the pending population after it.
  void scheduled(std::size_t pending) {
    ++scheduled_;
    record(telemetry::Histogram::queue_depth, pending);
  }

  /// Record a per-event observation (the STR's Charlie delays, say) into
  /// the histograms of the open Publish scope's observation scope.
  void record(telemetry::Histogram histogram, std::uint64_t value) {
    telemetry::record(histograms_, histogram, value);
  }

  /// Move the clock to a run horizon no earlier than now().
  void park(Time horizon) { now_ = horizon; }

  /// Count `n` occurrences of a model-specific counter (the STR's Charlie
  /// evaluations, say); published with the next publish().
  void count(metrics::Counter counter, std::uint64_t n = 1) {
    pending_[static_cast<std::size_t>(counter)] += n;
  }

  /// Add everything counted since the last publish into the current scope
  /// (nothing when it does not collect metrics) and clear it.
  void publish() {
    using metrics::Counter;
    const std::uint64_t scheduled = scheduled_ - published_scheduled_;
    const std::uint64_t fired = fired_ - published_fired_;
    count(Counter::events_scheduled, scheduled);
    count(Counter::heap_pushes, scheduled);
    count(Counter::events_fired, fired);
    count(Counter::heap_pops, fired);
    published_scheduled_ = scheduled_;
    published_fired_ = fired_;
    metrics::bump_all(pending_);
    pending_.fill(0);
  }

  /// Points the per-event probes at the current scope's histograms while
  /// open, and publishes when it goes out of scope, however it is left.
  class Publish {
   public:
    explicit Publish(EventClock& clock)
        : clock_(clock), outer_(clock.histograms_) {
      clock_.histograms_ = telemetry::detail::block;
    }
    ~Publish() {
      clock_.publish();
      clock_.histograms_ = outer_;
    }
    Publish(const Publish&) = delete;
    Publish& operator=(const Publish&) = delete;

   private:
    EventClock& clock_;
    telemetry::detail::Block* outer_;
  };

 private:
  Time now_ = Time::zero();
  std::uint64_t fired_ = 0;
  std::uint64_t scheduled_ = 0;
  std::uint64_t published_fired_ = 0;
  std::uint64_t published_scheduled_ = 0;
  metrics::Counts pending_{};
  telemetry::detail::Block* histograms_ = nullptr;  ///< null = not recording
};

}  // namespace ringent::sim
