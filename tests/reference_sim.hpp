// Test-local reference simulator: a generic discrete-event kernel and the
// two ring models written against it, with every delay evaluated the plain
// way on every event.
//
// The library's rings run their own event loops (ring/iro.hpp,
// ring/str.hpp): an IRO advances its one circulating event directly, an STR
// pops a ring-local heap, and both read their per-stage delay parameters
// from a table rebuilt when the supply changes. This file keeps the
// semantics those loops replaced, so tests/test_ring_oracle.cpp can compare
// them event for event:
//
//  * Kernel — a FlatHeap4 of (time, sequence) keys and one explicit pop and
//    fire loop: events due at the same time fire in schedule order. Events
//    address a Process by NodeId plus a 32-bit tag. It counts schedules,
//    fires and process counts itself and publishes them into the calling
//    thread's metrics block once per run call (or at once outside a run), and
//    records the event-gap and queue-depth histograms.
//  * Iro / Str — Processes whose fire() draws each hop or firing from the
//    Supply's operating point at that instant (no table, no scale cache),
//    the configured noise sources' sample_ps() (no block sampler) and the
//    modulation hook whenever one is configured.
//
// tests/test_sim.cpp checks the kernel's own contract.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/require.hpp"
#include "common/time.hpp"
#include "noise/jitter.hpp"
#include "ring/charlie.hpp"
#include "ring/iro.hpp"
#include "ring/str.hpp"
#include "ring/str_logic.hpp"
#include "sim/event_queue.hpp"
#include "sim/metrics.hpp"
#include "sim/probe.hpp"
#include "sim/telemetry.hpp"

namespace ringent::reference {

using NodeId = std::uint32_t;
inline constexpr NodeId invalid_node = ~NodeId{0};

class Kernel;

/// Anything that can receive scheduled events.
class Process {
 public:
  virtual ~Process() = default;
  virtual void fire(Kernel& kernel, std::uint32_t tag) = 0;
};

class Kernel {
 public:
  Kernel() = default;
  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  NodeId add_process(Process* process) {
    RINGENT_REQUIRE(process != nullptr, "null process");
    processes_.push_back(process);
    return static_cast<NodeId>(processes_.size() - 1);
  }

  void schedule_in(Time delay, NodeId node, std::uint32_t tag = 0) {
    RINGENT_REQUIRE(!delay.is_negative(), "negative delay");
    RINGENT_REQUIRE(delay <= Time::max() - now_,
                    "delay overflows the simulation clock");
    schedule_at(now_ + delay, node, tag);
  }

  void schedule_at(Time at, NodeId node, std::uint32_t tag = 0) {
    RINGENT_REQUIRE(node < processes_.size(), "unknown node id");
    RINGENT_REQUIRE(at >= now_, "cannot schedule in the past");
    heap_.push(sim::QueuedEvent{at, next_seq_++, tag});
    nodes_.push_back(node);
    sim::telemetry::record(sim::telemetry::Histogram::queue_depth,
                           heap_.size());
    if (!in_run_) publish();
  }

  void count(sim::metrics::Counter counter, std::uint64_t n = 1) {
    pending_[static_cast<std::size_t>(counter)] += n;
    if (!in_run_) publish();
  }

  Time now() const { return now_; }
  std::uint64_t events_fired() const { return events_fired_; }
  bool idle() const { return heap_.empty(); }

  /// Fire events due at or before `t_end`, then park the clock there.
  std::uint64_t run_until(Time t_end) {
    RINGENT_REQUIRE(t_end >= now_, "horizon in the past");
    const std::uint64_t fired =
        drain(t_end, std::numeric_limits<std::uint64_t>::max());
    now_ = t_end;
    return fired;
  }

  std::uint64_t run_events(std::uint64_t max_events) {
    return drain(Time::max(), max_events);
  }

  /// Drop all pending events and reset the clock to zero.
  void reset_time() {
    count(sim::metrics::Counter::events_cancelled, heap_.size());
    heap_.clear();
    now_ = Time::zero();
  }

  /// Open while a process schedules many events outside a run (Str::start):
  /// one publish when it closes.
  class Batch {
   public:
    explicit Batch(Kernel& kernel) : kernel_(kernel) { kernel_.in_run_ = true; }
    ~Batch() {
      kernel_.in_run_ = false;
      kernel_.publish();
    }
    Batch(const Batch&) = delete;
    Batch& operator=(const Batch&) = delete;

   private:
    Kernel& kernel_;
  };

 private:
  std::uint64_t drain(Time t_end, std::uint64_t max_events) {
    const Batch batch(*this);
    std::uint64_t fired = 0;
    while (fired < max_events && !heap_.empty() && heap_.min_at() <= t_end) {
      const sim::QueuedEvent event = heap_.pop_min();
      sim::telemetry::record(sim::telemetry::Histogram::event_gap_fs,
                             static_cast<std::uint64_t>((event.at - now_).fs()));
      now_ = event.at;
      ++events_fired_;
      processes_[nodes_[event.seq]]->fire(*this, event.stage);
      ++fired;
    }
    return fired;
  }

  void publish() {
    using sim::metrics::Counter;
    const auto add = [this](Counter counter, std::uint64_t n) {
      pending_[static_cast<std::size_t>(counter)] += n;
    };
    const std::uint64_t scheduled = next_seq_ - published_seq_;
    const std::uint64_t fired = events_fired_ - published_fired_;
    add(Counter::events_scheduled, scheduled);
    add(Counter::heap_pushes, scheduled);
    add(Counter::events_fired, fired);
    add(Counter::heap_pops, fired);
    published_seq_ = next_seq_;
    published_fired_ = events_fired_;
    sim::metrics::bump_all(pending_);
    pending_.fill(0);
  }

  std::vector<Process*> processes_;
  sim::FlatHeap4 heap_;   ///< the payload carries the tag
  std::vector<NodeId> nodes_;  ///< node of every event, by sequence number
  Time now_ = Time::zero();
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_fired_ = 0;
  std::array<std::uint64_t, sim::metrics::counter_count> pending_{};
  std::uint64_t published_seq_ = 0;
  std::uint64_t published_fired_ = 0;
  bool in_run_ = false;
};

/// Unit scales without a supply; the three voltage laws at the supply's
/// operating point at `now` otherwise.
struct Scales {
  double lut = 1.0;
  double routing = 1.0;
  double charlie = 1.0;
};

inline Scales scales_at(const fpga::Supply* supply,
                        const fpga::VoltageLaws* laws, Time now) {
  if (supply == nullptr) return {};
  const fpga::OperatingPoint op = supply->operating_point_at(now);
  return {laws->lut.scale(op), laws->routing.scale(op),
          laws->charlie.scale(op)};
}

/// The inverter ring as a kernel Process: the event with tag k is stage
/// k's output changing; the last stage's change toggles the ring output.
class Iro final : public Process {
 public:
  Iro(Kernel& kernel, const ring::IroConfig& config,
      std::vector<std::unique_ptr<noise::NoiseSource>> noise)
      : kernel_(kernel), config_(config), noise_(std::move(noise)) {
    node_ = kernel_.add_process(this);
  }

  void start() { kernel_.schedule_in(hop_delay(0, kernel_.now()), node_, 0); }

  void fire(Kernel& kernel, std::uint32_t tag) override {
    const Time now = kernel.now();
    std::uint32_t next = tag + 1;
    if (next == config_.stages) {
      value_ = !value_;
      output.record(now, value_);
      next = 0;
    }
    kernel.schedule_in(hop_delay(next, now), node_, next);
  }

  sim::SignalTrace output{"iro_out"};

 private:
  Time hop_delay(std::size_t stage, Time now) {
    const double factor =
        config_.stage_factors.empty() ? 1.0 : config_.stage_factors[stage];
    const double routing_ps = config_.routing_per_stage.empty()
                                  ? config_.routing_per_hop.ps()
                                  : config_.routing_per_stage[stage].ps();
    const Scales s = scales_at(config_.supply, config_.laws, now);
    double delay_ps = config_.lut_delay.ps() * factor * s.lut +
                      routing_ps * factor * s.routing;
    if (!noise_.empty()) {
      double noise_scale = 1.0;
      if (config_.jitter_delay_exponent != 0.0) {
        noise_scale = std::pow(s.lut, config_.jitter_delay_exponent);
      }
      delay_ps += noise_[stage]->sample_ps() * noise_scale;
    }
    if (config_.modulation != nullptr) {
      delay_ps += config_.modulation->offset_ps(now, stage);
    }
    return Time::from_ps(std::max(delay_ps, 1.0));
  }

  Kernel& kernel_;
  ring::IroConfig config_;
  std::vector<std::unique_ptr<noise::NoiseSource>> noise_;
  NodeId node_ = invalid_node;
  bool value_ = false;
};

/// The self-timed ring as a kernel Process: the event with tag i is stage
/// i's Muller gate firing; a firing may enable its two neighbours.
class Str final : public Process {
 public:
  Str(Kernel& kernel, const ring::StrConfig& config, ring::RingState initial,
      std::vector<std::unique_ptr<noise::NoiseSource>> noise)
      : kernel_(kernel),
        config_(config),
        model_(config.charlie, config.drafting),
        state_(std::move(initial)),
        noise_(std::move(noise)),
        last_change_(config.stages, Time::zero()),
        scheduled_(config.stages, false) {
    node_ = kernel_.add_process(this);
    if (config_.trace_all_stages) {
      for (std::size_t i = 0; i < config_.stages; ++i) {
        traces.emplace_back("C" + std::to_string(i));
      }
    }
  }

  void start() {
    const Kernel::Batch batch(kernel_);
    for (std::size_t i = 0; i < config_.stages; ++i) {
      try_schedule(i, kernel_.now());
    }
  }

  void fire(Kernel& kernel, std::uint32_t tag) override {
    const std::size_t i = tag;
    const Time now = kernel.now();
    scheduled_[i] = false;
    state_[i] = state_[prev(i)];
    last_change_[i] = now;
    if (config_.trace_all_stages) {
      traces[i].record(now, state_[i]);
    } else if (i == config_.observe_stage) {
      output.record(now, state_[i]);
    }
    try_schedule(next(i), now);
    try_schedule(prev(i), now);
  }

  const ring::RingState& state() const { return state_; }

  sim::SignalTrace output{"str_out"};
  std::vector<sim::SignalTrace> traces;

 private:
  std::size_t prev(std::size_t i) const {
    return i == 0 ? config_.stages - 1 : i - 1;
  }
  std::size_t next(std::size_t i) const {
    return i + 1 == config_.stages ? 0 : i + 1;
  }

  void try_schedule(std::size_t i, Time now) {
    kernel_.count(sim::metrics::Counter::token_collision_checks);
    if (scheduled_[i]) return;
    if (!(state_[i] != state_[prev(i)] && state_[next(i)] == state_[i])) {
      return;
    }
    const double factor =
        config_.stage_factors.empty() ? 1.0 : config_.stage_factors[i];
    const double routing_ps = config_.routing_per_stage.empty()
                                  ? config_.routing_per_hop.ps()
                                  : config_.routing_per_stage[i].ps();
    const Scales s = scales_at(config_.supply, config_.laws, now);
    const double static_scale = factor * s.lut;
    const double charlie_scale = factor * s.charlie;
    double extra_ps = routing_ps * (factor * s.routing);
    if (!noise_.empty()) {
      double noise_scale = 1.0;
      if (config_.jitter_delay_exponent != 0.0) {
        noise_scale =
            std::pow(static_scale / factor, config_.jitter_delay_exponent);
      }
      extra_ps += noise_[i]->sample_ps() * noise_scale;
    }
    if (config_.modulation != nullptr) {
      extra_ps += config_.modulation->offset_ps(now, i);
    }
    kernel_.count(sim::metrics::Counter::charlie_evaluations);
    const Time fire_at =
        model_.fire_time(last_change_[prev(i)], last_change_[next(i)],
                         last_change_[i], extra_ps, static_scale,
                         charlie_scale);
    sim::telemetry::record(
        sim::telemetry::Histogram::charlie_delay_fs,
        fire_at > now ? static_cast<std::uint64_t>((fire_at - now).fs()) : 0);
    kernel_.schedule_at(fire_at, node_, static_cast<std::uint32_t>(i));
    scheduled_[i] = true;
  }

  Kernel& kernel_;
  ring::StrConfig config_;
  ring::CharlieModel model_;
  ring::RingState state_;
  std::vector<std::unique_ptr<noise::NoiseSource>> noise_;
  std::vector<Time> last_change_;
  std::vector<bool> scheduled_;
  NodeId node_ = invalid_node;
};

}  // namespace ringent::reference
