#include "sim/kernel.hpp"

#include <limits>

namespace ringent::sim {

std::uint64_t Kernel::run_until(Time t_end) {
  RINGENT_REQUIRE(t_end >= now_, "horizon in the past");
  const std::uint64_t fired =
      drain(t_end, std::numeric_limits<std::uint64_t>::max());
  now_ = t_end;
  return fired;
}

std::uint64_t Kernel::run_events(std::uint64_t max_events) {
  return drain(Time::max(), max_events);
}

std::uint64_t Kernel::drain(Time t_end, std::uint64_t max_events) {
  const Batch batch(*this);
  std::uint64_t fired = 0;
  while (fired < max_events && !heap_.empty() && heap_.min_at() <= t_end) {
    const QueuedEvent event = heap_.pop_min();
    telemetry::record(telemetry::Histogram::event_gap_fs,
                      static_cast<std::uint64_t>((event.at - now_).fs()));
    now_ = event.at;
    ++events_fired_;
    processes_[event.node]->fire(*this, event.tag);
    ++fired;
  }
  return fired;
}

void Kernel::reset_time() {
  count(metrics::Counter::events_cancelled, heap_.size());
  heap_.clear();
  now_ = Time::zero();
}

void Kernel::publish() {
  using metrics::Counter;
  const auto add = [this](Counter counter, std::uint64_t n) {
    pending_[static_cast<std::size_t>(counter)] += n;
  };
  // Every schedule is one heap push and every fire one heap pop.
  const std::uint64_t scheduled = next_seq_ - published_seq_;
  const std::uint64_t fired = events_fired_ - published_fired_;
  add(Counter::events_scheduled, scheduled);
  add(Counter::heap_pushes, scheduled);
  add(Counter::events_fired, fired);
  add(Counter::heap_pops, fired);
  published_seq_ = next_seq_;
  published_fired_ = events_fired_;
  metrics::bump_all(pending_);
  pending_.fill(0);
}

}  // namespace ringent::sim
