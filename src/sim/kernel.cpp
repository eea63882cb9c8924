#include "sim/kernel.hpp"

namespace ringent::sim {

std::uint64_t Kernel::run_until(Time t_end) {
  const auto fire = [this](const QueuedEvent& event) {
    processes_[event.node]->fire(*this, event.tag);
  };
  if (kind_ == QueueKind::binary_heap) {
    return drain_until(heap_, t_end, fire);
  }
  return drain_until(calendar_, t_end, fire);
}

std::uint64_t Kernel::run_events(std::uint64_t max_events) {
  const auto fire = [this](const QueuedEvent& event) {
    processes_[event.node]->fire(*this, event.tag);
  };
  if (kind_ == QueueKind::binary_heap) {
    return drain_events(heap_, max_events, fire);
  }
  return drain_events(calendar_, max_events, fire);
}

void Kernel::reset_time() {
  if (kind_ == QueueKind::binary_heap) {
    count(metrics::Counter::events_cancelled, heap_.size());
    heap_.clear();
  } else {
    count(metrics::Counter::events_cancelled, calendar_.size());
    calendar_.clear();
  }
  now_ = Time::zero();
}

void Kernel::publish() {
  using metrics::Counter;
  const auto add = [this](Counter counter, std::uint64_t n) {
    pending_[static_cast<std::size_t>(counter)] += n;
  };
  // Every schedule is one push and every fire one pop on the kernel's
  // queue route.
  const std::uint64_t scheduled = next_seq_ - published_seq_;
  const std::uint64_t fired = events_fired_ - published_fired_;
  const bool heap = kind_ == QueueKind::binary_heap;
  add(Counter::events_scheduled, scheduled);
  add(heap ? Counter::heap_pushes : Counter::calendar_pushes, scheduled);
  add(Counter::events_fired, fired);
  add(heap ? Counter::heap_pops : Counter::calendar_pops, fired);
  published_seq_ = next_seq_;
  published_fired_ = events_fired_;
  metrics::bump_all(pending_);
  pending_.fill(0);
}

}  // namespace ringent::sim
