#include "sim/metrics.hpp"

#include <chrono>
#include <ctime>

#include "common/require.hpp"
#include "sim/observe.hpp"

namespace ringent::sim::metrics {

namespace detail {

constinit thread_local Counts* counters = nullptr;

}  // namespace detail

std::string_view counter_name(Counter counter) {
  static constexpr std::string_view names[counter_count] = {
      "events_scheduled",    "events_fired",
      "events_cancelled",    "heap_pushes",
      "heap_pops",           "calendar_pushes",
      "calendar_pops",       "charlie_evaluations",
      "token_collision_checks", "pool_tasks",
      "fault_activations",   "health_rct_alarms",
      "health_apt_alarms",   "health_transitions",
      "health_bits_muted",   "health_relock_attempts",
      "health_failovers",    "health_failures",
  };
  const auto index = static_cast<std::size_t>(counter);
  RINGENT_REQUIRE(index < counter_count, "unknown counter");
  return names[index];
}

double wall_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {
double clock_seconds(clockid_t id) {
  timespec ts{};
  if (clock_gettime(id, &ts) != 0) return 0.0;
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}
}  // namespace

double thread_cpu_seconds() { return clock_seconds(CLOCK_THREAD_CPUTIME_ID); }

double process_cpu_seconds() { return clock_seconds(CLOCK_PROCESS_CPUTIME_ID); }

ScopedPhase::ScopedPhase(std::string_view name) {
  if (!enabled()) return;
  scope_ = Scope::current();
  name_ = name;
  wall_start_ = wall_seconds();
  cpu_start_ = thread_cpu_seconds();
}

ScopedPhase::~ScopedPhase() {
  if (scope_ == nullptr) return;
  scope_->add_phase(name_, wall_seconds() - wall_start_,
                    thread_cpu_seconds() - cpu_start_);
}

}  // namespace ringent::sim::metrics
