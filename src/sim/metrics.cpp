#include "sim/metrics.hpp"

#include <chrono>
#include <cstdlib>
#include <ctime>
#include <memory>
#include <mutex>
#include <string_view>

#include "common/require.hpp"

namespace ringent::sim::metrics {

namespace detail {

std::atomic<bool> enabled_flag{false};

namespace {

struct PhaseAccumulator {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t calls = 0;
};

/// Registry of every thread's counter block plus the phase map. Blocks are
/// heap-owned by the registry (not the thread) so a snapshot taken after a
/// pool shut down still sees the workers' counts.
struct Registry {
  std::mutex mutex;
  std::vector<std::unique_ptr<CounterBlock>> blocks;
  std::vector<std::pair<std::string, PhaseAccumulator>> phases;

  PhaseAccumulator& phase(std::string_view name) {
    for (auto& [existing, acc] : phases) {
      if (existing == name) return acc;
    }
    phases.emplace_back(std::string(name), PhaseAccumulator{});
    return phases.back().second;
  }
};

Registry& registry() {
  static Registry* instance = new Registry();  // leaked: outlives all threads
  return *instance;
}

}  // namespace

CounterBlock& local_block() {
  thread_local CounterBlock* block = [] {
    auto owned = std::make_unique<CounterBlock>();
    CounterBlock* raw = owned.get();
    Registry& reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    reg.blocks.push_back(std::move(owned));
    return raw;
  }();
  return *block;
}

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

void set_enabled(bool on) {
  detail::enabled_flag.store(on, std::memory_order_relaxed);
}

bool init_from_env() {
  const char* value = std::getenv("RINGENT_METRICS");
  if (value != nullptr && value[0] != '\0' &&
      !(value[0] == '0' && value[1] == '\0')) {
    set_enabled(true);
  }
  return enabled();
}

void bump_all(const std::array<std::uint64_t, counter_count>& counts) {
  if (!enabled()) return;
  auto& values = detail::local_block().values;
  for (std::size_t i = 0; i < counter_count; ++i) {
    if (counts[i] != 0) {
      values[i].fetch_add(counts[i], std::memory_order_relaxed);
    }
  }
}

Snapshot snapshot() {
  auto& reg = detail::registry();
  Snapshot out;
  std::lock_guard<std::mutex> lock(reg.mutex);
  for (const auto& block : reg.blocks) {
    for (std::size_t i = 0; i < counter_count; ++i) {
      out.counters[i] += block->values[i].load(std::memory_order_relaxed);
    }
  }
  out.phases.reserve(reg.phases.size());
  for (const auto& [name, acc] : reg.phases) {
    PhaseStat stat;
    stat.name = name;
    stat.wall_ms = acc.wall_s * 1e3;
    stat.cpu_ms = acc.cpu_s * 1e3;
    stat.calls = acc.calls;
    out.phases.push_back(std::move(stat));
  }
  return out;
}

void reset() {
  auto& reg = detail::registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  for (auto& block : reg.blocks) {
    for (auto& value : block->values) {
      value.store(0, std::memory_order_relaxed);
    }
  }
  reg.phases.clear();
}

Snapshot Snapshot::delta_since(const Snapshot& earlier) const {
  Snapshot out;
  for (std::size_t i = 0; i < counter_count; ++i) {
    out.counters[i] = counters[i] - earlier.counters[i];
  }
  for (const auto& stat : phases) {
    PhaseStat delta = stat;
    for (const auto& before : earlier.phases) {
      if (before.name != stat.name) continue;
      delta.wall_ms -= before.wall_ms;
      delta.cpu_ms -= before.cpu_ms;
      delta.calls -= before.calls;
      break;
    }
    if (delta.calls > 0) out.phases.push_back(std::move(delta));
  }
  return out;
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
  active_ = true;
  name_ = name;
  wall_start_ = wall_seconds();
  cpu_start_ = thread_cpu_seconds();
}

ScopedPhase::~ScopedPhase() {
  if (!active_) return;
  const double wall = wall_seconds() - wall_start_;
  const double cpu = thread_cpu_seconds() - cpu_start_;
  auto& reg = detail::registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  auto& acc = reg.phase(name_);
  acc.wall_s += wall;
  acc.cpu_s += cpu;
  ++acc.calls;
}

}  // namespace ringent::sim::metrics
