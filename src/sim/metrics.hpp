// Simulation observability: named counters and phase timers.
//
// The simulation (schedule/fire, Charlie evaluations) and the TRNG health
// logic are instrumented with named counters. Every count lands in the
// observation scope current on the calling thread (sim/observe.hpp), which
// also owns the phase timers. The design constraints, in order:
//
//  1. Near-zero cost, off or on. With no scope current, or one that does
//     not collect metrics, bump() is one thread-local load and a predicted
//     branch. The ring event loops do not bump at all: each ring counts its
//     schedules, fires and model counts in a sim::EventClock and publishes
//     them with one bump_all() per run call (see sim/event_clock.hpp), so
//     metrics-on costs the same per event as metrics-off
//     (bench/perf_kernel.cpp, BM_IroSimulation vs BM_IroSimulationMetrics).
//  2. No cross-thread sharing when on. A pool task runs under its own child
//     scope and adds its totals into the spawning scope once, when it ends
//     (sim/parallel.hpp), so workers share no counters at all.
//  3. Deterministic totals. Counters never feed back into the simulation,
//     and a scope's totals read between ring calls are exact — the golden
//     tests hand-count event totals against them.
//
// Phase timers accumulate wall and thread-CPU time under string labels
// ("build", "run", "analyze"); ScopedPhase is the RAII probe. Phases bracket
// whole simulations, not events.
//
// A scope opened with metrics on (`--observe metrics` on the front ends,
// or core::ExperimentDescriptor::run_spec) gives every experiment driver
// under it a run manifest built from its own totals (core/export.hpp).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace ringent::sim {
class Scope;
}

namespace ringent::sim::metrics {

/// Everything the simulation substrate counts. Keep counter_names in
/// metrics.cpp in sync.
enum class Counter : std::size_t {
  events_scheduled,        ///< ring event schedules
  events_fired,            ///< ring events fired
  // events_cancelled, heap_*, calendar_*: kept by name for the manifest and
  // cell schema. Rings never drop a pending event, and count every schedule
  // as a push and every fire as a pop, as the retired event kernel did.
  events_cancelled,        ///< always 0: rings never drop a pending event
  heap_pushes,             ///< = events_scheduled
  heap_pops,               ///< = events_fired
  calendar_pushes,         ///< always 0: there is no calendar queue
  calendar_pops,           ///< always 0: there is no calendar queue
  charlie_evaluations,     ///< CharlieModel::fire_time calls from the STR
  token_collision_checks,  ///< STR enabled()/schedule eligibility checks
  pool_tasks,              ///< tasks executed by sim::ThreadPool
  // --- attack-resilience pipeline (noise/fault.hpp, trng/resilient.hpp) ---
  fault_activations,       ///< fault windows applied by noise::FaultInjector
  health_rct_alarms,       ///< repetition-count alarms in ResilientGenerator
  health_apt_alarms,       ///< adaptive-proportion alarms in ResilientGenerator
  health_transitions,      ///< degradation-state transitions (all edges)
  health_bits_muted,       ///< raw bits suppressed while not healthy/suspect
  health_relock_attempts,  ///< ring restarts attempted after an alarm
  health_failovers,        ///< switches from the primary to the backup source
  health_failures,         ///< permanent-failure latches (strike budget spent)
};
inline constexpr std::size_t counter_count =
    static_cast<std::size_t>(Counter::health_failures) + 1;

using Counts = std::array<std::uint64_t, counter_count>;

/// Stable slug for manifests and logs (e.g. "events_fired").
std::string_view counter_name(Counter counter);

namespace detail {
/// The counters of the scope current on this thread, or null when no scope
/// is current or it does not collect metrics. Only sim::Scope sets it.
extern constinit thread_local Counts* counters;
}  // namespace detail

/// True when the current scope collects metrics.
inline bool enabled() { return detail::counters != nullptr; }

/// Count `n` occurrences of `counter` in the current scope. When nothing
/// collects this is one thread-local load.
inline void bump(Counter counter, std::uint64_t n = 1) {
  if (Counts* counts = detail::counters) {
    (*counts)[static_cast<std::size_t>(counter)] += n;
  }
}

/// Add `counts` (indexed by Counter) in one call. The ring event loops
/// publish their per-run-call counts through this.
inline void bump_all(const Counts& counts) {
  if (Counts* into = detail::counters) {
    for (std::size_t i = 0; i < counter_count; ++i) (*into)[i] += counts[i];
  }
}

struct PhaseStat {
  std::string name;
  double wall_ms = 0.0;
  double cpu_ms = 0.0;  ///< thread CPU time summed over all calls
  std::uint64_t calls = 0;
};

/// A copy of a scope's counters and phase timers (phases sorted by name).
struct Snapshot {
  Counts counters{};
  std::vector<PhaseStat> phases;

  std::uint64_t counter(Counter c) const {
    return counters[static_cast<std::size_t>(c)];
  }
};

/// Monotonic wall clock in seconds (steady_clock).
double wall_seconds();
/// CPU time consumed by the calling thread, in seconds.
double thread_cpu_seconds();
/// CPU time consumed by the whole process, in seconds.
double process_cpu_seconds();

/// RAII phase timer: accumulates wall + thread-CPU time under `name` in the
/// current scope between construction and destruction. One thread-local load
/// when the current scope does not collect metrics.
class ScopedPhase {
 public:
  explicit ScopedPhase(std::string_view name);
  ~ScopedPhase();
  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  Scope* scope_ = nullptr;  ///< the scope timed into; null when inactive
  std::string name_;
  double wall_start_ = 0.0;
  double cpu_start_ = 0.0;
};

}  // namespace ringent::sim::metrics
