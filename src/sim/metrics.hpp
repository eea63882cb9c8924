// Kernel observability: process-wide simulation counters and phase timers.
//
// The simulation (schedule/fire, queue push/pop, Charlie evaluations) and
// the TRNG health logic are instrumented with named counters. The design
// constraints, in order:
//
//  1. Near-zero cost, off or on. Collection defaults to disabled; a bump()
//     is one relaxed atomic load and a predictable branch. The event loop
//     does not bump at all: sim::Kernel counts schedules, fires and its
//     processes' counts itself and publishes them with one bump_all() per
//     run call (see sim/kernel.hpp), so metrics-on costs the same per event
//     as metrics-off (bench/perf_kernel.cpp, BM_KernelEventThroughput
//     vs BM_KernelEventThroughputMetrics).
//  2. No cross-thread contention when on. Sweeps shard whole simulations
//     across pool workers (sim/parallel.hpp); a shared counter array would
//     serialize them on cache-line ping-pong. Each thread therefore adds to
//     its own relaxed-atomic block; snapshot() sums the blocks.
//  3. Deterministic totals. Counters never feed back into the simulation,
//     and a quiescent snapshot (no batch in flight, no kernel call running
//     on the snapshotting thread) is exact — the golden tests hand-count
//     event totals against it.
//
// Phase timers accumulate wall and thread-CPU time under string labels
// ("build", "run", "analyze"); ScopedPhase is the RAII probe. Timer state is
// mutex-guarded — phases bracket whole simulations, not events.
//
// Enable with metrics::set_enabled(true), the RINGENT_METRICS environment
// variable (init_from_env), or the --metrics flag of the sweep benches
// (bench/cli.hpp). Experiment drivers emit a JSON run manifest with a
// counter/phase delta when metrics are on (core/export.hpp).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace ringent::sim::metrics {

/// Everything the simulation substrate counts. Keep counter_names in
/// metrics.cpp in sync.
enum class Counter : std::size_t {
  events_scheduled,        ///< Kernel::schedule_at calls
  events_fired,            ///< events delivered to a Process
  events_cancelled,        ///< pending events dropped by Kernel::reset_time
  heap_pushes,             ///< kernel schedules routed to the flat heap
  heap_pops,               ///< kernel fires popped from the flat heap
  // calendar_*: kept by name for the manifest and cell schema; read 0.
  calendar_pushes,         ///< always 0: the kernel has no calendar queue
  calendar_pops,           ///< always 0: the kernel has no calendar queue
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

/// Stable slug for manifests and logs (e.g. "events_fired").
std::string_view counter_name(Counter counter);

namespace detail {

struct CounterBlock {
  std::array<std::atomic<std::uint64_t>, counter_count> values{};
};

extern std::atomic<bool> enabled_flag;

/// The calling thread's counter block (registered on first use; blocks
/// outlive their threads so late snapshots stay complete).
CounterBlock& local_block();

}  // namespace detail

/// Global collection switch; off by default.
inline bool enabled() {
  return detail::enabled_flag.load(std::memory_order_relaxed);
}
void set_enabled(bool on);

/// Enable when the RINGENT_METRICS environment variable is set to anything
/// but "" or "0". Returns the resulting enabled state.
bool init_from_env();

/// Count `n` occurrences of `counter`. The single-branch fast path: when
/// collection is off this is one relaxed load.
inline void bump(Counter counter, std::uint64_t n = 1) {
  if (!enabled()) return;
  detail::local_block().values[static_cast<std::size_t>(counter)].fetch_add(
      n, std::memory_order_relaxed);
}

/// Add `counts` (indexed by Counter) in one call: a single counter-block
/// lookup and one relaxed add per nonzero entry. The kernel publishes its
/// per-run-call counts through this.
void bump_all(const std::array<std::uint64_t, counter_count>& counts);

struct PhaseStat {
  std::string name;
  double wall_ms = 0.0;
  double cpu_ms = 0.0;  ///< thread CPU time summed over all calls
  std::uint64_t calls = 0;
};

/// A consistent copy of all counters and phase timers. Snapshots taken while
/// no simulation is in flight are exact.
struct Snapshot {
  std::array<std::uint64_t, counter_count> counters{};
  std::vector<PhaseStat> phases;

  std::uint64_t counter(Counter c) const {
    return counters[static_cast<std::size_t>(c)];
  }
  /// Counter and phase differences since `earlier` (per-experiment deltas
  /// for manifests). Phases present only here are kept as-is.
  Snapshot delta_since(const Snapshot& earlier) const;
};

Snapshot snapshot();

/// Zero every counter and drop all phase timers. Call only while no
/// simulation is running (tests, bench setup).
void reset();

/// Monotonic wall clock in seconds (steady_clock).
double wall_seconds();
/// CPU time consumed by the calling thread, in seconds.
double thread_cpu_seconds();
/// CPU time consumed by the whole process, in seconds.
double process_cpu_seconds();

/// RAII phase timer: accumulates wall + thread-CPU time under `name` between
/// construction and destruction. Near-free when metrics are disabled.
class ScopedPhase {
 public:
  explicit ScopedPhase(std::string_view name);
  ~ScopedPhase();
  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  bool active_ = false;
  std::string name_;
  double wall_start_ = 0.0;
  double cpu_start_ = 0.0;
};

}  // namespace ringent::sim::metrics
