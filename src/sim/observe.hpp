// One observation scope per run.
//
// A Scope owns everything a run observes about itself: counters and phase
// timers (sim/metrics.hpp), histograms (sim/telemetry.hpp), the stream
// statistics drivers publish (trng/telemetry.hpp) and access to a Chrome
// trace file (sim/trace.hpp). Nothing is process-global:
//
//  * A thread-local pointer names the scope current on each thread. Probes
//    (metrics::bump, telemetry::record, ScopedPhase, trace::Span,
//    trng::telemetry::publish) write into it; with no scope current, or one
//    that does not collect what a probe records, a probe is one
//    thread-local load and a branch.
//  * Scopes nest. A scope collects what the scope it was opened under
//    collects unless told otherwise, and when it closes it adds its totals
//    into that parent. A front end's whole-run scope therefore ends up with
//    the sum of every driver run under it.
//  * Work on other threads runs under child scopes of the scope that
//    started it: ThreadPool::for_each_index gives each task one, and
//    service::GeneratorPool gives each pump thread one. A child accumulates
//    on its own thread and adds into its parent once, when it closes, so
//    threads share no counters and the totals are exact at any --jobs.
//  * Histogram storage (about 150 KB) is allocated only by scopes that
//    collect histograms.
//
// What a scope collects comes from the `--observe` value every front end
// takes, parsed by parse_observe(): a comma-separated list of `metrics`,
// `trace=FILE` and `telemetry=FILE` (a FILE ending in ".prom" selects the
// Prometheus text format). Drivers turn their scope's totals into a run
// manifest and a telemetry snapshot (core/experiments.cpp DriverScope,
// core/export.hpp).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "sim/metrics.hpp"
#include "sim/telemetry.hpp"
#include "trng/telemetry.hpp"

namespace ringent::sim {

namespace trace {
class File;
}

/// Where telemetry snapshots go ("ringent.telemetry/1" JSONL, or the
/// Prometheus text format when the path ends in ".prom"). A scope shares it
/// with every scope under it; core::append_telemetry_snapshot writes it.
struct TelemetrySink {
  explicit TelemetrySink(std::string sink_path) : path(std::move(sink_path)) {}
  const std::string path;
  std::mutex mutex;            ///< serializes appends
  std::uint64_t sequence = 0;  ///< the next snapshot's sequence number
};

/// The `--observe` value.
struct ObserveSpec {
  bool metrics = false;
  std::string trace;      ///< Chrome-trace file, "" = none
  std::string telemetry;  ///< telemetry sink, "" = none

  bool operator==(const ObserveSpec&) const = default;
};

/// Parse an `--observe` value: comma-separated items `metrics`,
/// `trace=FILE` and `telemetry=FILE`. Never throws. An empty item, an
/// unknown key, a missing or empty FILE, a value given to `metrics` and a
/// key given twice are each described in `errors` (when non-null); the item
/// is ignored (a repeated key keeps its last value).
ObserveSpec parse_observe(std::string_view text,
                          std::vector<std::string>* errors = nullptr);

/// Canonical text of `spec`, "" when it observes nothing;
/// parse_observe(to_string(spec)) == spec.
std::string to_string(const ObserveSpec& spec);

/// What a scope collects.
struct Collect {
  bool metrics = false;     ///< counters and phase timers
  bool histograms = false;  ///< histograms and published stream stats
  std::shared_ptr<trace::File> trace{};        ///< span sink, or null
  std::shared_ptr<TelemetrySink> telemetry{};  ///< snapshot sink, or null

  /// Opens the files `spec` names (a telemetry sink implies histograms).
  /// Throws ringent::Error when the trace file cannot be opened.
  static Collect from(const ObserveSpec& spec);
};

class Scope;

namespace detail {
/// The scope current on this thread (null = none). Only Scope sets it.
extern constinit thread_local Scope* current;
}  // namespace detail

class Scope {
 public:
  /// Open a scope collecting `what` (a telemetry sink implies histograms)
  /// and make it current on this thread. `parent` receives this scope's
  /// totals when it closes; it may be current on another thread, and must
  /// outlive this scope.
  Scope(Collect what, Scope* parent);
  /// A child of the scope current on this thread, collecting what it
  /// collects (nothing when no scope is current).
  Scope();
  /// Add this scope's totals into its parent, and make the scope that was
  /// current before this one current again.
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  static Scope* current() { return detail::current; }

  const Collect& collects() const { return collect_; }

  /// This scope's totals so far, including what closed children added.
  /// Read on the thread that opened the scope. Phases are sorted by name,
  /// streams by label.
  metrics::Snapshot metrics() const;
  telemetry::Snapshot histograms() const;
  std::vector<trng::telemetry::StreamStats> streams() const;

  /// Probe back ends; call on the thread that opened the scope.
  void add_phase(std::string_view name, double wall_s, double cpu_s);
  void publish(trng::telemetry::StreamStats stats);

 private:
  struct Totals {
    metrics::Counts counters{};
    std::vector<metrics::PhaseStat> phases;
    std::unique_ptr<telemetry::detail::Block> histograms;
    std::vector<trng::telemetry::StreamStats> streams;
  };

  /// Add `from` into `into`, keeping only what this scope collects.
  void add(Totals& into, const Totals& from) const;
  static void make_current(Scope* scope);

  Collect collect_;
  Scope* parent_ = nullptr;
  Scope* previous_ = nullptr;  ///< current on this thread before this scope
  Totals own_;                 ///< written by the opening thread only
  mutable std::mutex mutex_;   ///< guards merged_
  Totals merged_;              ///< what closed children added
};

}  // namespace ringent::sim
