// Shared command-line handling for the sweep bench binaries.
//
// Every sweep bench accepts the same knobs:
//
//   --jobs N | --jobs=N      worker threads (0/absent = RINGENT_JOBS or cores)
//   --observe SPEC | --observe=SPEC
//                            what the run observes: a comma-separated list of
//                            `metrics` (counters, phase timers and one run
//                            manifest per driver, written to RINGENT_OUT_DIR
//                            when it is set), `trace=FILE` (a Chrome-trace
//                            JSON of driver/axis/pool spans) and
//                            `telemetry=FILE` ("ringent.telemetry/1"
//                            snapshots — JSONL per driver run plus one
//                            "<bench>-total" line at exit; a .prom suffix
//                            selects the Prometheus text format instead).
//                            The grammar is sim::parse_observe's, shared with
//                            ringent_cli.
//   --list                   print the experiment registry (the same
//                            listing `ringent_cli --list` gives) and exit 0
//
// Usage pattern (see any bench/fig*.cpp):
//
//   const bench::CliOptions cli = bench::parse_cli(argc, argv);
//   const bench::Session session(cli, "fig08_voltage_sweep");
//   options.jobs = cli.jobs;
//
// Session is RAII: it opens the observation scope the whole binary runs
// under (sim/observe.hpp) with a whole-binary "bench" trace span, and on
// destruction closes the span, appends the "<bench>-total" telemetry line —
// the sum of every driver run under the scope — and flushes the trace file.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <optional>
#include <string>
#include <vector>

#include "core/export.hpp"
#include "core/registry.hpp"
#include "sim/observe.hpp"
#include "sim/parallel.hpp"
#include "sim/trace.hpp"

namespace ringent::bench {

struct CliOptions {
  std::size_t jobs = 0;      ///< 0 = resolve via RINGENT_JOBS / hardware
  sim::ObserveSpec observe;  ///< --observe value; empty = observe nothing
};

/// Print the experiment registry — one line per registered driver — to
/// `out`. This is the bench-side mirror of `ringent_cli --list`.
inline void print_experiment_list(std::FILE* out) {
  for (const auto& entry : core::experiment_registry()) {
    std::fprintf(out, "%-22s %s  [%s]\n", entry.name.c_str(),
                 entry.summary.c_str(), entry.source.c_str());
  }
}

/// Scan argv for the shared flags. Bare (non-flag) stray arguments are
/// ignored — the benches historically tolerate them — but anything that
/// *looks* like a flag and isn't recognized, and a recognized flag with an
/// unusable value — `--jobs banana`, `--jobs=99999999999999999999`, a
/// trailing `--observe` with nothing after it, an unknown `--observe` item
/// — is reported on `diagnostics` (stderr by default, nullptr = silent)
/// rather than silently dropped, and the option (or the item) falls back to
/// its default. `--list` prints the experiment registry to stdout and exits
/// 0, like `--help` in a conventional CLI.
inline CliOptions parse_cli(int argc, char** argv,
                            std::FILE* diagnostics = stderr) {
  CliOptions options;
  const auto warn = [diagnostics](const char* message, const char* detail) {
    if (diagnostics == nullptr) return;
    if (detail != nullptr) {
      std::fprintf(diagnostics, "# cli: %s '%s'\n", message, detail);
    } else {
      std::fprintf(diagnostics, "# cli: %s\n", message);
    }
  };
  const auto observe = [&](const char* text) {
    std::vector<std::string> errors;
    options.observe = sim::parse_observe(text, &errors);
    for (const auto& error : errors) {
      warn(("ignoring --observe item: " + error).c_str(), nullptr);
    }
  };
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--jobs") == 0) {
      if (i + 1 >= argc) {
        warn("--jobs requires a count; flag ignored", nullptr);
      } else if (!sim::parse_jobs_value(argv[++i], options.jobs)) {
        warn("ignoring unusable --jobs value (expected a non-negative "
             "integer)",
             argv[i]);
      }
    } else if (std::strncmp(arg, "--jobs=", 7) == 0) {
      if (!sim::parse_jobs_value(arg + 7, options.jobs)) {
        warn("ignoring unusable --jobs value (expected a non-negative "
             "integer)",
             arg + 7);
      }
    } else if (std::strcmp(arg, "--observe") == 0) {
      if (i + 1 >= argc) {
        warn("--observe requires a value; flag ignored", nullptr);
      } else {
        observe(argv[++i]);
      }
    } else if (std::strncmp(arg, "--observe=", 10) == 0) {
      if (arg[10] == '\0') {
        warn("--observe= requires a value; flag ignored", nullptr);
      } else {
        observe(arg + 10);
      }
    } else if (std::strcmp(arg, "--list") == 0) {
      print_experiment_list(stdout);
      std::exit(0);
    } else if (std::strncmp(arg, "--", 2) == 0) {
      warn("unknown flag ignored (supported: --jobs, --observe, --list)",
           arg);
    }
  }
  return options;
}

/// The observation scope a whole bench run lives in.
class Session {
 public:
  Session(const CliOptions& options, std::string name)
      : name_(std::move(name)),
        scope_(sim::Collect::from(options.observe), nullptr),
        span_(std::in_place, name_, "bench"),
        wall_start_(sim::metrics::wall_seconds()) {}

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  ~Session() {
    span_.reset();  // close the bench span before serializing
    try {
      if (const auto& sink = scope_.collects().telemetry) {
        // One whole-binary summary line after the per-driver snapshots, so
        // a sink file always ends with the run's total distribution.
        core::append_telemetry_snapshot(
            *sink, core::TelemetrySnapshot::of(
                       name_ + "-total", scope_,
                       (sim::metrics::wall_seconds() - wall_start_) * 1e3));
      }
      if (const auto& trace = scope_.collects().trace) trace->close();
    } catch (const std::exception& error) {
      std::fprintf(stderr, "# cli: dropping bench observability: %s\n",
                   error.what());
    }
  }

 private:
  std::string name_;
  sim::Scope scope_;
  std::optional<sim::trace::Span> span_;
  double wall_start_ = 0.0;
};

/// The standard bench banner line for the resolved observability state.
inline void print_banner(const CliOptions& options) {
  std::printf("# jobs: %zu (override with --jobs N or RINGENT_JOBS)\n",
              sim::resolve_jobs(options.jobs));
  const sim::ObserveSpec& observe = options.observe;
  if (observe.metrics) {
    const auto dir = core::artifact_dir();
    std::printf("# metrics: on (run manifests %s%s)\n",
                dir ? "in " : "kept only with RINGENT_OUT_DIR",
                dir ? dir->c_str() : "");
  }
  if (!observe.trace.empty()) {
    std::printf("# trace: %s (open in chrome://tracing or Perfetto)\n",
                observe.trace.c_str());
  }
  if (!observe.telemetry.empty()) {
    std::printf("# telemetry: %s (ringent.telemetry/1 snapshots)\n",
                observe.telemetry.c_str());
  }
}

}  // namespace ringent::bench
