// Machine-readable experiment artifacts: CSV tables and JSON run manifests.
//
// `ringent_cli run` prints each experiment's rendered table to stdout
// (core/render.hpp); when the environment variable RINGENT_OUT_DIR names a
// writable directory, it additionally drops each table there as CSV so plots
// can be regenerated without scraping stdout, as do the bench binaries.
// The export layer is deliberately dumb: write_artifact() writes
// table.csv() plus a provenance comment header.
//
// Run manifests are the observability companion: every experiment driver
// run under an observation scope that collects metrics (sim/observe.hpp)
// builds one RunManifest from its own scope — spec, master seed, resolved
// jobs, wall/CPU totals, per-phase timers and the counters of that run
// alone, even when other runs share the process. Like CSV artifacts, the
// manifest is written as <dir>/<experiment>.manifest.json (or under the
// run's ExperimentOptions::artifact name) only when RINGENT_OUT_DIR names
// <dir>. The schema is versioned
// ("ringent.run-manifest/1") and round-trip checked by the test suite.
//
// Telemetry snapshots are the distribution-level companion: when the scope
// has a telemetry sink (`--observe telemetry=FILE`) every driver
// additionally appends one "ringent.telemetry/1" JSON line to that file —
// its scope's histograms (sim/telemetry.hpp) plus the stream observables
// published by trng/telemetry.hpp — and embeds quantile summaries in its
// run manifest. prometheus_exposition() renders the same snapshot in the
// Prometheus text format for scrape-style consumers; a sink path ending in
// ".prom" selects that format (latest snapshot wins) instead of JSONL.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "core/report.hpp"
#include "sim/metrics.hpp"
#include "sim/observe.hpp"
#include "sim/telemetry.hpp"
#include "trng/telemetry.hpp"

namespace ringent::core {

/// Directory from RINGENT_OUT_DIR, or nullopt when exporting is off.
std::optional<std::string> artifact_dir();

/// Write `table` as <dir>/<experiment_id>.csv with a provenance comment
/// header. No-op (returns false) when RINGENT_OUT_DIR is unset; throws a
/// plain ringent::Error naming the path when the file cannot be opened or
/// written. `experiment_id` must be a filesystem-safe slug (letters,
/// digits, '-', '_').
bool write_artifact(const std::string& experiment_id, const Table& table,
                    const std::string& notes = "");

/// Library build provenance: `git describe --always --dirty` captured at
/// configure time, or "unknown" outside a git checkout.
std::string_view version_string();

/// Quantile summary of one telemetry histogram, embedded in run manifests
/// (the full bucket list lives in the telemetry snapshot file).
struct HistogramSummary {
  std::string name;  ///< sim::telemetry::histogram_name slug
  std::uint64_t count = 0;
  double mean = 0.0;
  std::uint64_t p50 = 0;
  std::uint64_t p90 = 0;
  std::uint64_t p99 = 0;
  std::uint64_t p999 = 0;

  static HistogramSummary of(const sim::telemetry::HistogramSnapshot& h);
};

/// One observable experiment run, built by every driver in
/// core/experiments.cpp run under a scope that collects metrics.
struct RunManifest {
  static constexpr std::string_view schema = "ringent.run-manifest/1";

  std::string experiment;  ///< filesystem-safe driver slug
  std::string spec;        ///< human-readable ring/sweep description
  std::uint64_t seed = 0;  ///< ExperimentOptions master seed
  std::size_t jobs = 0;    ///< resolved worker count
  std::size_t tasks = 0;   ///< independent sweep axes executed
  double wall_ms = 0.0;    ///< driver wall-clock
  double cpu_ms = 0.0;     ///< process CPU over the driver (> wall when parallel)
  sim::metrics::Snapshot metrics;  ///< counters and phases of this run
  std::string version;     ///< version_string() at emission
  /// Histogram summaries for the run, present only when telemetry was
  /// collecting (the "telemetry" key is omitted when empty, so manifests
  /// written without telemetry are byte-identical to the pre-telemetry
  /// schema and pinned goldens stay valid).
  std::vector<HistogramSummary> telemetry;

  Json to_json() const;
  /// Inverse of to_json(); throws ringent::Error when `json` does not
  /// satisfy the schema (missing key, wrong type, unknown schema id).
  static RunManifest from_json(const Json& json);
};

/// Record `manifest` as this thread's last_run_manifest(), then serialize
/// it to <dir>/<artifact>.manifest.json when RINGENT_OUT_DIR names <dir>
/// (an empty `artifact` means the experiment slug). Returns the path
/// written ("" when RINGENT_OUT_DIR is unset). Throws on I/O failure, which
/// leaves the recorded manifest as it is.
std::string write_run_manifest(const RunManifest& manifest,
                               const std::string& artifact);

/// The last manifest a driver built on this thread (empty before the
/// first). Lets a caller that ran a campaign or a driver read its counters
/// without re-reading a file.
std::optional<RunManifest> last_run_manifest();

/// One streamed telemetry snapshot: the histograms of a run (or of a whole
/// front-end run) plus its published stream observables. Serialized as a
/// single JSON line ("ringent.telemetry/1") so a sink file is JSONL.
struct TelemetrySnapshot {
  static constexpr std::string_view schema = "ringent.telemetry/1";

  std::string experiment;     ///< driver slug
  std::uint64_t sequence = 0; ///< per-sink snapshot counter, assigned on append
  double wall_ms = 0.0;       ///< wall-clock covered by the snapshot
  std::vector<sim::telemetry::HistogramSnapshot> histograms;  ///< non-empty only
  std::vector<trng::telemetry::StreamStats> streams;

  /// The histograms and streams `scope` holds so far.
  static TelemetrySnapshot of(std::string experiment, const sim::Scope& scope,
                              double wall_ms);

  /// Summaries for manifest embedding / human-readable tables.
  std::vector<HistogramSummary> summaries() const;

  /// The quantile fields in the JSON (p50/p90/p99/p999 per histogram) are
  /// derived from the buckets on serialization and ignored by from_json, so
  /// parse → dump is a fixpoint (fuzzed in fuzz/fuzz_telemetry.cpp).
  Json to_json() const;
  static TelemetrySnapshot from_json(const Json& json);
};

/// Append `snapshot` to `sink`, assigning its sequence. JSONL append,
/// except a sink ending in ".prom" is rewritten with the Prometheus
/// exposition instead. Returns the path written. Throws on I/O failure.
std::string append_telemetry_snapshot(sim::TelemetrySink& sink,
                                      TelemetrySnapshot snapshot);

/// Prometheus text exposition of `snapshot`: one `# TYPE ... histogram`
/// family per histogram (cumulative le-buckets over the log-linear bucket
/// upper bounds) and gauges for the stream observables.
std::string prometheus_exposition(const TelemetrySnapshot& snapshot);

}  // namespace ringent::core
