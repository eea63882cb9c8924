#include "core/export.hpp"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <mutex>
#include <utility>

#include "common/require.hpp"

#ifndef RINGENT_GIT_DESCRIBE
#define RINGENT_GIT_DESCRIBE "unknown"
#endif

namespace ringent::core {

std::optional<std::string> artifact_dir() {
  const char* dir = std::getenv("RINGENT_OUT_DIR");
  if (dir == nullptr || dir[0] == '\0') return std::nullopt;
  return std::string(dir);
}

bool write_artifact(const std::string& experiment_id, const Table& table,
                    const std::string& notes) {
  RINGENT_REQUIRE(!experiment_id.empty(), "empty experiment id");
  for (char c : experiment_id) {
    RINGENT_REQUIRE(std::isalnum(static_cast<unsigned char>(c)) || c == '-' ||
                        c == '_',
                    "experiment id must be a filesystem-safe slug");
  }
  const auto dir = artifact_dir();
  if (!dir.has_value()) return false;

  const std::string path = *dir + "/" + experiment_id + ".csv";
  std::ofstream out(path);
  if (!out.good()) throw Error("cannot open artifact file " + path);
  out << "# ringent experiment artifact: " << experiment_id << "\n";
  if (!notes.empty()) out << "# " << notes << "\n";
  out << table.csv();
  out.flush();
  if (!out.good()) throw Error("I/O error writing artifact " + path);
  return true;
}

std::string_view version_string() { return RINGENT_GIT_DESCRIBE; }

namespace {

// Counters, seeds and sizes are unsigned in the manifest schema; a negative
// integer in a hand-edited (or hostile) manifest would otherwise survive
// from_json() only to make to_json() throw on the uint64 cast.
std::uint64_t non_negative(const Json& value, const char* what) {
  const std::int64_t v = value.as_integer();
  RINGENT_REQUIRE(v >= 0,
                  std::string("manifest field '") + what +
                      "' must be non-negative");
  return static_cast<std::uint64_t>(v);
}

}  // namespace

HistogramSummary HistogramSummary::of(
    const sim::telemetry::HistogramSnapshot& h) {
  HistogramSummary out;
  out.name = std::string(h.name);
  out.count = h.count;
  out.mean = h.mean();
  out.p50 = h.quantile(0.50);
  out.p90 = h.quantile(0.90);
  out.p99 = h.quantile(0.99);
  out.p999 = h.quantile(0.999);
  return out;
}

namespace {

/// Json integers are exact only up to int64 max, but quantile bounds in the
/// top half-octave of the uint64 range (bucket_high of the last buckets, up
/// to UINT64_MAX) exceed it. Saturate on serialization — the bucket list
/// still carries the precise distribution, so a clamped quantile only loses
/// information where the bucket itself is already 2^58 wide.
Json saturated(std::uint64_t v) {
  constexpr auto limit =
      static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max());
  return Json(v > limit ? limit : v);
}

Json summary_to_json(const HistogramSummary& s) {
  Json entry = Json::object();
  entry.set("name", s.name);
  entry.set("count", saturated(s.count));
  entry.set("mean", s.mean);
  entry.set("p50", saturated(s.p50));
  entry.set("p90", saturated(s.p90));
  entry.set("p99", saturated(s.p99));
  entry.set("p999", saturated(s.p999));
  return entry;
}

HistogramSummary summary_from_json(const Json& entry) {
  HistogramSummary s;
  s.name = entry.at("name").as_string();
  s.count = non_negative(entry.at("count"), "count");
  s.mean = entry.at("mean").as_number();
  s.p50 = non_negative(entry.at("p50"), "p50");
  s.p90 = non_negative(entry.at("p90"), "p90");
  s.p99 = non_negative(entry.at("p99"), "p99");
  s.p999 = non_negative(entry.at("p999"), "p999");
  return s;
}

}  // namespace

Json RunManifest::to_json() const {
  Json root = Json::object();
  root.set("schema", std::string(schema));
  root.set("experiment", experiment);
  root.set("spec", spec);
  root.set("seed", seed);
  root.set("jobs", jobs);
  root.set("tasks", tasks);
  root.set("wall_ms", wall_ms);
  root.set("cpu_ms", cpu_ms);
  root.set("version", version);

  Json counters = Json::object();
  for (std::size_t i = 0; i < sim::metrics::counter_count; ++i) {
    const auto counter = static_cast<sim::metrics::Counter>(i);
    counters.set(std::string(sim::metrics::counter_name(counter)),
                 metrics.counters[i]);
  }
  root.set("counters", std::move(counters));

  Json phases = Json::array();
  for (const auto& phase : metrics.phases) {
    Json entry = Json::object();
    entry.set("name", phase.name);
    entry.set("wall_ms", phase.wall_ms);
    entry.set("cpu_ms", phase.cpu_ms);
    entry.set("calls", phase.calls);
    phases.push_back(std::move(entry));
  }
  root.set("phases", std::move(phases));

  if (!telemetry.empty()) {
    Json summaries = Json::array();
    for (const auto& s : telemetry) summaries.push_back(summary_to_json(s));
    root.set("telemetry", std::move(summaries));
  }
  return root;
}

RunManifest RunManifest::from_json(const Json& json) {
  RINGENT_REQUIRE(json.is_object(), "manifest must be a JSON object");
  RINGENT_REQUIRE(json.at("schema").as_string() == schema,
                  "unknown manifest schema");
  RunManifest m;
  m.experiment = json.at("experiment").as_string();
  m.spec = json.at("spec").as_string();
  m.seed = non_negative(json.at("seed"), "seed");
  m.jobs = static_cast<std::size_t>(non_negative(json.at("jobs"), "jobs"));
  m.tasks = static_cast<std::size_t>(non_negative(json.at("tasks"), "tasks"));
  m.wall_ms = json.at("wall_ms").as_number();
  m.cpu_ms = json.at("cpu_ms").as_number();
  m.version = json.at("version").as_string();

  const Json& counters = json.at("counters");
  RINGENT_REQUIRE(counters.is_object(), "manifest counters must be an object");
  for (std::size_t i = 0; i < sim::metrics::counter_count; ++i) {
    const auto counter = static_cast<sim::metrics::Counter>(i);
    m.metrics.counters[i] = non_negative(
        counters.at(sim::metrics::counter_name(counter)), "counters");
  }

  const Json& phases = json.at("phases");
  RINGENT_REQUIRE(phases.is_array(), "manifest phases must be an array");
  for (std::size_t i = 0; i < phases.size(); ++i) {
    const Json& entry = phases.at(i);
    sim::metrics::PhaseStat stat;
    stat.name = entry.at("name").as_string();
    stat.wall_ms = entry.at("wall_ms").as_number();
    stat.cpu_ms = entry.at("cpu_ms").as_number();
    stat.calls = non_negative(entry.at("calls"), "calls");
    m.metrics.phases.push_back(std::move(stat));
  }

  if (json.contains("telemetry")) {
    const Json& summaries = json.at("telemetry");
    RINGENT_REQUIRE(summaries.is_array(),
                    "manifest telemetry must be an array");
    for (std::size_t i = 0; i < summaries.size(); ++i) {
      m.telemetry.push_back(summary_from_json(summaries.at(i)));
    }
  }
  return m;
}

namespace {
thread_local std::optional<RunManifest> last_manifest;
}  // namespace

std::string write_run_manifest(const RunManifest& manifest,
                               const std::string& artifact) {
  const std::string& stem = artifact.empty() ? manifest.experiment : artifact;
  RINGENT_REQUIRE(!stem.empty(), "empty experiment id");
  for (char c : stem) {
    RINGENT_REQUIRE(std::isalnum(static_cast<unsigned char>(c)) || c == '-' ||
                        c == '_',
                    "experiment id must be a filesystem-safe slug");
  }
  last_manifest = manifest;
  const auto dir = artifact_dir();
  if (!dir.has_value()) return "";
  const std::string path = *dir + "/" + stem + ".manifest.json";
  std::ofstream out(path);
  if (!out.good()) throw Error("cannot open manifest file " + path);
  out << manifest.to_json().dump(2) << "\n";
  out.flush();
  if (!out.good()) throw Error("I/O error writing manifest " + path);
  return path;
}

std::optional<RunManifest> last_run_manifest() { return last_manifest; }

// --- telemetry snapshots ----------------------------------------------------

namespace {

// HistogramSnapshot::name is a string_view into static storage; parsed
// snapshots must resolve their name against the known slugs (which doubles
// as schema validation for hand-edited or fuzzed input).
std::string_view histogram_slug(const std::string& name) {
  for (std::size_t i = 0; i < sim::telemetry::histogram_count; ++i) {
    const auto slug = sim::telemetry::histogram_name(
        static_cast<sim::telemetry::Histogram>(i));
    if (name == slug) return slug;
  }
  throw Error("unknown telemetry histogram '" + name + "'");
}

}  // namespace

TelemetrySnapshot TelemetrySnapshot::of(std::string experiment,
                                        const sim::Scope& scope,
                                        double wall_ms) {
  TelemetrySnapshot snap;
  snap.experiment = std::move(experiment);
  snap.wall_ms = wall_ms;
  snap.histograms = scope.histograms().non_empty();
  snap.streams = scope.streams();
  return snap;
}

std::vector<HistogramSummary> TelemetrySnapshot::summaries() const {
  std::vector<HistogramSummary> out;
  out.reserve(histograms.size());
  for (const auto& h : histograms) out.push_back(HistogramSummary::of(h));
  return out;
}

Json TelemetrySnapshot::to_json() const {
  Json root = Json::object();
  root.set("schema", std::string(schema));
  root.set("experiment", experiment);
  root.set("sequence", sequence);
  root.set("wall_ms", wall_ms);

  Json histos = Json::array();
  for (const auto& h : histograms) {
    Json entry = Json::object();
    entry.set("name", std::string(h.name));
    entry.set("count", saturated(h.count));
    entry.set("sum", saturated(h.sum));
    // Derived from the buckets; from_json ignores them (fixpoint contract).
    entry.set("p50", saturated(h.quantile(0.50)));
    entry.set("p90", saturated(h.quantile(0.90)));
    entry.set("p99", saturated(h.quantile(0.99)));
    entry.set("p999", saturated(h.quantile(0.999)));
    Json buckets = Json::array();
    for (const auto& [index, observations] : h.buckets) {
      Json bucket = Json::array();
      bucket.push_back(index);
      bucket.push_back(observations);
      buckets.push_back(std::move(bucket));
    }
    entry.set("buckets", std::move(buckets));
    histos.push_back(std::move(entry));
  }
  root.set("histograms", std::move(histos));

  Json stream_array = Json::array();
  for (const auto& s : streams) stream_array.push_back(s.to_json());
  root.set("streams", std::move(stream_array));
  return root;
}

TelemetrySnapshot TelemetrySnapshot::from_json(const Json& json) {
  RINGENT_REQUIRE(json.is_object(), "telemetry snapshot must be a JSON object");
  RINGENT_REQUIRE(json.at("schema").as_string() == schema,
                  "unknown telemetry schema");
  TelemetrySnapshot snap;
  snap.experiment = json.at("experiment").as_string();
  snap.sequence = non_negative(json.at("sequence"), "sequence");
  snap.wall_ms = json.at("wall_ms").as_number();

  const Json& histos = json.at("histograms");
  RINGENT_REQUIRE(histos.is_array(), "telemetry histograms must be an array");
  for (std::size_t i = 0; i < histos.size(); ++i) {
    const Json& entry = histos.at(i);
    sim::telemetry::HistogramSnapshot h;
    h.name = histogram_slug(entry.at("name").as_string());
    h.count = non_negative(entry.at("count"), "count");
    h.sum = non_negative(entry.at("sum"), "sum");
    const Json& buckets = entry.at("buckets");
    RINGENT_REQUIRE(buckets.is_array(), "histogram buckets must be an array");
    std::uint64_t total = 0;
    std::int64_t previous = -1;
    for (std::size_t b = 0; b < buckets.size(); ++b) {
      const Json& bucket = buckets.at(b);
      RINGENT_REQUIRE(bucket.is_array() && bucket.size() == 2,
                      "histogram bucket must be an [index, count] pair");
      const std::uint64_t index = non_negative(bucket.at(0), "bucket index");
      const std::uint64_t observations =
          non_negative(bucket.at(1), "bucket count");
      RINGENT_REQUIRE(index < sim::telemetry::bucket_count,
                      "bucket index out of range");
      RINGENT_REQUIRE(static_cast<std::int64_t>(index) > previous,
                      "bucket indices must be strictly ascending");
      RINGENT_REQUIRE(observations > 0, "empty bucket in sparse histogram");
      previous = static_cast<std::int64_t>(index);
      total += observations;
      h.buckets.emplace_back(static_cast<std::uint32_t>(index), observations);
    }
    RINGENT_REQUIRE(total == h.count,
                    "histogram count disagrees with its buckets");
    snap.histograms.push_back(std::move(h));
  }

  const Json& stream_array = json.at("streams");
  RINGENT_REQUIRE(stream_array.is_array(),
                  "telemetry streams must be an array");
  for (std::size_t i = 0; i < stream_array.size(); ++i) {
    snap.streams.push_back(
        trng::telemetry::StreamStats::from_json(stream_array.at(i)));
  }
  return snap;
}

std::string append_telemetry_snapshot(sim::TelemetrySink& sink,
                                      TelemetrySnapshot snapshot) {
  const std::lock_guard<std::mutex> lock(sink.mutex);
  snapshot.sequence = sink.sequence++;
  const std::string& path = sink.path;
  const bool prometheus =
      path.size() >= 5 && path.compare(path.size() - 5, 5, ".prom") == 0;
  // Scrape-file mode: the latest snapshot replaces the previous one.
  std::ofstream out(path, prometheus ? std::ios::trunc : std::ios::app);
  if (!out.good()) throw Error("cannot open telemetry sink " + path);
  if (prometheus) {
    out << prometheus_exposition(snapshot);
  } else {
    out << snapshot.to_json().dump() << "\n";
  }
  out.flush();
  if (!out.good()) throw Error("I/O error writing telemetry sink " + path);
  return path;
}

namespace {

std::string prom_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// Prometheus text-format label values escape backslash, quote and newline.
std::string prom_label(const std::string& raw) {
  std::string out;
  out.reserve(raw.size());
  for (char c : raw) {
    if (c == '\\' || c == '"') out += '\\';
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out += c;
  }
  return out;
}

}  // namespace

std::string prometheus_exposition(const TelemetrySnapshot& snapshot) {
  std::string out;
  out += "# ringent telemetry exposition (schema " + std::string(
             TelemetrySnapshot::schema) + ", experiment \"" +
         snapshot.experiment + "\")\n";
  for (const auto& h : snapshot.histograms) {
    const std::string metric = "ringent_" + std::string(h.name);
    out += "# TYPE " + metric + " histogram\n";
    std::uint64_t cumulative = 0;
    for (const auto& [index, observations] : h.buckets) {
      cumulative += observations;
      out += metric + "_bucket{le=\"" +
             std::to_string(sim::telemetry::bucket_high(index)) + "\"} " +
             std::to_string(cumulative) + "\n";
    }
    out += metric + "_bucket{le=\"+Inf\"} " + std::to_string(h.count) + "\n";
    out += metric + "_sum " + std::to_string(h.sum) + "\n";
    out += metric + "_count " + std::to_string(h.count) + "\n";
  }
  if (!snapshot.streams.empty()) {
    out += "# TYPE ringent_stream_bits gauge\n";
    for (const auto& s : snapshot.streams) {
      out += "ringent_stream_bits{stream=\"" + prom_label(s.label) + "\"} " +
             std::to_string(s.bits) + "\n";
    }
    out += "# TYPE ringent_stream_bias gauge\n";
    for (const auto& s : snapshot.streams) {
      out += "ringent_stream_bias{stream=\"" + prom_label(s.label) + "\"} " +
             prom_number(s.bias) + "\n";
    }
    out += "# TYPE ringent_stream_window_bias gauge\n";
    for (const auto& s : snapshot.streams) {
      out += "ringent_stream_window_bias{stream=\"" + prom_label(s.label) +
             "\"} " + prom_number(s.window_bias) + "\n";
    }
    out += "# TYPE ringent_stream_markov_min_entropy gauge\n";
    for (const auto& s : snapshot.streams) {
      out += "ringent_stream_markov_min_entropy{stream=\"" +
             prom_label(s.label) + "\"} " + prom_number(s.markov_min_entropy) +
             "\n";
    }
    out += "# TYPE ringent_stream_autocorrelation gauge\n";
    for (const auto& s : snapshot.streams) {
      for (std::size_t lag = 0; lag < s.autocorrelation.size(); ++lag) {
        out += "ringent_stream_autocorrelation{stream=\"" +
               prom_label(s.label) + "\",lag=\"" + std::to_string(lag + 1) +
               "\"} " + prom_number(s.autocorrelation[lag]) + "\n";
      }
    }
  }
  return out;
}

}  // namespace ringent::core
