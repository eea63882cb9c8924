// Shared arithmetic and bookkeeping of the end-to-end benchmark: clock,
// percentiles, spans with self time, stream hashing, and the host
// fingerprint every result carries.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/json.hpp"

namespace e2ebench {

using ringent::Json;

/// Monotonic host time in seconds (steady_clock).
double now_s();

/// Percentile `q` in [0, 1] of `values` by linear interpolation between the
/// closest ranks (position q * (n - 1) in sorted order). Throws on an empty
/// sample or q outside [0, 1].
double percentile(std::vector<double> values, double q);
double median(std::vector<double> values);
double mean(const std::vector<double>& values);

/// Samples strictly above percentile(values, q): how much data backs a tail
/// percentile (the benchmark reports a tail only with >= 10 beyond it).
std::size_t samples_beyond(const std::vector<double>& values, double q);

/// One timed interval at a layer boundary. Spans form a tree through
/// `parent` (an index into the recorder, -1 for the root).
struct Span {
  std::string name;
  int parent = -1;
  double start_s = 0.0;
  double end_s = 0.0;
  Json attrs = Json::object();

  double duration_s() const { return end_s - start_s; }
};

/// In-memory span recorder; written out once the workload has ended.
class SpanRecorder {
 public:
  /// Record a span; returns its index (the `parent` of its children).
  int add(std::string name, int parent, double start_s, double end_s,
          Json attrs = Json::object());
  const std::vector<Span>& spans() const { return spans_; }

  /// Self time of every span: its duration minus the part of its interval
  /// covered by the union of its children (clipped to the parent).
  std::vector<double> self_times_s() const;

  /// One JSON object per line: id, name, parent, start/end (seconds from
  /// the first span's start) and attributes.
  void write_jsonl(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// FNV-1a 64 over `bytes`, continuing from `hash`.
constexpr std::uint64_t kFnvBasis = 1469598103934665603ull;
std::uint64_t fnv1a(std::span<const std::uint8_t> bytes,
                    std::uint64_t hash = kFnvBasis);

/// CPU time (user + system) of the whole process so far, in seconds.
double process_cpu_s();

/// Peak resident set of this process image (VmHWM) in MiB.
double peak_rss_mb();

/// CPU model, nproc, the affinity mask and the worker count in use.
Json host_fingerprint(std::size_t workers);

/// Worker threads the benchmark uses: min(4, CPUs in the affinity mask).
std::size_t bench_workers();

/// One metric entry of the result line: {"value": v, "unit": u}.
Json metric(double value, const std::string& unit);

}  // namespace e2ebench
