// The streaming telemetry layer: log-linear bucketing math, quantile
// correctness against exact order statistics, zero-cost-when-off, the
// windowed entropy observables, the versioned snapshot schema (golden-pinned
// and round-tripped), the Prometheus exposition, and determinism of the
// simulated-domain histograms across worker counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "common/require.hpp"
#include "core/calibration.hpp"
#include "core/experiments.hpp"
#include "core/export.hpp"
#include "sim/metrics.hpp"
#include "sim/observe.hpp"
#include "sim/telemetry.hpp"
#include "trng/telemetry.hpp"

using namespace ringent;
namespace histo = ringent::sim::telemetry;
namespace stream = ringent::trng::telemetry;

namespace {

/// An observation scope collecting histograms (and stream stats), current
/// for the lifetime of the test that opens it.
class TelemetryScope : public sim::Scope {
 public:
  TelemetryScope() : sim::Scope(sim::Collect{.histograms = true}, nullptr) {}
};

/// The last snapshot line of a JSONL sink file.
core::TelemetrySnapshot last_line(const std::string& content) {
  std::istringstream in(content);
  std::string line, last;
  while (std::getline(in, line)) {
    if (!line.empty()) last = line;
  }
  return core::TelemetrySnapshot::from_json(Json::parse(last));
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Exact order statistic with the same rank convention quantile() uses.
std::uint64_t exact_quantile(std::vector<std::uint64_t> sorted, double q) {
  std::sort(sorted.begin(), sorted.end());
  auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  rank = std::min(std::max<std::size_t>(rank, 1), sorted.size());
  return sorted[rank - 1];
}

}  // namespace

// --- bucketing math ---------------------------------------------------------

TEST(TelemetryBuckets, SmallValuesGetExactBuckets) {
  for (std::uint64_t v = 0; v < histo::sub_bucket_count; ++v) {
    EXPECT_EQ(histo::bucket_index(v), v);
    EXPECT_EQ(histo::bucket_low(v), v);
    EXPECT_EQ(histo::bucket_high(v), v);
  }
}

TEST(TelemetryBuckets, PinnedBoundaries) {
  // First sub-bucketed group: width 1 (values 32..63 stay exact).
  EXPECT_EQ(histo::bucket_index(32), 32u);
  EXPECT_EQ(histo::bucket_index(63), 63u);
  EXPECT_EQ(histo::bucket_high(63), 63u);
  // Group 2: width 2.
  EXPECT_EQ(histo::bucket_index(64), 64u);
  EXPECT_EQ(histo::bucket_index(65), 64u);
  EXPECT_EQ(histo::bucket_index(127), 95u);
  EXPECT_EQ(histo::bucket_low(95), 126u);
  EXPECT_EQ(histo::bucket_high(95), 127u);
  // The top of the range still fits the table.
  EXPECT_EQ(histo::bucket_index(~std::uint64_t{0}), histo::bucket_count - 1);
}

TEST(TelemetryBuckets, EveryValueFallsInsideItsBucket) {
  // Sweep a deterministic mix of magnitudes including the exact power-of-two
  // edges where off-by-ones would hide.
  std::uint64_t v = 1;
  for (int e = 0; e < 64; ++e, v <<= 1) {
    for (const std::uint64_t probe : {v - 1, v, v + 1, v + (v >> 3)}) {
      if (probe == 0) continue;
      const std::size_t index = histo::bucket_index(probe);
      ASSERT_LT(index, histo::bucket_count);
      EXPECT_LE(histo::bucket_low(index), probe);
      EXPECT_GE(histo::bucket_high(index), probe);
      // Relative width bound: width <= low / sub_bucket_count for group >= 1.
      if (probe >= histo::sub_bucket_count) {
        const std::uint64_t width =
            histo::bucket_high(index) - histo::bucket_low(index) + 1;
        EXPECT_LE(width * histo::sub_bucket_count,
                  histo::bucket_low(index) + histo::sub_bucket_count);
      }
    }
  }
}

// --- quantiles --------------------------------------------------------------

TEST(TelemetryQuantiles, ExactForSmallValues) {
  TelemetryScope scope;
  // All values < 32 get exact buckets, so quantiles equal order statistics.
  std::vector<std::uint64_t> values;
  for (std::uint64_t i = 0; i < 500; ++i) {
    const std::uint64_t v = (i * 7) % 32;
    values.push_back(v);
    histo::record(histo::Histogram::queue_depth, v);
  }
  const auto h =
      scope.histograms().histogram(histo::Histogram::queue_depth);
  ASSERT_EQ(h.count, values.size());
  for (const double q : {0.01, 0.25, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_EQ(h.quantile(q), exact_quantile(values, q)) << "q=" << q;
  }
  EXPECT_EQ(h.min_bound(), 0u);
  EXPECT_EQ(h.max_bound(), 31u);
}

TEST(TelemetryQuantiles, RelativeErrorBoundedForLargeValues) {
  TelemetryScope scope;
  // Deterministic multiplicative congruential stream spanning ~6 decades.
  std::vector<std::uint64_t> values;
  std::uint64_t x = 88172645463325252ULL;
  for (int i = 0; i < 4000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const std::uint64_t v = x % 1000000000ULL;
    values.push_back(v);
    histo::record(histo::Histogram::event_gap_fs, v);
  }
  const auto h =
      scope.histograms().histogram(histo::Histogram::event_gap_fs);
  ASSERT_EQ(h.count, values.size());
  for (const double q : {0.05, 0.5, 0.9, 0.99, 0.999}) {
    const std::uint64_t exact = exact_quantile(values, q);
    const std::uint64_t est = h.quantile(q);
    // Never under-reports; over-reports by at most 2^-sub_bucket_bits.
    EXPECT_GE(est, exact) << "q=" << q;
    EXPECT_LE(static_cast<double>(est),
              static_cast<double>(exact) *
                  (1.0 + 1.0 / histo::sub_bucket_count) + 1.0)
        << "q=" << q;
  }
}

TEST(TelemetryQuantiles, SumAndMeanAreExact) {
  TelemetryScope scope;
  std::uint64_t sum = 0;
  for (std::uint64_t v = 100; v < 200; ++v) {
    histo::record(histo::Histogram::charlie_delay_fs, v);
    sum += v;
  }
  const auto h =
      scope.histograms().histogram(histo::Histogram::charlie_delay_fs);
  EXPECT_EQ(h.sum, sum);
  EXPECT_DOUBLE_EQ(h.mean(), static_cast<double>(sum) / 100.0);
}

// --- collection switch ------------------------------------------------------

TEST(TelemetryRegistry, RecordIsIgnoredWhenDisabled) {
  // No scope at all: the probe is a no-op.
  ASSERT_FALSE(histo::enabled());
  histo::record(histo::Histogram::event_gap_fs, 42);
  // A scope that collects metrics only has no histogram storage to fill.
  const sim::Scope scope(sim::Collect{.metrics = true}, nullptr);
  ASSERT_FALSE(histo::enabled());
  histo::record(histo::Histogram::event_gap_fs, 42);
  const auto snap = scope.histograms();
  for (std::size_t h = 0; h < histo::histogram_count; ++h) {
    EXPECT_EQ(snap.counts[h], 0u);
  }
}

TEST(TelemetryRegistry, ScopeIsolatesARun) {
  TelemetryScope scope;
  histo::record(histo::Histogram::queue_depth, 1);
  {
    const sim::Scope run;  // a child: collects what `scope` collects
    histo::record(histo::Histogram::queue_depth, 2);
    histo::record(histo::Histogram::queue_depth, 2);
    const auto h = run.histograms().histogram(histo::Histogram::queue_depth);
    EXPECT_EQ(h.count, 2u);
    EXPECT_EQ(h.sum, 4u);
    ASSERT_EQ(h.buckets.size(), 1u);
    EXPECT_EQ(h.buckets[0].first, 2u);
    EXPECT_EQ(h.buckets[0].second, 2u);
  }
  // Closing the child added its observations into the parent.
  const auto total = scope.histograms().histogram(histo::Histogram::queue_depth);
  EXPECT_EQ(total.count, 3u);
  EXPECT_EQ(total.sum, 5u);
}

TEST(TelemetryRegistry, ExitedThreadsLeaveExactTotalsInTheirParentScope) {
  namespace metrics = sim::metrics;
  sim::Scope scope(sim::Collect{.metrics = true, .histograms = true}, nullptr);

  // One short-lived thread at a time: each counts under a child of `scope`
  // and exits, adding its totals into `scope` as its child closes.
  constexpr std::uint64_t kThreads = 64;
  for (std::uint64_t t = 0; t < kThreads; ++t) {
    std::thread worker([&scope, t] {
      const sim::Scope child(scope.collects(), &scope);
      metrics::bump(metrics::Counter::pool_tasks, t + 1);
      histo::record(histo::Histogram::queue_depth, t);
    });
    worker.join();
  }

  EXPECT_EQ(scope.metrics().counter(metrics::Counter::pool_tasks),
            kThreads * (kThreads + 1) / 2);
  const auto depth =
      scope.histograms().histogram(histo::Histogram::queue_depth);
  EXPECT_EQ(depth.count, kThreads);
  EXPECT_EQ(depth.sum, kThreads * (kThreads - 1) / 2);
}

// --- determinism across worker counts ---------------------------------------

TEST(TelemetryRegistry, SimulatedDomainHistogramsAreBitExactAcrossJobs) {
  const auto& cal = core::cyclone_iii();
  // An STR sweep exercises Charlie evaluations as well as the event path.
  core::JitterSweepSpec sweep;
  sweep.kind = core::RingKind::str;
  sweep.stage_counts = {4, 8};
  sweep.divider_n = 4;
  sweep.mes_periods = 20;
  core::ExperimentOptions options;

  std::array<histo::Snapshot, 2> deltas;
  std::size_t slot = 0;
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    options.jobs = jobs;
    const TelemetryScope scope;
    core::run_jitter_vs_stages(sweep, cal, options);
    deltas[slot++] = scope.histograms();
  }

  for (std::size_t h = 0; h < histo::histogram_count; ++h) {
    const auto kind = static_cast<histo::Histogram>(h);
    if (kind == histo::Histogram::pool_task_ns) continue;  // wall clock
    EXPECT_EQ(deltas[0].counts[h], deltas[1].counts[h])
        << histo::histogram_name(kind);
    EXPECT_EQ(deltas[0].sums[h], deltas[1].sums[h])
        << histo::histogram_name(kind);
    EXPECT_EQ(deltas[0].buckets[h], deltas[1].buckets[h])
        << histo::histogram_name(kind);
  }
  // The sweep actually recorded something deterministic.
  EXPECT_GT(
      deltas[0].counts[static_cast<std::size_t>(histo::Histogram::event_gap_fs)],
      0u);
  EXPECT_GT(deltas[0].counts[static_cast<std::size_t>(
                histo::Histogram::charlie_delay_fs)],
            0u);
}

// --- streaming entropy observables ------------------------------------------

TEST(StreamingEntropy, BiasTracksCumulativeAndWindow) {
  stream::StreamingEntropy s({16, 2});
  for (int i = 0; i < 32; ++i) s.feed(1);
  for (int i = 0; i < 16; ++i) s.feed(0);
  EXPECT_EQ(s.bits(), 48u);
  EXPECT_DOUBLE_EQ(s.bias(), 32.0 / 48.0);
  EXPECT_DOUBLE_EQ(s.window_bias(), 0.0);  // trailing 16 bits are all zero
}

TEST(StreamingEntropy, AlternatingStreamHasZeroMinEntropy) {
  stream::StreamingEntropy s({64, 4});
  for (int i = 0; i < 256; ++i) s.feed(static_cast<std::uint8_t>(i % 2));
  // Perfectly predictable: sqrt(p01 * p10) = 1.
  EXPECT_DOUBLE_EQ(s.markov_min_entropy(), 0.0);
  // Lag-1 autocorrelation of an alternating window is -1.
  const auto r = s.window_autocorrelation();
  ASSERT_EQ(r.size(), 4u);
  EXPECT_NEAR(r[0], -1.0, 0.05);
  EXPECT_NEAR(r[1], 1.0, 0.05);
}

TEST(StreamingEntropy, ConstantStreamHasZeroMinEntropy) {
  stream::StreamingEntropy s({16, 2});
  for (int i = 0; i < 64; ++i) s.feed(1);
  EXPECT_DOUBLE_EQ(s.markov_min_entropy(), 0.0);
  EXPECT_DOUBLE_EQ(s.bias(), 1.0);
  // Constant window: autocorrelation degenerate, reported as 0.
  for (double r : s.window_autocorrelation()) EXPECT_DOUBLE_EQ(r, 0.0);
}

TEST(StreamingEntropy, NearConstantWindowsPinTheMarkovEdge) {
  // Regression pins for the p01*p10 == 0 family (no alternating cycle):
  // the estimate must come from the self-loops alone, and a history with no
  // recurrent transition at all must report the conservative 0 explicitly —
  // not via incidental float behaviour of -log2(0). (The offline §6.3.3
  // battery estimator scores the same two-bit history as full entropy; the
  // online monitor deliberately does not.)
  {
    // Two-bit "01" history: one 0->1 transition, no recurrence observed.
    stream::StreamingEntropy s({8, 1});
    s.feed(0);
    s.feed(1);
    EXPECT_DOUBLE_EQ(s.markov_min_entropy(), 0.0);
  }
  {
    // Mirror image "10".
    stream::StreamingEntropy s({8, 1});
    s.feed(1);
    s.feed(0);
    EXPECT_DOUBLE_EQ(s.markov_min_entropy(), 0.0);
  }
  {
    // Nine zeros then a one: p00 = 8/9, p01 = 1/9, no transitions out of
    // state 1 — the 0->0 self-loop pins the rate.
    stream::StreamingEntropy s({16, 1});
    for (int i = 0; i < 9; ++i) s.feed(0);
    s.feed(1);
    EXPECT_DOUBLE_EQ(s.markov_min_entropy(), -std::log2(8.0 / 9.0));
  }
  {
    // Zeros then a run of ones: the 1->1 self-loop saturates (p11 = 1), so
    // the stream is asymptotically constant.
    stream::StreamingEntropy s({8, 1});
    s.feed(0);
    s.feed(0);
    s.feed(1);
    s.feed(1);
    EXPECT_DOUBLE_EQ(s.markov_min_entropy(), 0.0);
  }
}

TEST(StreamingEntropy, BalancedMemorylessStreamIsNearOneBit) {
  stream::StreamingEntropy s({256, 4});
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (int i = 0; i < 8192; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    s.feed(static_cast<std::uint8_t>(x & 1));
  }
  EXPECT_NEAR(s.bias(), 0.5, 0.03);
  EXPECT_GT(s.markov_min_entropy(), 0.9);
}

TEST(StreamingEntropy, PublishDrainsSortedByLabel) {
  stream::StreamingEntropy s({8, 1});
  s.feed(1);
  stream::publish(stream::StreamStats::capture("dropped", s));  // no scope
  TelemetryScope scope;
  stream::publish(stream::StreamStats::capture("z-cell", s));
  {
    const sim::Scope child;  // a child's streams reach the parent on close
    stream::publish(stream::StreamStats::capture("a-cell", s));
  }
  const auto streams = scope.streams();
  ASSERT_EQ(streams.size(), 2u);
  EXPECT_EQ(streams[0].label, "a-cell");
  EXPECT_EQ(streams[1].label, "z-cell");
}

// --- snapshot schema --------------------------------------------------------

namespace {

core::TelemetrySnapshot sample_snapshot() {
  core::TelemetrySnapshot snap;
  snap.experiment = "attack_resilience";
  snap.sequence = 7;
  snap.wall_ms = 12.5;
  histo::HistogramSnapshot h;
  h.name = histo::histogram_name(histo::Histogram::rct_run_length);
  h.buckets = {{1, 60}, {2, 30}, {3, 10}};
  h.count = 100;
  h.sum = 150;
  snap.histograms.push_back(std::move(h));
  stream::StreamStats s;
  s.label = "str8/quiet:raw";
  s.bits = 1024;
  s.bias = 0.5;
  s.window_bias = 0.25;
  s.autocorrelation = {0.125, -0.5};
  s.markov_min_entropy = 0.75;
  snap.streams.push_back(std::move(s));
  return snap;
}

}  // namespace

TEST(TelemetrySnapshot, GoldenPinnedSerialization) {
  // The wire format of schema "ringent.telemetry/1". Changing this string
  // means bumping the schema version, not editing the expectation.
  const std::string expected =
      "{\"schema\":\"ringent.telemetry/1\","
      "\"experiment\":\"attack_resilience\",\"sequence\":7,"
      "\"wall_ms\":12.5,\"histograms\":[{\"name\":\"rct_run_length\","
      "\"count\":100,\"sum\":150,\"p50\":1,\"p90\":2,\"p99\":3,"
      "\"p999\":3,\"buckets\":[[1,60],[2,30],[3,10]]}],"
      "\"streams\":[{\"label\":\"str8/quiet:raw\",\"bits\":1024,"
      "\"bias\":0.5,\"window_bias\":0.25,"
      "\"autocorrelation\":[0.125,-0.5],\"markov_min_entropy\":0.75}]}";
  EXPECT_EQ(sample_snapshot().to_json().dump(), expected);
}

TEST(TelemetrySnapshot, RoundTripsThroughJson) {
  const auto original = sample_snapshot();
  const auto reloaded =
      core::TelemetrySnapshot::from_json(original.to_json());
  EXPECT_EQ(reloaded.to_json().dump(), original.to_json().dump());
  ASSERT_EQ(reloaded.histograms.size(), 1u);
  EXPECT_EQ(reloaded.histograms[0].count, 100u);
  ASSERT_EQ(reloaded.streams.size(), 1u);
  EXPECT_EQ(reloaded.streams[0].label, "str8/quiet:raw");
}

TEST(TelemetrySnapshot, DerivedQuantileFieldsAreIgnoredOnParse) {
  Json doc = sample_snapshot().to_json();
  // Tamper with a derived field: parse must recompute from the buckets, so
  // the re-dump equals the honest serialization (the fuzz fixpoint).
  std::string text = doc.dump();
  const std::string honest = text;
  const auto pos = text.find("\"p50\":1");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 7, "\"p50\":9");
  const auto reloaded =
      core::TelemetrySnapshot::from_json(Json::parse(text));
  EXPECT_EQ(reloaded.to_json().dump(), honest);
}

TEST(TelemetrySnapshot, RejectsSchemaViolations) {
  const auto reject = [](const std::string& mutate_from,
                         const std::string& mutate_to) {
    std::string text = sample_snapshot().to_json().dump();
    const auto pos = text.find(mutate_from);
    ASSERT_NE(pos, std::string::npos) << mutate_from;
    text.replace(pos, mutate_from.size(), mutate_to);
    EXPECT_THROW(core::TelemetrySnapshot::from_json(Json::parse(text)),
                 Error)
        << mutate_from << " -> " << mutate_to;
  };
  reject("ringent.telemetry/1", "ringent.telemetry/2");
  reject("rct_run_length", "no_such_histogram");
  reject("\"count\":100", "\"count\":99");       // disagrees with buckets
  reject("[[1,60],[2,30]", "[[2,60],[1,30]");    // unordered
  reject("\"sequence\":7", "\"sequence\":-7");
}

TEST(TelemetrySnapshot, ManifestEmbedsSummariesOnlyWhenPresent) {
  core::RunManifest manifest;
  manifest.experiment = "x";
  manifest.spec = "y";
  manifest.version = "v";
  const std::string bare = manifest.to_json().dump();
  EXPECT_EQ(bare.find("telemetry"), std::string::npos)
      << "empty telemetry must not change the manifest wire format";

  manifest.telemetry = sample_snapshot().summaries();
  const Json doc = manifest.to_json();
  ASSERT_TRUE(doc.contains("telemetry"));
  const auto reloaded = core::RunManifest::from_json(doc);
  ASSERT_EQ(reloaded.telemetry.size(), 1u);
  EXPECT_EQ(reloaded.telemetry[0].name, "rct_run_length");
  EXPECT_EQ(reloaded.telemetry[0].p50, 1u);
  EXPECT_EQ(reloaded.telemetry[0].p999, 3u);
  EXPECT_EQ(reloaded.to_json().dump(), doc.dump());
}

// --- sinks ------------------------------------------------------------------

TEST(TelemetrySink, AppendsJsonlWithPerSinkSequence) {
  const std::string path = "telemetry_test_sink.jsonl";
  std::remove(path.c_str());
  sim::TelemetrySink sink(path);

  core::append_telemetry_snapshot(sink, sample_snapshot());
  core::append_telemetry_snapshot(sink, sample_snapshot());

  const std::string content = read_file(path);
  std::size_t lines = 0;
  std::istringstream in(content);
  std::string line;
  std::vector<std::uint64_t> sequences;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ++lines;
    sequences.push_back(
        core::TelemetrySnapshot::from_json(Json::parse(line)).sequence);
  }
  EXPECT_EQ(lines, 2u);
  ASSERT_EQ(sequences.size(), 2u);
  EXPECT_EQ(sequences[0], 0u);  // the sink numbers its own snapshots
  EXPECT_EQ(sequences[1], 1u);
  std::remove(path.c_str());
}

TEST(TelemetrySink, PromSuffixSelectsPrometheusExposition) {
  const std::string path = "telemetry_test_sink.prom";
  std::remove(path.c_str());
  sim::TelemetrySink sink(path);
  core::append_telemetry_snapshot(sink, sample_snapshot());
  core::append_telemetry_snapshot(sink, sample_snapshot());
  const std::string content = read_file(path);
  EXPECT_NE(content.find("# TYPE ringent_rct_run_length histogram"),
            std::string::npos);
  EXPECT_NE(content.find("ringent_rct_run_length_count 100"),
            std::string::npos);
  // Scrape-file mode: the latest snapshot replaced the first.
  EXPECT_EQ(content.find("ringent_rct_run_length_count 100"),
            content.rfind("ringent_rct_run_length_count 100"));
  std::remove(path.c_str());
}

TEST(TelemetrySink, PathSwitchFlipsCollection) {
  // A scope with a sink collects histograms; closing it turns them off.
  EXPECT_FALSE(histo::enabled());
  {
    const sim::Scope scope(
        sim::Collect{.telemetry =
                         std::make_shared<sim::TelemetrySink>("unused.jsonl")},
        nullptr);
    EXPECT_TRUE(histo::enabled());
    EXPECT_TRUE(scope.collects().histograms);
  }
  EXPECT_FALSE(histo::enabled());
}

// --- prometheus exposition --------------------------------------------------

TEST(TelemetryPrometheus, CumulativeBucketsAndGauges) {
  const std::string text = core::prometheus_exposition(sample_snapshot());
  // Cumulative le-buckets over the bucket upper bounds: 60, 90, 100.
  EXPECT_NE(text.find("ringent_rct_run_length_bucket{le=\"1\"} 60"),
            std::string::npos);
  EXPECT_NE(text.find("ringent_rct_run_length_bucket{le=\"2\"} 90"),
            std::string::npos);
  EXPECT_NE(text.find("ringent_rct_run_length_bucket{le=\"3\"} 100"),
            std::string::npos);
  EXPECT_NE(text.find("ringent_rct_run_length_bucket{le=\"+Inf\"} 100"),
            std::string::npos);
  EXPECT_NE(text.find("ringent_rct_run_length_sum 150"), std::string::npos);
  EXPECT_NE(
      text.find(
          "ringent_stream_bias{stream=\"str8/quiet:raw\"} 0.5"),
      std::string::npos);
  EXPECT_NE(text.find("ringent_stream_autocorrelation{stream=\"str8/"
                      "quiet:raw\",lag=\"2\"} -0.5"),
            std::string::npos);
  EXPECT_NE(text.find("ringent_stream_markov_min_entropy"),
            std::string::npos);
}

// --- attached streams on the resilience path --------------------------------

TEST(TelemetryIntegration, AttackDriverPublishesStreamsAndHistograms) {
  const std::string path = "telemetry_test_attack.jsonl";
  std::remove(path.c_str());
  sim::ObserveSpec observe;
  observe.telemetry = path;
  const sim::Scope scope(sim::Collect::from(observe), nullptr);

  auto spec = core::AttackResilienceSpec::paper_default();
  spec.rings = {spec.rings.front()};
  spec.scenarios.resize(1);  // quiet baseline only
  spec.total_bits = 1500;
  spec.with_backup = false;
  core::ExperimentOptions options;
  options.jobs = 1;
  const auto result =
      core::run_attack_resilience(spec, core::cyclone_iii(), options);
  ASSERT_EQ(result.cells.size(), 1u);

  const std::string content = read_file(path);
  const core::TelemetrySnapshot last = last_line(content);
  EXPECT_EQ(last.experiment, "attack_resilience");
  EXPECT_GT(last.wall_ms, 0.0);
  // The health monitor feeds the run-length histogram while bits flow.
  bool saw_rct = false;
  for (const auto& h : last.histograms) {
    EXPECT_GT(h.count, 0u);
    if (h.name == "rct_run_length") saw_rct = true;
  }
  EXPECT_TRUE(saw_rct);
  // One cell publishes a raw and a monitored stream, sorted by label.
  ASSERT_EQ(last.streams.size(), 2u);
  EXPECT_NE(last.streams[0].label.find(":monitored"), std::string::npos);
  EXPECT_NE(last.streams[1].label.find(":raw"), std::string::npos);
  EXPECT_GT(last.streams[1].bits, 0u);
  // The driver's streams also reached the enclosing scope.
  EXPECT_EQ(scope.streams().size(), 2u);
  std::remove(path.c_str());
}

