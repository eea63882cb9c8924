// Tests for the observability layer: hand-counted ring metrics, phase
// timers, observation scopes (nesting, threads, concurrent runs), the
// --observe grammar, JSON values, run manifests (schema + round trip) and
// Chrome-trace span files.
//
// Every test observes through a scope of its own (sim/observe.hpp), so a
// failing assertion cannot leak collection into later tests.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/json.hpp"
#include "common/require.hpp"
#include "core/calibration.hpp"
#include "core/experiments.hpp"
#include "core/export.hpp"
#include "core/registry.hpp"
#include "noise/jitter.hpp"
#include "ring/iro.hpp"
#include "ring/str.hpp"
#include "sim/metrics.hpp"
#include "sim/observe.hpp"
#include "sim/parallel.hpp"
#include "sim/trace.hpp"

using namespace ringent;
using namespace ringent::literals;
namespace metrics = ringent::sim::metrics;
namespace trace = ringent::sim::trace;

namespace {

/// A scope collecting metrics, current for the test that opens it.
class MetricsGuard : public sim::Scope {
 public:
  MetricsGuard() : sim::Scope(sim::Collect{.metrics = true}, nullptr) {}
};

/// Points RINGENT_OUT_DIR at a fresh temp directory; restores on exit.
class OutDirGuard {
 public:
  OutDirGuard() {
    char pattern[] = "/tmp/ringent_obs_XXXXXX";
    const char* dir = mkdtemp(pattern);
    RINGENT_REQUIRE(dir != nullptr, "mkdtemp failed");
    dir_ = dir;
    const char* previous = std::getenv("RINGENT_OUT_DIR");
    if (previous != nullptr) previous_ = previous;
    setenv("RINGENT_OUT_DIR", dir_.c_str(), 1);
  }
  ~OutDirGuard() {
    if (previous_.empty()) {
      unsetenv("RINGENT_OUT_DIR");
    } else {
      setenv("RINGENT_OUT_DIR", previous_.c_str(), 1);
    }
  }
  const std::string& dir() const { return dir_; }

 private:
  std::string dir_;
  std::string previous_;
};

std::string read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  RINGENT_REQUIRE(f != nullptr, "cannot open " + path);
  std::string out;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

}  // namespace

// --- counters: hand-counted event totals ------------------------------------

TEST(Metrics, IroCountersMatchHandCount) {
  // A noise-free IRO is a single circulating event: start() schedules one,
  // every fire schedules exactly one successor. After run_events(N) the
  // totals are forced: N fired, N+1 scheduled (the last one still pending),
  // and every schedule is one heap push and every fire one heap pop.
  const MetricsGuard guard;
  ring::IroConfig config;
  config.stages = 3;
  config.lut_delay = 250_ps;
  ring::Iro iro(config, {});
  iro.start();

  constexpr std::uint64_t kEvents = 1000;
  iro.run_events(kEvents);

  const metrics::Snapshot snap = guard.metrics();
  EXPECT_EQ(snap.counter(metrics::Counter::events_fired), kEvents);
  EXPECT_EQ(snap.counter(metrics::Counter::events_scheduled), kEvents + 1);
  EXPECT_EQ(snap.counter(metrics::Counter::heap_pushes), kEvents + 1);
  EXPECT_EQ(snap.counter(metrics::Counter::heap_pops), kEvents);
  EXPECT_EQ(snap.counter(metrics::Counter::calendar_pushes), 0u);
  EXPECT_EQ(snap.counter(metrics::Counter::charlie_evaluations), 0u);
  EXPECT_EQ(snap.counter(metrics::Counter::events_cancelled), 0u);
  EXPECT_EQ(iro.events_fired(), kEvents);  // agrees with the ring's own
}

TEST(Metrics, StrCountsCharlieEvaluationsPerSchedule) {
  // Every event an STR schedules prices its firing through the Charlie
  // model exactly once, and every eligibility probe is counted.
  const MetricsGuard guard;
  ring::StrConfig config;
  config.stages = 8;
  config.charlie = ring::CharlieParams::symmetric(260_ps, 123_ps);
  ring::Str str(config,
                ring::make_initial_state(8, 4,
                                         ring::TokenPlacement::evenly_spread),
                {});
  str.start();
  str.run_events(2000);

  const metrics::Snapshot snap = guard.metrics();
  EXPECT_EQ(snap.counter(metrics::Counter::charlie_evaluations),
            snap.counter(metrics::Counter::events_scheduled));
  EXPECT_GE(snap.counter(metrics::Counter::token_collision_checks),
            snap.counter(metrics::Counter::charlie_evaluations));
  EXPECT_EQ(snap.counter(metrics::Counter::events_fired), 2000u);
}

// --- counters: a ring publishes once per run call ---------------------------
//
// A ring accumulates its counts and publishes them when a run call (or
// start()) returns, however it returns. A snapshot taken between ring calls
// is therefore exact.

TEST(Metrics, StartSchedulesAreVisibleBeforeTheFirstRun) {
  const MetricsGuard guard;
  ring::StrConfig config;
  config.stages = 8;
  config.charlie = ring::CharlieParams::symmetric(260_ps, 123_ps);
  ring::Str str(config,
                ring::make_initial_state(8, 4,
                                         ring::TokenPlacement::evenly_spread),
                {});
  str.start();
  // start() probes every stage once and schedules the four enabled ones
  // (NT = NB = 4, evenly spread: every token faces a bubble).
  const metrics::Snapshot snap = guard.metrics();
  EXPECT_EQ(snap.counter(metrics::Counter::token_collision_checks), 8u);
  EXPECT_EQ(snap.counter(metrics::Counter::charlie_evaluations), 4u);
  EXPECT_EQ(snap.counter(metrics::Counter::events_scheduled), 4u);
  EXPECT_EQ(snap.counter(metrics::Counter::heap_pushes), 4u);
  EXPECT_EQ(snap.counter(metrics::Counter::events_fired), 0u);

  // An IRO's start() is a bare schedule, with no model count after it.
  ring::IroConfig iro_config;
  iro_config.stages = 3;
  ring::Iro iro(iro_config, {});
  iro.start();
  EXPECT_EQ(guard.metrics().counter(metrics::Counter::events_scheduled),
            5u);
}

TEST(Metrics, SnapshotIsExactBetweenShortRuns) {
  // A noise-free IRO keeps exactly one event in flight: after any run,
  // scheduled = fired + 1. Check it after each of several short runs.
  const MetricsGuard guard;
  ring::IroConfig config;
  config.stages = 5;
  config.lut_delay = 250_ps;
  ring::Iro iro(config, {});
  iro.start();
  for (int step = 1; step <= 5; ++step) {
    iro.run_until(Time::from_ns(3.0 * step));
    const metrics::Snapshot snap = guard.metrics();
    const std::uint64_t fired = iro.events_fired();
    ASSERT_GT(fired, 0u);
    EXPECT_EQ(snap.counter(metrics::Counter::events_fired), fired) << step;
    EXPECT_EQ(snap.counter(metrics::Counter::heap_pops), fired) << step;
    EXPECT_EQ(snap.counter(metrics::Counter::events_scheduled), fired + 1)
        << step;
    EXPECT_EQ(snap.counter(metrics::Counter::heap_pushes), fired + 1) << step;
  }
}

namespace {

/// A noise source for a one-stage IRO that draws zeros and can open a
/// scope collecting nothing (so metrics are off when the run publishes) or
/// throw on a chosen block refill. The ring draws its noise 64 samples at a
/// time (noise::BlockSampler): refill k happens on the hop drawn by fire
/// 64 (k - 1), start() drawing the first.
class ProbeNoise final : public noise::NoiseSource {
 public:
  double sample_ps() override { return 0.0; }
  void fill_ps(double* out, std::size_t n) override {
    ++fills;
    if (fills == disable_at) {
      quiet = std::make_unique<sim::Scope>(sim::Collect{}, nullptr);
    }
    if (fills == throw_at) throw std::runtime_error("probe failure");
    for (std::size_t i = 0; i < n; ++i) out[i] = 0.0;
  }
  std::uint64_t fills = 0;
  std::uint64_t disable_at = 0;
  std::uint64_t throw_at = 0;
  std::unique_ptr<sim::Scope> quiet;  ///< current from disable_at on
};

/// A one-stage IRO driven by a ProbeNoise the caller configures.
struct ProbeRing {
  ProbeRing() {
    auto source = std::make_unique<ProbeNoise>();
    probe = source.get();
    std::vector<std::unique_ptr<noise::NoiseSource>> bank;
    bank.push_back(std::move(source));
    ring::IroConfig config;
    config.stages = 1;
    iro = std::make_unique<ring::Iro>(config, std::move(bank));
  }
  ProbeNoise* probe = nullptr;
  std::unique_ptr<ring::Iro> iro;
};

}  // namespace

TEST(Metrics, ProcessCountsPublishWithTheRunCall) {
  // The STR's own counts (eligibility probes, Charlie evaluations) publish
  // with its schedule and fire totals: start() probes all 8 stages, every
  // fire probes its two neighbours.
  const MetricsGuard guard;
  ring::StrConfig config;
  config.stages = 8;
  config.charlie = ring::CharlieParams::symmetric(260_ps, 123_ps);
  ring::Str str(config,
                ring::make_initial_state(8, 4,
                                         ring::TokenPlacement::evenly_spread),
                {});
  str.start();
  for (std::uint64_t runs = 1; runs <= 3; ++runs) {
    str.run_events(100);
    const metrics::Snapshot snap = guard.metrics();
    EXPECT_EQ(snap.counter(metrics::Counter::token_collision_checks),
              8 + 200 * runs);
    EXPECT_EQ(snap.counter(metrics::Counter::events_fired), 100 * runs);
    EXPECT_EQ(snap.counter(metrics::Counter::charlie_evaluations),
              snap.counter(metrics::Counter::events_scheduled));
    // NT = NB = 4 evenly spread: four firings always in flight.
    EXPECT_EQ(snap.counter(metrics::Counter::events_scheduled),
              100 * runs + 4);
  }
}

TEST(Metrics, DisabledAtPublishTimePublishesNothing) {
  const MetricsGuard guard;
  ProbeRing ring;
  ring.iro->start();  // published: metrics are on
  // Metrics go off mid-run (the refill on fire 64 opens a scope that
  // collects nothing): the whole run call publishes nothing.
  ring.probe->disable_at = 2;
  ring.iro->run_events(100);
  ring.probe->quiet.reset();
  metrics::Snapshot snap = guard.metrics();
  EXPECT_EQ(snap.counter(metrics::Counter::events_scheduled), 1u);
  EXPECT_EQ(snap.counter(metrics::Counter::events_fired), 0u);

  // Back on: the next run publishes its own counts only; the dropped ones
  // do not come back.
  ring.iro->run_events(20);
  snap = guard.metrics();
  EXPECT_EQ(snap.counter(metrics::Counter::events_scheduled), 21u);
  EXPECT_EQ(snap.counter(metrics::Counter::events_fired), 20u);
  EXPECT_EQ(ring.iro->events_fired(), 120u);
}

TEST(Metrics, ThrowingFirePublishesWhatItFired) {
  const MetricsGuard guard;
  ProbeRing ring;
  ring.iro->start();
  ring.probe->throw_at = 2;
  EXPECT_THROW(ring.iro->run_events(100), std::runtime_error);
  // Sixty-four events fired (the last one threw drawing its successor's
  // hop): the start schedule plus 63 successors.
  const metrics::Snapshot snap = guard.metrics();
  EXPECT_EQ(snap.counter(metrics::Counter::events_fired), 64u);
  EXPECT_EQ(snap.counter(metrics::Counter::heap_pops), 64u);
  EXPECT_EQ(snap.counter(metrics::Counter::events_scheduled), 64u);
  EXPECT_EQ(snap.counter(metrics::Counter::heap_pushes), 64u);
}

TEST(Metrics, EntropyMapManifestCountersAreJobsInvariant) {
  // Each task's rings publish into the task's own child scope; the
  // manifest's totals must not depend on how cells were sharded.
  const core::ExperimentDescriptor* entry =
      core::find_experiment("entropy_map");
  ASSERT_NE(entry, nullptr);
  // The default spec's four cells (IRO and STR, two sampling periods),
  // with a shorter sampled stream to keep the test quick.
  Json spec = entry->canonicalize(entry->default_spec());
  spec.set("bits_per_cell", Json(std::int64_t(128)));
  std::vector<metrics::Snapshot> runs;
  for (const std::size_t jobs : {1u, 2u, 8u}) {
    core::ExperimentOptions options;
    options.seed = 20120312;
    options.jobs = jobs;
    runs.push_back(entry->run_spec(spec, core::cyclone_iii(), options).metrics);
  }
  ASSERT_GT(runs[0].counter(metrics::Counter::events_fired), 0u);
  for (std::size_t r = 1; r < runs.size(); ++r) {
    for (std::size_t i = 0; i < metrics::counter_count; ++i) {
      EXPECT_EQ(runs[r].counters[i], runs[0].counters[i])
          << "run " << r << " counter "
          << metrics::counter_name(static_cast<metrics::Counter>(i));
    }
  }
}

TEST(Metrics, DisabledCountersStayZero) {
  const sim::Scope scope(sim::Collect{}, nullptr);  // collects nothing
  EXPECT_FALSE(metrics::enabled());
  ring::IroConfig config;
  config.stages = 3;
  ring::Iro iro(config, {});
  iro.start();
  iro.run_events(500);
  sim::parallel_for_each(4, 2, [](std::size_t) {});
  { const metrics::ScopedPhase phase("ignored"); }
  const metrics::Snapshot snap = scope.metrics();
  for (std::size_t i = 0; i < metrics::counter_count; ++i) {
    EXPECT_EQ(snap.counters[i], 0u) << metrics::counter_name(
        static_cast<metrics::Counter>(i));
  }
  EXPECT_TRUE(snap.phases.empty());
}

TEST(Metrics, PoolTasksCountsEveryIndex) {
  const MetricsGuard guard;
  std::atomic<int> ran{0};
  sim::parallel_for_each(13, 2, [&](std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 13);
  EXPECT_EQ(guard.metrics().counter(metrics::Counter::pool_tasks), 13u);
}

TEST(Metrics, ScopedPhaseAccumulates) {
  const MetricsGuard guard;
  for (int i = 0; i < 3; ++i) {
    const metrics::ScopedPhase phase("unit-test-phase");
    // Burn a little CPU so the timer has something nonzero to record.
    volatile double x = 1.0;
    for (int j = 0; j < 20000; ++j) x = x * 1.0000001;
  }
  const metrics::Snapshot snap = guard.metrics();
  ASSERT_EQ(snap.phases.size(), 1u);
  EXPECT_EQ(snap.phases[0].name, "unit-test-phase");
  EXPECT_EQ(snap.phases[0].calls, 3u);
  EXPECT_GT(snap.phases[0].wall_ms, 0.0);
  EXPECT_GE(snap.phases[0].cpu_ms, 0.0);
}

TEST(Metrics, ClosingAScopeAddsCountersAndPhasesToItsParent) {
  const MetricsGuard guard;
  metrics::bump(metrics::Counter::events_fired, 7);
  { const metrics::ScopedPhase phase("p"); }
  {
    const sim::Scope run;  // a child: collects what `guard` collects
    metrics::bump(metrics::Counter::events_fired, 5);
    { const metrics::ScopedPhase phase("q"); }
    { const metrics::ScopedPhase phase("p"); }
    // The child sees its own run only, phases sorted by name.
    const metrics::Snapshot own = run.metrics();
    EXPECT_EQ(own.counter(metrics::Counter::events_fired), 5u);
    ASSERT_EQ(own.phases.size(), 2u);
    EXPECT_EQ(own.phases[0].name, "p");
    EXPECT_EQ(own.phases[1].name, "q");
    for (const auto& phase : own.phases) EXPECT_EQ(phase.calls, 1u);
  }
  const metrics::Snapshot total = guard.metrics();
  EXPECT_EQ(total.counter(metrics::Counter::events_fired), 12u);
  ASSERT_EQ(total.phases.size(), 2u);
  EXPECT_EQ(total.phases[0].calls, 2u);  // p
  EXPECT_EQ(total.phases[1].calls, 1u);  // q
}

// --- JSON value --------------------------------------------------------------

TEST(Json, DumpParseRoundTripPreservesExactIntegers) {
  Json root = Json::object();
  root.set("big", std::uint64_t{9007199254740993});  // not representable in double
  root.set("neg", std::int64_t{-42});
  root.set("pi", 3.25);
  root.set("s", "a\"b\\c\n\t");
  Json arr = Json::array();
  arr.push_back(true);
  arr.push_back(Json());
  root.set("arr", std::move(arr));

  const Json reparsed = Json::parse(root.dump(2));
  EXPECT_EQ(reparsed.at("big").as_integer(), 9007199254740993);
  EXPECT_EQ(reparsed.at("neg").as_integer(), -42);
  EXPECT_DOUBLE_EQ(reparsed.at("pi").as_number(), 3.25);
  EXPECT_EQ(reparsed.at("s").as_string(), "a\"b\\c\n\t");
  EXPECT_TRUE(reparsed.at("arr").at(std::size_t{0}).as_boolean());
  EXPECT_TRUE(reparsed.at("arr").at(std::size_t{1}).is_null());
  // Object order is preserved (manifests diff cleanly).
  EXPECT_EQ(reparsed.items().front().first, "big");
}

TEST(Json, ParseRejectsMalformedInput) {
  EXPECT_THROW(Json::parse(""), Error);
  EXPECT_THROW(Json::parse("{\"a\":1,}"), Error);
  EXPECT_THROW(Json::parse("[1,2] garbage"), Error);
  EXPECT_THROW(Json::parse("{\"a\" 1}"), Error);
  EXPECT_THROW(Json::parse("\"unterminated"), Error);
}

// --- run manifests -----------------------------------------------------------

TEST(Manifest, DriverWritesValidatableManifest) {
  const OutDirGuard out_dir;
  const MetricsGuard guard;

  core::ExperimentOptions options;
  options.jobs = 1;
  const auto result = core::run_voltage_sweep(
      core::VoltageSweepSpec{core::RingSpec::iro(3), {1.1, 1.2}, 20},
      core::cyclone_iii(), options);
  ASSERT_EQ(result.points.size(), 2u);

  // The manifest the driver just built must agree with the enclosing
  // scope: nothing else ran under it.
  const auto manifest = core::last_run_manifest();
  ASSERT_TRUE(manifest.has_value());
  EXPECT_EQ(manifest->experiment, "voltage_sweep");
  EXPECT_EQ(manifest->spec, "IRO 3C");
  EXPECT_EQ(manifest->seed, options.seed);
  EXPECT_EQ(manifest->jobs, 1u);
  EXPECT_EQ(manifest->tasks, 2u);
  EXPECT_GT(manifest->wall_ms, 0.0);
  EXPECT_EQ(manifest->version, core::version_string());

  const metrics::Snapshot snap = guard.metrics();
  EXPECT_GT(manifest->metrics.counter(metrics::Counter::events_fired), 0u);
  for (std::size_t i = 0; i < metrics::counter_count; ++i) {
    EXPECT_EQ(manifest->metrics.counters[i], snap.counters[i])
        << metrics::counter_name(static_cast<metrics::Counter>(i));
  }

  // And the file on disk round-trips through parse + schema check.
  const std::string path = out_dir.dir() + "/voltage_sweep.manifest.json";
  const Json parsed = Json::parse(read_file(path));
  EXPECT_EQ(parsed.at("schema").as_string(), core::RunManifest::schema);
  const core::RunManifest reloaded = core::RunManifest::from_json(parsed);
  EXPECT_EQ(reloaded.experiment, manifest->experiment);
  EXPECT_EQ(reloaded.seed, manifest->seed);
  for (std::size_t i = 0; i < metrics::counter_count; ++i) {
    EXPECT_EQ(reloaded.metrics.counters[i], manifest->metrics.counters[i]);
  }
  ASSERT_EQ(reloaded.metrics.phases.size(), manifest->metrics.phases.size());
}

TEST(Manifest, ArtifactNameKeepsRunsOfOneExperimentApart) {
  const OutDirGuard out_dir;
  const MetricsGuard guard;

  core::ExperimentOptions options;
  options.jobs = 1;
  const core::VoltageSweepSpec sweep{core::RingSpec::iro(3), {1.1, 1.2}, 20};
  for (const char* artifact : {"plan-1-voltage_sweep", "plan-2-voltage_sweep"}) {
    options.artifact = artifact;
    (void)core::run_voltage_sweep(sweep, core::cyclone_iii(), options);
  }
  for (const char* artifact : {"plan-1-voltage_sweep", "plan-2-voltage_sweep"}) {
    const Json parsed = Json::parse(
        read_file(out_dir.dir() + "/" + artifact + ".manifest.json"));
    // The file is named apart; the manifest still names its experiment.
    EXPECT_EQ(core::RunManifest::from_json(parsed).experiment, "voltage_sweep");
  }
  EXPECT_FALSE(std::filesystem::exists(out_dir.dir() +
                                       "/voltage_sweep.manifest.json"));
}

TEST(Manifest, FromJsonRejectsWrongSchemaAndMissingKeys) {
  Json bogus = Json::object();
  bogus.set("schema", "ringent.run-manifest/999");
  EXPECT_THROW(core::RunManifest::from_json(bogus), Error);

  core::RunManifest manifest;
  manifest.experiment = "x";
  Json json = manifest.to_json();
  // Knock out a required key: the schema check must notice.
  Json incomplete = Json::object();
  for (const auto& [key, value] : json.items()) {
    if (key != "counters") incomplete.set(key, value);
  }
  EXPECT_THROW(core::RunManifest::from_json(incomplete), Error);
}

TEST(Manifest, NoManifestWhenMetricsDisabled) {
  const OutDirGuard out_dir;
  core::ExperimentOptions options;
  options.jobs = 1;
  const core::VoltageSweepSpec spec{core::RingSpec::iro(3), {1.2}, 10};
  // Neither with no scope at all nor under one that collects nothing.
  (void)core::run_voltage_sweep(spec, core::cyclone_iii(), options);
  {
    const sim::Scope scope(sim::Collect{}, nullptr);
    (void)core::run_voltage_sweep(spec, core::cyclone_iii(), options);
  }
  std::FILE* f =
      std::fopen((out_dir.dir() + "/voltage_sweep.manifest.json").c_str(),
                 "rb");
  EXPECT_EQ(f, nullptr);
  if (f != nullptr) std::fclose(f);
}

TEST(Manifest, FailedWriteNeverChangesTheReturnedManifest) {
  const core::ExperimentDescriptor* entry = core::find_experiment("restart");
  ASSERT_NE(entry, nullptr);
  core::ExperimentOptions options;
  options.jobs = 1;
  const core::RunManifest reference =
      entry->run_spec(entry->default_spec(), core::cyclone_iii(), options);
  ASSERT_GT(reference.metrics.counter(metrics::Counter::events_fired), 0u);

  // Poison this thread's last manifest, then fail the file write.
  const core::ExperimentDescriptor* voltage =
      core::find_experiment("voltage_sweep");
  (void)voltage->run_spec(voltage->default_spec(), core::cyclone_iii(),
                          options);
  const OutDirGuard out_dir;
  setenv("RINGENT_OUT_DIR", (out_dir.dir() + "/missing/dir").c_str(), 1);
  const core::RunManifest failed =
      entry->run_spec(entry->default_spec(), core::cyclone_iii(), options);
  EXPECT_EQ(failed.experiment, "restart");
  EXPECT_EQ(failed.metrics.counters, reference.metrics.counters);
  EXPECT_EQ(failed.tasks, reference.tasks);
  // The thread's last manifest is the run's too, written or not.
  ASSERT_TRUE(core::last_run_manifest().has_value());
  EXPECT_EQ(core::last_run_manifest()->experiment, "restart");
}

// --- observation scopes ------------------------------------------------------

namespace {

/// The fields of a manifest that do not depend on timing or scheduling.
struct Counted {
  metrics::Counts counters{};
  std::size_t tasks = 0;
  std::vector<std::pair<std::string, std::uint64_t>> phase_calls;

  static Counted of(const core::RunManifest& m) {
    Counted out{m.metrics.counters, m.tasks, {}};
    for (const auto& phase : m.metrics.phases) {
      out.phase_calls.emplace_back(phase.name, phase.calls);
    }
    return out;
  }
  bool operator==(const Counted&) const = default;
};

core::RunManifest run_default(const char* name, std::size_t jobs) {
  const core::ExperimentDescriptor* entry = core::find_experiment(name);
  RINGENT_REQUIRE(entry != nullptr, "unknown experiment");
  core::ExperimentOptions options;
  options.jobs = jobs;
  return entry->run_spec(entry->default_spec(), core::cyclone_iii(), options);
}

}  // namespace

TEST(Scope, ConcurrentRunSpecCallsObserveOnlyTheirOwnRuns) {
  // Two threads run different experiments at once, each at jobs 2; each
  // manifest must read exactly what a run on its own reads.
  const Counted voltage = Counted::of(run_default("voltage_sweep", 2));
  const Counted restart = Counted::of(run_default("restart", 2));
  ASSERT_NE(voltage.counters, restart.counters);
  for (int round = 0; round < 3; ++round) {
    core::RunManifest a, b;
    std::thread left([&] { a = run_default("voltage_sweep", 2); });
    std::thread right([&] { b = run_default("restart", 2); });
    left.join();
    right.join();
    EXPECT_TRUE(Counted::of(a) == voltage) << "round " << round;
    EXPECT_TRUE(Counted::of(b) == restart) << "round " << round;
  }
}

TEST(Scope, ConcurrentAttackRunsSeeOnlyTheirOwnStreams) {
  // Two attack_resilience runs with telemetry on, each on its own thread
  // under its own scope, over different rings: each scope's stream labels
  // must name its own ring only.
  const auto* entry = core::find_experiment("attack_resilience");
  ASSERT_NE(entry, nullptr);
  const auto paper = core::AttackResilienceSpec::paper_default();
  ASSERT_GE(paper.rings.size(), 2u);
  const OutDirGuard out_dir;
  std::vector<std::string> labels[2];
  std::thread runs[2];
  for (std::size_t t = 0; t < 2; ++t) {
    core::AttackResilienceSpec spec = paper;
    spec.rings = {paper.rings[t]};
    spec.scenarios = {paper.scenarios.at(0)};
    spec.total_bits = 1500;
    spec.with_backup = false;
    runs[t] = std::thread([&, t, json = spec.to_json()] {
      sim::ObserveSpec observe;
      observe.telemetry =
          out_dir.dir() + "/attack" + std::to_string(t) + ".jsonl";
      const sim::Scope scope(sim::Collect::from(observe), nullptr);
      core::ExperimentOptions options;
      options.jobs = 2;
      (void)entry->run_spec(json, core::cyclone_iii(), options);
      for (const auto& stats : scope.streams()) {
        labels[t].push_back(stats.label);
      }
    });
  }
  for (auto& run : runs) run.join();
  for (std::size_t t = 0; t < 2; ++t) {
    EXPECT_EQ(labels[t].size(), 2u) << t;  // :monitored and :raw
    for (const auto& label : labels[t]) {
      EXPECT_EQ(label.rfind(paper.rings[t].name() + "/", 0), 0u)
          << "run " << t << " saw " << label;
    }
  }
}

TEST(Scope, RunSpecWithoutOutDirWritesNoFile) {
  // With RINGENT_OUT_DIR unset, run_spec writes nothing anywhere: run it
  // from an empty working directory and check it stays empty.
  const OutDirGuard scratch;
  unsetenv("RINGENT_OUT_DIR");
  const std::filesystem::path cwd = std::filesystem::current_path();
  std::filesystem::current_path(scratch.dir());
  (void)run_default("restart", 1);
  const bool empty = std::filesystem::is_empty(scratch.dir());
  std::filesystem::current_path(cwd);
  EXPECT_TRUE(empty);
}

TEST(Scope, ParentTotalIsTheSumOfItsDrivers) {
  // A front end opens one scope and runs several drivers under it: when
  // they close, the parent holds exactly the sum of their histograms.
  const OutDirGuard out_dir;
  const std::string path = out_dir.dir() + "/drivers.jsonl";
  core::TelemetrySnapshot parent;
  {
    sim::ObserveSpec observe;
    observe.telemetry = path;
    const sim::Scope scope(sim::Collect::from(observe), nullptr);
    core::ExperimentOptions run;
    run.jobs = 2;
    (void)core::run_voltage_sweep(
        core::VoltageSweepSpec{core::RingSpec::iro(3), {1.1, 1.2}, 10},
        core::cyclone_iii(), run);
    (void)core::run_restart_experiment(
        core::RestartSpec{core::RingSpec::iro(5), 8, 16},
        core::cyclone_iii(), run);
    parent = core::TelemetrySnapshot::of("parent", scope, 0.0);
  }
  std::vector<core::TelemetrySnapshot> lines;
  std::istringstream in(read_file(path));
  for (std::string line; std::getline(in, line);) {
    lines.push_back(core::TelemetrySnapshot::from_json(Json::parse(line)));
  }
  ASSERT_EQ(lines.size(), 2u);  // one snapshot per driver
  EXPECT_FALSE(parent.histograms.empty());
  for (const auto& total : parent.histograms) {
    std::uint64_t count = 0, sum = 0;
    for (std::size_t d = 0; d < 2; ++d) {
      for (const auto& h : lines[d].histograms) {
        if (h.name != total.name) continue;
        count += h.count;
        sum += h.sum;
      }
    }
    EXPECT_EQ(total.count, count) << total.name;
    EXPECT_EQ(total.sum, sum) << total.name;
  }
}

// --- the --observe grammar ---------------------------------------------------

TEST(Observe, ParsesEveryItemAndPrintsCanonically) {
  std::vector<std::string> errors;
  const sim::ObserveSpec spec = sim::parse_observe(
      "telemetry=t.prom,metrics,trace=a=b.json", &errors);
  EXPECT_TRUE(errors.empty());
  EXPECT_TRUE(spec.metrics);
  EXPECT_EQ(spec.trace, "a=b.json");  // only the first '=' splits
  EXPECT_EQ(spec.telemetry, "t.prom");
  EXPECT_EQ(sim::to_string(spec), "metrics,trace=a=b.json,telemetry=t.prom");
  EXPECT_EQ(sim::parse_observe(sim::to_string(spec)), spec);
  EXPECT_EQ(sim::to_string(sim::parse_observe("")), "");
}

TEST(Observe, ReportsUnknownKeysEmptyValuesAndRepeats) {
  const auto errors_of = [](const char* text) {
    std::vector<std::string> errors;
    (void)sim::parse_observe(text, &errors);
    return errors.size();
  };
  EXPECT_EQ(errors_of("metrics"), 0u);
  EXPECT_EQ(errors_of("histograms"), 1u);   // unknown key
  EXPECT_EQ(errors_of("trace="), 1u);       // empty value
  EXPECT_EQ(errors_of("telemetry"), 1u);    // missing value
  EXPECT_EQ(errors_of("metrics=1"), 1u);    // value on a flag
  EXPECT_EQ(errors_of("metrics,,trace=x"), 1u);  // empty item
  EXPECT_EQ(errors_of("metrics,"), 1u);     // trailing comma
  EXPECT_EQ(errors_of("trace=a,trace=b"), 1u);
  // A reported item is ignored; the rest still applies.
  const sim::ObserveSpec spec = sim::parse_observe("bogus,metrics,trace=");
  EXPECT_TRUE(spec.metrics);
  EXPECT_TRUE(spec.trace.empty());
}

// --- trace spans -------------------------------------------------------------

namespace {

/// A scope that traces into a fresh file at `path`.
sim::Collect traced(const std::string& path) {
  sim::ObserveSpec observe;
  observe.trace = path;
  return sim::Collect::from(observe);
}

}  // namespace

TEST(Trace, FileIsWellFormedAndBalanced) {
  const OutDirGuard out_dir;
  const std::string path = out_dir.dir() + "/trace.json";
  {
    const sim::Scope scope(traced(path), nullptr);
    ASSERT_TRUE(trace::enabled());
    EXPECT_EQ(scope.collects().trace->path(), path);
    const trace::Span outer("outer", "bench");
    // Spans from pool workers land on their own tids.
    sim::parallel_for_each(6, 3, [&](std::size_t i) {
      const trace::Span inner("task " + std::to_string(i), "axis");
    });
  }
  EXPECT_FALSE(trace::enabled());

  const Json doc = Json::parse(read_file(path));
  const Json& events = doc.at("traceEvents");
  ASSERT_TRUE(events.is_array());
  ASSERT_GE(events.size(), 2u);  // outer + at least the inline spans

  // Chrome-trace invariants: every event has the required keys, timestamps
  // are non-negative, and B/E nest and balance per thread.
  std::vector<std::pair<std::int64_t, int>> depth;  // tid -> open spans
  const auto depth_of = [&](std::int64_t tid) -> int& {
    for (auto& [t, d] : depth) {
      if (t == tid) return d;
    }
    depth.emplace_back(tid, 0);
    return depth.back().second;
  };
  bool saw_outer = false;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Json& event = events.at(i);
    const std::string& ph = event.at("ph").as_string();
    const std::int64_t tid = event.at("tid").as_integer();
    EXPECT_GE(event.at("ts").as_number(), 0.0);
    EXPECT_FALSE(event.at("name").as_string().empty());
    EXPECT_FALSE(event.at("cat").as_string().empty());
    if (event.at("name").as_string() == "outer") saw_outer = true;
    int& d = depth_of(tid);
    if (ph == "B") {
      ++d;
    } else {
      ASSERT_EQ(ph, "E");
      --d;
      ASSERT_GE(d, 0) << "E without matching B on tid " << tid;
    }
  }
  EXPECT_TRUE(saw_outer);
  for (const auto& [tid, d] : depth) {
    EXPECT_EQ(d, 0) << "unbalanced spans on tid " << tid;
  }
}

TEST(Trace, StopBalancesSpansStillOpen) {
  // Crash-safe contract: close() synthesizes an E event for every span
  // still open, so a trace ended mid-measurement still loads in Perfetto
  // with balanced nesting.
  const OutDirGuard out_dir;
  const std::string path = out_dir.dir() + "/open_spans.json";
  {
    const sim::Scope scope(traced(path), nullptr);
    auto open_span = std::make_unique<trace::Span>("still-open", "bench");
    { const trace::Span closed("closed", "bench"); }
    scope.collects().trace->close();
    open_span.reset();  // ends after close(): must be a no-op
    { const trace::Span late("late", "bench"); }  // so must a new span
  }

  const Json doc = Json::parse(read_file(path));
  const Json& events = doc.at("traceEvents");
  int balance = 0;
  std::size_t still_open_events = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Json& event = events.at(i);
    if (event.at("name").as_string() == "still-open") ++still_open_events;
    EXPECT_NE(event.at("name").as_string(), "late");
    balance += event.at("ph").as_string() == "B" ? 1 : -1;
  }
  EXPECT_EQ(balance, 0);
  EXPECT_EQ(still_open_events, 2u);  // the real B plus the synthesized E
}

TEST(Trace, PartialFileIsReadableMidSession) {
  // Every event is appended and flushed as it happens: a reader (or a crash)
  // that sees the file mid-session finds the header and all completed spans,
  // not an empty buffer waiting for close().
  const OutDirGuard out_dir;
  const std::string path = out_dir.dir() + "/partial.json";
  std::string partial;
  {
    const sim::Scope scope(traced(path), nullptr);
    { const trace::Span span("early", "bench"); }
    partial = read_file(path);
  }

  EXPECT_NE(partial.find("traceEvents"), std::string::npos);
  EXPECT_NE(partial.find("\"early\""), std::string::npos);
  EXPECT_NE(partial.find("\"B\""), std::string::npos);
  EXPECT_NE(partial.find("\"E\""), std::string::npos);
  // The closing bracket only lands when the file closes.
  EXPECT_EQ(partial.find("]}"), std::string::npos);
  EXPECT_NE(read_file(path).find("]}"), std::string::npos);
}

TEST(Trace, SpansAreFreeWhenInactive) {
  ASSERT_FALSE(trace::enabled());
  { const trace::Span span("ignored", "bench"); }
  const sim::Scope untraced(sim::Collect{.metrics = true}, nullptr);
  EXPECT_FALSE(trace::enabled());
  { const trace::Span span("ignored", "bench"); }
}

