// The experiment registry is the CLI's dispatch surface: every driver must
// be present exactly once, lookups must be total, run_spec must hand back
// the driver's own run manifest, observed in a scope of its own, and every
// entry must render its result the same way at any worker count.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/json.hpp"
#include "core/export.hpp"
#include "core/registry.hpp"
#include "core/render.hpp"
#include "sim/metrics.hpp"
#include "sim/observe.hpp"
#include "sim/telemetry.hpp"

using namespace ringent;
using namespace ringent::core;

TEST(Registry, CoversEveryDriverExactlyOnce) {
  const auto& registry = experiment_registry();
  EXPECT_EQ(registry.size(), 11u);

  std::set<std::string> names;
  for (const auto& entry : registry) {
    EXPECT_FALSE(entry.name.empty());
    EXPECT_FALSE(entry.summary.empty());
    EXPECT_FALSE(entry.source.empty());
    EXPECT_TRUE(static_cast<bool>(entry.render)) << entry.name;
    // The JSON-spec surface (campaign orchestration) is total: every
    // experiment declares a schema, committed defaults, a validating
    // canonicalizer and a run_spec entry point.
    EXPECT_EQ(entry.spec_schema.rfind("ringent.spec.", 0), 0u) << entry.name;
    EXPECT_TRUE(static_cast<bool>(entry.default_spec)) << entry.name;
    EXPECT_TRUE(static_cast<bool>(entry.canonicalize)) << entry.name;
    EXPECT_TRUE(static_cast<bool>(entry.run_spec)) << entry.name;
    EXPECT_TRUE(names.insert(entry.name).second)
        << "duplicate name: " << entry.name;
  }
  // The full roster, including the attack-resilience pipeline, the 90B
  // entropy map and the conditioned-streaming entropy service.
  for (const char* name :
       {"voltage_sweep", "temperature_sweep", "process_variability",
        "jitter_vs_stages", "mode_map", "restart", "coherent_boards",
        "deterministic_jitter", "attack_resilience", "entropy_map",
        "entropy_service"}) {
    EXPECT_TRUE(names.count(name)) << name;
  }
}

TEST(Registry, FindExperimentIsTotal) {
  const ExperimentDescriptor* found = find_experiment("attack_resilience");
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->name, "attack_resilience");
  EXPECT_EQ(find_experiment("no-such-experiment"), nullptr);
  EXPECT_EQ(find_experiment(""), nullptr);
}

TEST(Registry, RunSpecReturnsTheDriversManifestAndRestoresMetricsState) {
  // No scope is current going in; run_spec must observe the driver in a
  // scope of its own (so a manifest exists), then leave none behind.
  ASSERT_EQ(sim::Scope::current(), nullptr);
  const ExperimentDescriptor* exp = find_experiment("restart");
  ASSERT_NE(exp, nullptr);

  ExperimentOptions options;
  options.jobs = 2;
  const RunManifest manifest =
      exp->run_spec(exp->default_spec(), cyclone_iii(), options);
  EXPECT_EQ(sim::Scope::current(), nullptr);
  EXPECT_FALSE(sim::metrics::enabled());

  EXPECT_EQ(manifest.experiment, "restart");
  EXPECT_EQ(manifest.jobs, 2u);
  EXPECT_GT(manifest.tasks, 0u);
  EXPECT_EQ(manifest.seed, options.seed);
  EXPECT_GT(manifest.metrics.counter(sim::metrics::Counter::events_fired),
            0u);
}

TEST(Registry, EveryDriverStreamsATelemetrySnapshot) {
  // With a sink configured, each of the 11 drivers must append exactly one
  // "ringent.telemetry/1" line under its own experiment slug and embed the
  // histogram summaries in its manifest.
  const std::string path = "registry_telemetry_sink.jsonl";
  std::remove(path.c_str());
  ExperimentOptions options;
  options.jobs = 1;
  std::vector<std::pair<std::string, RunManifest>> runs;
  {
    sim::ObserveSpec observe;
    observe.telemetry = path;
    const sim::Scope scope(sim::Collect::from(observe), nullptr);
    ASSERT_TRUE(sim::telemetry::enabled());
    for (const auto& entry : experiment_registry()) {
      runs.emplace_back(entry.name, entry.run_spec(entry.default_spec(),
                                                   cyclone_iii(), options));
    }
  }
  EXPECT_FALSE(sim::telemetry::enabled());

  // The sink file is one parseable snapshot line per driver run, in order.
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  std::vector<TelemetrySnapshot> snapshots;
  while (std::getline(in, line)) {
    if (!line.empty()) {
      snapshots.push_back(TelemetrySnapshot::from_json(Json::parse(line)));
    }
  }
  in.close();
  std::remove(path.c_str());
  ASSERT_EQ(snapshots.size(), runs.size());
  std::set<std::string> experiments;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const auto& [name, manifest] = runs[i];
    const TelemetrySnapshot& snapshot = snapshots[i];
    // Some drivers suffix the slug with the ring kind (jitter_vs_stages_iro).
    EXPECT_EQ(snapshot.experiment.rfind(name, 0), 0u)
        << snapshot.experiment << " vs " << name;
    EXPECT_EQ(snapshot.sequence, i);
    EXPECT_FALSE(snapshot.histograms.empty()) << name;
    EXPECT_EQ(manifest.telemetry.size(), snapshot.histograms.size()) << name;
    experiments.insert(snapshot.experiment);
  }
  EXPECT_EQ(experiments.size(), runs.size());  // one distinct slug per driver
}

TEST(Registry, EveryEntryRenders) {
  // Each entry's default spec renders a non-empty table and headline, and
  // the text is the same at any worker count (it reads no clock and no
  // job count). The manifest render returns is the run_spec manifest.
  for (const auto& entry : experiment_registry()) {
    ExperimentOptions options;
    options.jobs = 1;
    const RenderedRun one =
        entry.render(entry.default_spec(), cyclone_iii(), options);
    options.jobs = 4;
    const RenderedRun four =
        entry.render(entry.default_spec(), cyclone_iii(), options);
    EXPECT_GT(one.rendering.table.rows(), 0u) << entry.name;
    EXPECT_FALSE(one.rendering.headlines.empty()) << entry.name;
    EXPECT_EQ(one.rendering.text(), four.rendering.text()) << entry.name;
    EXPECT_EQ(one.manifest.experiment.rfind(entry.name, 0), 0u) << entry.name;
    EXPECT_EQ(four.manifest.jobs, 4u) << entry.name;
  }
}

TEST(Registry, JitterSweepRendersTheLawOfItsRingKind) {
  // An IRO sweep is read against Eq. 4 (sqrt-law), an STR sweep against
  // Eq. 5 (flat in the length); the free-exponent fit is shown for both.
  const std::vector<JitterPoint> points = {{4, 1500.0, 3.0, 1.06, 3.4},
                                           {16, 2000.0, 6.0, 1.06, 3.5}};
  const auto headlines = [&](RingKind kind) {
    JitterSweepSpec spec;
    spec.kind = kind;
    spec.stage_counts = {4, 16};
    std::string text;
    for (const auto& line : render(spec, points, cyclone_iii()).headlines) {
      text += line + "\n";
    }
    return text;
  };
  const std::string iro = headlines(RingKind::iro);
  const std::string str = headlines(RingKind::str);
  EXPECT_NE(iro.find("sqrt-law fit"), std::string::npos) << iro;
  EXPECT_EQ(iro.find("flatness"), std::string::npos) << iro;
  EXPECT_NE(str.find("flatness: truth max-min over the stage counts = 0.10 ps"),
            std::string::npos)
      << str;
  EXPECT_EQ(str.find("sqrt-law fit"), std::string::npos) << str;
  EXPECT_NE(iro.find("free-exponent fit"), std::string::npos) << iro;
  EXPECT_NE(str.find("free-exponent fit"), std::string::npos) << str;

  // The per-gate column inverts the same law: Eq. 7 for an IRO, Eq. 5
  // (sigma_g = sigma_p/sqrt(2), whatever the length) for an STR, both in
  // its header and in the driver's values.
  for (const RingKind kind : {RingKind::iro, RingKind::str}) {
    JitterSweepSpec spec;
    spec.kind = kind;
    spec.stage_counts = {4, 16};
    spec.divider_n = 4;
    spec.mes_periods = 20;
    const auto measured = run_jitter_vs_stages(spec, cyclone_iii());
    const std::string table = render(spec, measured, cyclone_iii()).text();
    const bool iro_kind = kind == RingKind::iro;
    EXPECT_EQ(table.find("sigma_g = sigma_p/sqrt(2k)") != std::string::npos,
              iro_kind)
        << table;
    EXPECT_EQ(table.find("sigma_g = sigma_p/sqrt(2) ") != std::string::npos,
              !iro_kind)
        << table;
    for (const auto& p : measured) {
      const double law = iro_kind ? 2.0 * static_cast<double>(p.stages) : 2.0;
      EXPECT_DOUBLE_EQ(p.sigma_g_ps, p.sigma_p_ps / std::sqrt(law))
          << p.stages;
      EXPECT_NE(table.find(fmt_ps(p.sigma_g_ps)), std::string::npos) << table;
    }
  }
}
