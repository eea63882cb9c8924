// Golden-baseline regression tests: every experiment driver runs a small,
// fixed spec/seed configuration and must reproduce checked-in values
// EXACTLY (EXPECT_EQ on doubles, no tolerance).
//
// The simulator's determinism contract makes this well-defined: integer
// femtosecond arithmetic, hierarchical per-task seeding and index-sharded
// parallelism mean the numbers are bit-identical at any worker count — the
// tests pin jobs = 2 so the pool path itself is under the baseline. A
// failure here means observable behaviour changed; if the change is
// intended, regenerate the constants:
//
//   RINGENT_DUMP_GOLDEN=1 ./tests/test_golden --gtest_also_run_disabled_tests
//
// prints ready-to-paste initializer lists instead of asserting.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/experiments.hpp"
#include "core/export.hpp"
#include "sim/metrics.hpp"
#include "sim/observe.hpp"

using namespace ringent;
using namespace ringent::core;
namespace metrics = ringent::sim::metrics;

namespace {

bool dump_mode() {
  const char* flag = std::getenv("RINGENT_DUMP_GOLDEN");
  return flag != nullptr && flag[0] != '\0';
}

/// Compare a vector of observables against the checked-in baseline — or,
/// in dump mode, print the baseline initializer list to paste into the
/// test. Values print at %.17g, enough digits to round-trip a double.
void check_golden(const char* name, const std::vector<double>& actual,
                  const std::vector<double>& expected) {
  if (dump_mode()) {
    std::printf("// golden %s\n{\n", name);
    for (double v : actual) std::printf("    %.17g,\n", v);
    std::printf("}\n");
    return;
  }
  ASSERT_EQ(actual.size(), expected.size()) << name;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i], expected[i]) << name << " observable " << i;
  }
}

ExperimentOptions golden_options() {
  ExperimentOptions options;
  options.jobs = 2;  // exercise the pool; results are jobs-invariant
  return options;
}

}  // namespace

TEST(Golden, VoltageSweep) {
  const auto out = run_voltage_sweep(
      VoltageSweepSpec{RingSpec::iro(3), {1.1, 1.2, 1.3}, 30}, cyclone_iii(),
      golden_options());
  std::vector<double> actual = {out.f_nominal_mhz, out.excursion};
  for (const auto& p : out.points) {
    actual.push_back(p.frequency_mhz);
    actual.push_back(p.normalized);
  }
  check_golden("VoltageSweep", actual,
               {
                   653.91757156928986,
                   0.24552002687940958,
                   573.64752866365529,
                   0.87724745993137909,
                   653.91757156928986,
                   1,
                   734.19738841226558,
                   1.1227674868107886,
               });
}

TEST(Golden, TemperatureSweep) {
  const auto out = run_temperature_sweep(
      TemperatureSweepSpec{RingSpec::str(4), {15.0, 25.0, 35.0}, 30},
      cyclone_iii(), golden_options());
  std::vector<double> actual = {out.f_nominal_mhz, out.excursion};
  for (const auto& p : out.points) {
    actual.push_back(p.frequency_mhz);
    actual.push_back(p.normalized);
  }
  check_golden("TemperatureSweep", actual,
               {
                   652.88914120603408,
                   0.0080017956667429169,
                   655.51171166456334,
                   1.0040168694698839,
                   652.88914120603408,
                   1,
                   650.28742616359739,
                   0.99601507380314103,
               });
}

TEST(Golden, ProcessVariability) {
  const auto out = run_process_variability(
      ProcessVariabilitySpec{RingSpec::iro(5), 3, 30}, cyclone_iii(),
      golden_options());
  std::vector<double> actual = {out.mean_mhz, out.sigma_rel};
  for (const auto& b : out.boards) actual.push_back(b.frequency_mhz);
  check_golden("ProcessVariability", actual,
               {
                   374.34821297029828,
                   0.004660769906175863,
                   372.43159096011493,
                   375.84418158466707,
                   374.76886636611283,
               });
}

TEST(Golden, JitterVsStages) {
  JitterSweepSpec sweep;
  sweep.kind = RingKind::iro;
  sweep.stage_counts = {3, 5};
  sweep.divider_n = 4;
  sweep.mes_periods = 20;
  const auto points =
      run_jitter_vs_stages(sweep, cyclone_iii(), golden_options());
  std::vector<double> actual;
  for (const auto& p : points) {
    actual.push_back(static_cast<double>(p.stages));
    actual.push_back(p.mean_period_ps);
    actual.push_back(p.sigma_p_ps);
    actual.push_back(p.sigma_g_ps);
    actual.push_back(p.sigma_direct_ps);
  }
  check_golden("JitterVsStages", actual,
               {
                   3,
                   1529.7656249999998,
                   6.5707185379730859,
                   2.6824846102467261,
                   4.6131050501103275,
                   5,
                   2659.921875,
                   7.2168783648703219,
                   2.2821773229381921,
                   6.1470414548030909,
               });
}

TEST(Golden, ModeMap) {
  ModeMapSpec map_spec;
  map_spec.stages = 8;
  map_spec.token_counts = {2, 4};
  map_spec.placement = ring::TokenPlacement::clustered;
  map_spec.periods = 120;
  const auto entries = run_mode_map(map_spec, cyclone_iii(), golden_options());
  std::vector<double> actual;
  for (const auto& e : entries) {
    actual.push_back(static_cast<double>(e.tokens));
    actual.push_back(static_cast<double>(e.mode));
    actual.push_back(e.interval_cv);
    actual.push_back(e.frequency_mhz);
  }
  check_golden("ModeMap", actual,
               {
                   2,
                   0,
                   0.0060939916286091829,
                   388.74247231524225,
                   4,
                   0,
                   0.0033373091966935123,
                   592.60076630091658,
               });
}

TEST(Golden, Restart) {
  const auto out = run_restart_experiment(RestartSpec{RingSpec::iro(5), 8, 16},
                                          cyclone_iii(), golden_options());
  std::vector<double> actual = {out.control_identical ? 1.0 : 0.0,
                                out.diffusion_per_edge_ps, out.fit_r2};
  for (const auto& p : out.points) {
    actual.push_back(static_cast<double>(p.edge));
    actual.push_back(p.spread_ps);
  }
  check_golden("Restart", actual,
               {
                   1,
                   6.6579908056351176,
                   0.83438138510987381,
                   1,
                   4.8825803189940888,
                   2,
                   7.1924685199668499,
                   3,
                   9.048309309320846,
                   4,
                   12.270141281640512,
                   5,
                   17.83465661039487,
                   6,
                   14.794568105510137,
                   7,
                   19.385305841576514,
                   8,
                   21.283745138602566,
                   9,
                   21.533315698752357,
                   10,
                   25.311847467427246,
                   11,
                   26.370518392096599,
                   12,
                   25.50536467938792,
                   13,
                   21.524439483328617,
                   14,
                   22.072872820582482,
                   15,
                   23.568753733566741,
                   16,
                   22.669471368449205,
               });
}

TEST(Golden, CoherentAcrossBoards) {
  const auto out = run_coherent_across_boards(
      CoherentSweepSpec{RingSpec::iro(3), 0.05, 2, 500}, cyclone_iii(),
      golden_options());
  std::vector<double> actual = {out.design_detune, out.detune_mean,
                                out.detune_sigma, out.worst_deviation};
  for (const auto& row : out.boards) {
    actual.push_back(row.half_beat_samples);
    actual.push_back(row.implied_detune);
    actual.push_back(static_cast<double>(row.bits));
    actual.push_back(row.lsb_bias);
  }
  check_golden("CoherentAcrossBoards", actual,
               {
                   0.050000000000000003,
                   0.045833333333333337,
                   0.0058925565098878994,
                   0.0083333333333333384,
                   12,
                   0.041666666666666664,
                   41,
                   0.5,
                   10,
                   0.050000000000000003,
                   49,
                   0.5,
               });
}

TEST(Golden, DeterministicJitter) {
  DeterministicJitterSpec sweep;
  sweep.kind = RingKind::iro;
  sweep.stage_counts = {3, 5};
  sweep.periods = 256;
  const auto points =
      run_deterministic_jitter(sweep, cyclone_iii(), golden_options());
  std::vector<double> actual;
  for (const auto& p : points) {
    actual.push_back(static_cast<double>(p.stages));
    actual.push_back(p.mean_period_ps);
    actual.push_back(p.tone_ps);
    actual.push_back(p.tone_relative);
    actual.push_back(p.random_ps);
  }
  check_golden("DeterministicJitter", actual,
               {
                   3,
                   1543.2224140625008,
                   102.20096879245483,
                   0.066225689739311727,
                   4.7159864381144807,
                   5,
                   2665.6612343749998,
                   146.3831624190716,
                   0.054914390670273261,
                   5.9129608866180243,
               });
}

TEST(Golden, EntropyMap) {
  // Same small spec the registry smoke entry uses: both topologies, one
  // 5-stage ring (valid for IRO and STR alike), two sampling periods, a
  // 512-bit stream per cell plus a 4x32 restart matrix. Runs with metrics
  // on so the manifest counter totals are pinned alongside the physics —
  // the entropy_map driver gets the same exact-count treatment as the
  // other drivers in ManifestEventCountsAreExact.
  const sim::Scope scope(sim::Collect{.metrics = true}, nullptr);

  EntropyMapSpec spec;
  spec.stage_counts = {5};
  spec.sampling_periods = {Time::from_ns(250.0), Time::from_ns(500.0)};
  spec.bits_per_cell = 512;
  spec.restart_rows = 4;
  spec.restart_cols = 32;
  const auto out = run_entropy_map(spec, cyclone_iii(), golden_options());

  const auto manifest = last_run_manifest();

  ASSERT_EQ(out.cells.size(), 4u);  // {iro, str} x {5 stages} x {2 periods}
  std::vector<double> actual = {out.floor_min_entropy};
  for (const auto& cell : out.cells) {
    actual.push_back(cell.estimate.h_mcv);
    actual.push_back(cell.estimate.h_collision);
    actual.push_back(cell.estimate.h_markov);
    actual.push_back(cell.estimate.h_t_tuple);
    actual.push_back(cell.estimate.h_lrs);
    actual.push_back(cell.estimate.min_entropy);
    actual.push_back(cell.restart.validated);
  }
  check_golden("EntropyMap", actual,
               {
                   0.0023436831891101616,
                   0.78018750938945958,
                   0.0023436831891101616,
                   0.055965198652507181,
                   0.050146733110447345,
                   0.10998019465633711,
                   0.0023436831891101616,
                   0,
                   0.81431841225142931,
                   0.024646284705944356,
                   0.10983945785081023,
                   0.15199675975340474,
                   0.20928693536527948,
                   0.024646284705944356,
                   0,
                   0.83423981037554329,
                   1,
                   0.52513854239764757,
                   0.2785975066830077,
                   0.21964783322005649,
                   0.21964783322005649,
                   0.15490503088769089,
                   0.82923026873648598,
                   0.60900006357687131,
                   0.7230784701853521,
                   0.32628200729352885,
                   0.31040617753911021,
                   0.31040617753911021,
                   0.2802301264720729,
               });

  ASSERT_TRUE(manifest.has_value());
  EXPECT_EQ(manifest->experiment, "entropy_map");
  EXPECT_EQ(manifest->tasks, 4u);
  EXPECT_EQ(manifest->jobs, 2u);
  EXPECT_EQ(manifest->metrics.counter(metrics::Counter::pool_tasks), 4u);
  check_golden(
      "EntropyMapManifestEventCounts",
      {
          static_cast<double>(
              manifest->metrics.counter(metrics::Counter::events_scheduled)),
          static_cast<double>(
              manifest->metrics.counter(metrics::Counter::events_fired)),
          static_cast<double>(
              manifest->metrics.counter(metrics::Counter::heap_pops)),
      },
      {
          11212830,
          11212800,
          11212800,
      });
}

TEST(Golden, ManifestEventCountsAreExact) {
  // The acceptance hook for run manifests: with metrics on, the manifest a
  // driver emits carries event totals that are themselves golden — the
  // simulation is deterministic, so scheduling/firing/queue counts are as
  // reproducible as the physics observables above.
  const sim::Scope scope(sim::Collect{.metrics = true}, nullptr);

  JitterSweepSpec sweep;
  sweep.kind = RingKind::iro;
  sweep.stage_counts = {3, 5};
  sweep.divider_n = 4;
  sweep.mes_periods = 20;
  (void)run_jitter_vs_stages(sweep, cyclone_iii(), golden_options());

  const auto manifest = last_run_manifest();
  const metrics::Snapshot snap = scope.metrics();

  ASSERT_TRUE(manifest.has_value());
  EXPECT_EQ(manifest->experiment, "jitter_vs_stages_iro");
  EXPECT_EQ(manifest->tasks, 2u);
  EXPECT_EQ(manifest->jobs, 2u);

  // Manifest counters must equal the scope's totals (nothing else ran).
  for (std::size_t i = 0; i < metrics::counter_count; ++i) {
    EXPECT_EQ(manifest->metrics.counters[i], snap.counters[i])
        << metrics::counter_name(static_cast<metrics::Counter>(i));
  }

  // Internal consistency that holds for ANY workload.
  EXPECT_EQ(manifest->metrics.counter(metrics::Counter::heap_pushes),
            manifest->metrics.counter(metrics::Counter::events_scheduled));
  EXPECT_GE(manifest->metrics.counter(metrics::Counter::events_scheduled),
            manifest->metrics.counter(metrics::Counter::events_fired));
  EXPECT_EQ(manifest->metrics.counter(metrics::Counter::charlie_evaluations),
            0u);  // IRO sweep: no STR in the kernel
  EXPECT_EQ(manifest->metrics.counter(metrics::Counter::pool_tasks), 2u);

  // And the exact totals for this fixed spec/seed.
  check_golden(
      "ManifestEventCounts",
      {
          static_cast<double>(
              manifest->metrics.counter(metrics::Counter::events_scheduled)),
          static_cast<double>(
              manifest->metrics.counter(metrics::Counter::events_fired)),
          static_cast<double>(
              manifest->metrics.counter(metrics::Counter::heap_pops)),
      },
      {
          6562,
          6560,
          6560,
      });
}
