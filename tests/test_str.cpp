// Tests for the timed STR model: period formula, evenly-spaced locking,
// burst persistence, length-independent jitter (paper Eq. 5), token
// conservation, and consistency with the untimed specification.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "analysis/autocorr.hpp"
#include "analysis/periods.hpp"
#include "common/require.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "ring/mode.hpp"
#include "ring/str.hpp"

using namespace ringent;
using namespace ringent::literals;
using ring::CharlieParams;
using ring::make_initial_state;
using ring::RingState;
using ring::Str;
using ring::StrConfig;
using ring::TokenPlacement;

namespace {

std::vector<std::unique_ptr<noise::NoiseSource>> gaussian_noise(
    std::size_t stages, double sigma_ps, std::uint64_t seed) {
  std::vector<std::unique_ptr<noise::NoiseSource>> out;
  for (std::size_t i = 0; i < stages; ++i) {
    out.push_back(std::make_unique<noise::GaussianNoise>(
        sigma_ps, derive_seed(seed, "stage", i)));
  }
  return out;
}

StrConfig basic_config(std::size_t stages) {
  StrConfig config;
  config.stages = stages;
  config.charlie = CharlieParams::symmetric(260_ps, 120_ps);
  return config;
}

std::vector<Time> transition_times(const sim::SignalTrace& trace) {
  std::vector<Time> out;
  for (const auto& tr : trace.transitions()) out.push_back(tr.at);
  return out;
}

}  // namespace

TEST(Str, NoiseFreePeriodMatchesFormulaForNtEqNb) {
  // T = 2 L (Ds + Dch) / NT = 4 * 380 ps for NT = NB.
  for (std::size_t stages : {4u, 8u, 16u, 32u, 64u}) {
    StrConfig config = basic_config(stages);
    Str str(config,
            make_initial_state(stages, stages / 2, TokenPlacement::evenly_spread),
            {});
    str.start();
    str.run_until(Time::from_ns(100.0));
    const auto periods = analysis::periods_ps(str.output());
    ASSERT_GE(periods.size(), 10u) << "stages=" << stages;
    EXPECT_NEAR(periods.back(), 4.0 * 380.0, 0.1) << "stages=" << stages;
    EXPECT_EQ(str.nominal_period(), Time::from_ps(1520.0));
  }
}

TEST(Str, RoutingDelayAddsToEveryHop) {
  StrConfig config = basic_config(8);
  config.routing_per_hop = 20_ps;
  Str str(config,
          make_initial_state(8, 4, TokenPlacement::evenly_spread), {});
  str.start();
  str.run_until(Time::from_ns(100.0));
  EXPECT_NEAR(analysis::periods_ps(str.output()).back(), 4.0 * 400.0, 0.1);
}

TEST(Str, TokenCountConservedDuringTimedRun) {
  StrConfig config = basic_config(16);
  Str str(config,
          make_initial_state(16, 6, TokenPlacement::clustered),
          gaussian_noise(16, 2.0, 9));
  str.start();
  for (int chunk = 0; chunk < 50; ++chunk) {
    str.run_until(str.now() + 1_ns);
    EXPECT_EQ(ring::token_count(str.state()), 6u);
  }
  EXPECT_GT(str.events_fired(), 800u);
}

TEST(Str, TimedModelOnlyVisitsStatesReachableByTheSpec) {
  // Every state snapshot between events must satisfy the untimed invariants.
  StrConfig config = basic_config(8);
  Str str(config,
          make_initial_state(8, 4, TokenPlacement::clustered),
          gaussian_noise(8, 10.0, 3));
  str.start();
  for (int step = 0; step < 4000; ++step) {
    if (str.run_events(1) == 0) break;
    const RingState& s = str.state();
    ASSERT_EQ(ring::token_count(s), 4u);
    // Adjacent enabled stages would mean broken semantics.
    for (std::size_t i = 0; i < s.size(); ++i) {
      ASSERT_FALSE(ring::stage_enabled(s, i) &&
                   ring::stage_enabled(s, (i + 1) % s.size()));
    }
  }
}

TEST(Str, EvenlySpacedLockingFromClusteredStart) {
  // With the calibrated (strong) Charlie effect, a clustered pattern must
  // spread out: late-run intervals become uniform (paper Fig. 5, bottom).
  StrConfig config = basic_config(16);
  Str str(config,
          make_initial_state(16, 8, TokenPlacement::clustered), {});
  str.output().set_record_from(Time::from_ns(200.0));  // after locking
  str.start();
  str.run_until(Time::from_ns(800.0));
  const auto analysis =
      ring::classify_mode(transition_times(str.output()));
  EXPECT_EQ(analysis.mode, ring::OscillationMode::evenly_spaced);
  EXPECT_LT(analysis.interval_cv, 0.02);
}

TEST(Str, BurstModePersistsWithoutCharlieEffect) {
  // Dch ~ 0 removes the token repulsion; a clustered pattern stays a burst
  // (paper Fig. 5, top).
  StrConfig config = basic_config(16);
  config.charlie = CharlieParams::symmetric(260_ps, Time::from_ps(1.0));
  Str str(config,
          make_initial_state(16, 4, TokenPlacement::clustered), {});
  str.output().set_record_from(Time::from_ns(400.0));
  str.start();
  str.run_until(Time::from_us(2.0));
  const auto analysis =
      ring::classify_mode(transition_times(str.output()));
  EXPECT_EQ(analysis.mode, ring::OscillationMode::burst);
  EXPECT_GT(analysis.interval_cv, 0.4);
}

TEST(Str, NtNotEqualNbStillOscillates) {
  StrConfig config = basic_config(15);
  Str str(config,
          make_initial_state(15, 4, TokenPlacement::evenly_spread), {});
  str.start();
  str.run_until(Time::from_ns(500.0));
  EXPECT_GE(analysis::periods_ps(str.output()).size(), 20u);
}

TEST(Str, FrequencySymmetricInTokensAndBubbles) {
  // Token/bubble duality: NT and NB swap roles; frequency must match.
  const auto mean_period = [](std::size_t tokens) {
    StrConfig config = basic_config(32);
    Str str(config,
            make_initial_state(32, tokens, TokenPlacement::evenly_spread), {});
    str.output().set_record_from(Time::from_ns(300.0));
    str.start();
    str.run_until(Time::from_us(3.0));
    return describe(analysis::periods_ps(str.output())).mean();
  };
  EXPECT_NEAR(mean_period(6), mean_period(26), mean_period(6) * 0.01);
  EXPECT_NEAR(mean_period(12), mean_period(20), mean_period(12) * 0.01);
}

// The headline STR property (paper Eq. 5 / Fig. 12): period jitter does not
// grow with the ring length.
class StrJitterFlat : public ::testing::TestWithParam<std::size_t> {};

TEST_P(StrJitterFlat, PeriodJitterIndependentOfLength) {
  const std::size_t stages = GetParam();
  const double sigma_g = 2.0;
  StrConfig config = basic_config(stages);
  Str str(config,
          make_initial_state(stages, stages / 2, TokenPlacement::evenly_spread),
          gaussian_noise(stages, sigma_g, 400 + stages));
  str.output().set_record_from(Time::from_ns(300.0));
  str.start();

  const std::size_t want = 12000;
  str.run_until(Time::from_ns(300.0) +
                   str.nominal_period() * static_cast<std::int64_t>(want + 8));
  const auto periods = analysis::periods_ps(str.output());
  ASSERT_GE(periods.size(), want) << "stages=" << stages;

  const double sigma_p = describe(periods).stddev();
  // sqrt(2) sigma_g = 2.83 ps plus a bounded regulation residual; the value
  // must sit in the paper's 2-4 ps band and, critically, NOT scale with L
  // (an IRO of 96 stages would show 27.7 ps here).
  EXPECT_GT(sigma_p, 2.5) << "stages=" << stages;
  EXPECT_LT(sigma_p, 4.2) << "stages=" << stages;
}

INSTANTIATE_TEST_SUITE_P(StageSweep, StrJitterFlat,
                         ::testing::Values(4, 8, 16, 24, 48, 64, 96));

TEST(Str, SuccessivePeriodsAreAnticorrelated) {
  // The Charlie restoring force pulls a long period back: lag-1
  // autocorrelation must be clearly negative (model prediction beyond the
  // paper, see DESIGN.md §4).
  StrConfig config = basic_config(32);
  Str str(config,
          make_initial_state(32, 16, TokenPlacement::evenly_spread),
          gaussian_noise(32, 2.0, 21));
  str.output().set_record_from(Time::from_ns(300.0));
  str.start();
  str.run_until(Time::from_us(40.0));
  const auto periods = analysis::periods_ps(str.output());
  ASSERT_GE(periods.size(), 10000u);
  EXPECT_LT(analysis::autocorrelation(periods, 1), -0.1);
}

TEST(Str, MismatchAveragesAcrossAllStages) {
  // Static per-stage mismatch shifts the mean period by the *average* factor
  // (the Table II mechanism), noise-free run.
  const double bump = 1.10;  // +10% on one stage out of 8
  StrConfig config = basic_config(8);
  config.stage_factors = {bump, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0};
  Str str(config,
          make_initial_state(8, 4, TokenPlacement::evenly_spread), {});
  str.output().set_record_from(Time::from_ns(100.0));
  str.start();
  str.run_until(Time::from_us(2.0));
  const double mean = describe(analysis::periods_ps(str.output())).mean();
  const double expected = 4.0 * 380.0 * (1.0 + 0.10 / 8.0);
  EXPECT_NEAR(mean, expected, expected * 0.004);
}

TEST(Str, TraceAllStagesRecordsEveryOutput) {
  StrConfig config = basic_config(8);
  config.trace_all_stages = true;
  Str str(config,
          make_initial_state(8, 4, TokenPlacement::evenly_spread), {});
  str.start();
  str.run_until(Time::from_ns(50.0));
  ASSERT_EQ(str.stage_traces().size(), 8u);
  for (const auto& trace : str.stage_traces()) {
    EXPECT_GE(trace.transitions().size(), 10u);
  }
  // Firing count equals the total recorded transitions.
  std::size_t total = 0;
  for (const auto& trace : str.stage_traces()) {
    total += trace.transitions().size();
  }
  EXPECT_EQ(total, str.events_fired());
}

TEST(Str, ObserveStageSelectsTrace) {
  StrConfig config = basic_config(8);
  config.observe_stage = 5;
  Str str(config,
          make_initial_state(8, 4, TokenPlacement::evenly_spread), {});
  str.start();
  str.run_until(Time::from_ns(30.0));
  EXPECT_GE(str.output().transitions().size(), 10u);
}

TEST(Str, Preconditions) {
  StrConfig config = basic_config(8);

  // Wrong state size.
  EXPECT_THROW(
      Str(config, make_initial_state(6, 2, TokenPlacement::clustered),
          {}),
      PreconditionError);

  // Dead pattern (all zeros -> no tokens).
  EXPECT_THROW(Str(config, RingState(8, false), {}),
               PreconditionError);

  // Wrong noise vector size.
  EXPECT_THROW(
      Str(config, make_initial_state(8, 4, TokenPlacement::clustered),
          gaussian_noise(3, 1.0, 1)),
      PreconditionError);

  config.observe_stage = 8;
  EXPECT_THROW(
      Str(config, make_initial_state(8, 4, TokenPlacement::clustered),
          {}),
      PreconditionError);

  config.observe_stage = 0;
  Str ok(config, make_initial_state(8, 4, TokenPlacement::clustered),
         {});
  ok.start();
  EXPECT_THROW(ok.start(), PreconditionError);
}
