// Stress and failure-injection tests: the simulator and ring models must
// hold their invariants under extreme noise, extreme configurations, and
// hostile operating points — and fail loudly (exceptions), never silently,
// when driven outside their contracts.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "analysis/periods.hpp"
#include "common/require.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "core/experiments.hpp"
#include "core/oscillator.hpp"
#include "fpga/supply.hpp"
#include "measure/frequency.hpp"
#include "ring/iro.hpp"
#include "noise/jitter.hpp"
#include "ring/str.hpp"

using namespace ringent;
using namespace ringent::literals;

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

}  // namespace

TEST(Stress, StrSurvivesNoiseComparableToTheStageDelay) {
  // sigma = 100 ps against a 260 ps static delay: the causality floor in the
  // Charlie model must keep the ring live and token-conserving.
  ring::StrConfig config;
  config.stages = 16;
  config.charlie = ring::CharlieParams::symmetric(260_ps, 123_ps);
  ring::Str str(config,
                ring::make_initial_state(16, 8,
                                         ring::TokenPlacement::evenly_spread),
                gaussian_noise(16, 100.0, 41));
  str.start();
  for (int chunk = 0; chunk < 40; ++chunk) {
    str.run_until(str.now() + Time::from_ns(100.0));
    ASSERT_EQ(ring::token_count(str.state()), 8u);
    ASSERT_FALSE(str.idle());
  }
  // Output edges must be strictly monotone despite the huge noise.
  const auto edges = str.output().rising_edges();
  ASSERT_GT(edges.size(), 100u);
  for (std::size_t i = 1; i < edges.size(); ++i) {
    ASSERT_GT(edges[i], edges[i - 1]);
  }
}

TEST(Stress, MinimalAndTokenSaturatedRings) {
  // L = 3 with NT = 2 (the smallest legal STR) and a nearly token-saturated
  // ring both oscillate indefinitely.
  for (auto [stages, tokens] : {std::pair<std::size_t, std::size_t>{3, 2},
                                {9, 8},
                                {97, 96}}) {
    ring::StrConfig config;
    config.stages = stages;
    config.charlie = ring::CharlieParams::symmetric(260_ps, 123_ps);
    ring::Str str(config,
                  ring::make_initial_state(stages, tokens,
                                           ring::TokenPlacement::clustered),
                  {});
    str.start();
    str.run_until(Time::from_us(1.0));
    EXPECT_GT(str.events_fired(), 100u) << stages << "/" << tokens;
    EXPECT_EQ(ring::token_count(str.state()), tokens);
  }
}

TEST(Stress, KernelHandlesManyProcessesAndDeepQueues) {
  // A 512-stage STR with 256 evenly spread tokens keeps up to 256 firings
  // pending in its event heap at once: every one must fire, in order, with
  // the token count conserved.
  ring::StrConfig config;
  config.stages = 512;
  config.charlie = ring::CharlieParams::symmetric(260_ps, 120_ps);
  ring::Str str(config,
                ring::make_initial_state(512, 256,
                                         ring::TokenPlacement::evenly_spread),
                gaussian_noise(512, 2.0, 500));
  str.start();
  EXPECT_EQ(str.run_events(300000), 300000u);
  EXPECT_EQ(str.events_fired(), 300000u);
  EXPECT_EQ(ring::token_count(str.state()), 256u);
  EXPECT_FALSE(str.idle());
}

TEST(Stress, OscillatorAtTheVoltageExtremes) {
  // 1.0 V stretches every delay by ~2x; the facade's run-time estimation
  // must still deliver the requested sample count.
  fpga::Supply supply(1.2);
  supply.set_level(1.0);
  core::BuildOptions build;
  build.supply = &supply;
  core::Oscillator osc =
      core::Oscillator::build(core::RingSpec::str(96), core::cyclone_iii(),
                              build);
  osc.run_periods(500);
  EXPECT_GE(analysis::periods_ps(osc.output()).size(), 500u);

  // Driving the supply below the LUT pivot must throw, not wedge.
  fpga::Supply dead(1.2);
  dead.set_level(0.3);
  core::BuildOptions bad;
  bad.supply = &dead;
  EXPECT_THROW(core::Oscillator::build(core::RingSpec::iro(5),
                                       core::cyclone_iii(), bad),
               PreconditionError);
}

TEST(Stress, ViolentSupplyModulationKeepsCausality) {
  // 300 mV square modulation at 10 MHz — delays jump by ~2x at every edge.
  fpga::Supply supply(1.2);
  supply.set_modulation(fpga::Modulation::square(0.3, 1e7));
  core::BuildOptions build;
  build.supply = &supply;
  core::Oscillator osc = core::Oscillator::build(
      core::RingSpec::str(24), core::cyclone_iii(), build);
  osc.run_periods(2000);
  const auto edges = osc.output().rising_edges();
  ASSERT_GE(edges.size(), 2000u);
  for (std::size_t i = 1; i < edges.size(); ++i) {
    ASSERT_GT(edges[i], edges[i - 1]);
  }
}

TEST(Stress, HugeMismatchStillOscillates) {
  // 30% per-stage spread: way beyond any real process, the ring must still
  // run and conserve tokens (the Charlie curve absorbs the asymmetry).
  Xoshiro256 rng(77);
  ring::StrConfig config;
  config.stages = 24;
  config.charlie = ring::CharlieParams::symmetric(260_ps, 123_ps);
  config.stage_factors.resize(24);
  for (auto& f : config.stage_factors) f = rng.uniform(0.7, 1.3);
  ring::Str str(config,
                ring::make_initial_state(24, 12,
                                         ring::TokenPlacement::evenly_spread),
                {});
  str.start();
  str.run_until(Time::from_us(5.0));
  EXPECT_GT(str.events_fired(), 10000u);
  EXPECT_EQ(ring::token_count(str.state()), 12u);
  // Still periodic: the period spread of the last 100 cycles is tiny.
  auto periods = analysis::periods_ps(str.output());
  ASSERT_GT(periods.size(), 200u);
  periods.erase(periods.begin(), periods.end() - 100);
  EXPECT_LT(describe(periods).relative_stddev(), 0.02);
}

TEST(Stress, ZeroCharlieMagnitudeIsStillCausal) {
  ring::StrConfig config;
  config.stages = 12;
  config.charlie = ring::CharlieParams::symmetric(260_ps, 0_ps);
  ring::Str str(config,
                ring::make_initial_state(12, 4,
                                         ring::TokenPlacement::clustered),
                gaussian_noise(12, 5.0, 9));
  str.start();
  str.run_until(Time::from_us(2.0));
  EXPECT_GT(str.events_fired(), 1000u);
}

TEST(Stress, PerStageRoutingPreservesFrequencyAtModerateAsymmetry) {
  // Structured routing with total preserved: frequency within ~8% of the
  // flat model at the realistic 1.5x weight, and well below it when a
  // single hop becomes the pipeline bottleneck.
  using namespace ringent::core;
  const auto& cal = cyclone_iii();
  const auto freq_at = [&](double weight) {
    BuildOptions build;
    build.sigma_g_ps = 0.0;
    build.routing_crossing_weight = weight;
    Oscillator osc = Oscillator::build(RingSpec::str(96), cal, build);
    osc.run_periods(300);
    return measure::mean_frequency_mhz(osc.output());
  };
  const double flat = freq_at(1.0);
  EXPECT_NEAR(flat, 320.0, 2.0);
  EXPECT_GT(freq_at(1.5), flat * 0.92);
  EXPECT_LT(freq_at(8.0), flat * 0.60);
}

TEST(Stress, PerStageRoutingVectorValidation) {
  ring::StrConfig config;
  config.stages = 8;
  config.charlie = ring::CharlieParams::symmetric(260_ps, 123_ps);
  config.routing_per_stage = {10_ps, 10_ps};  // wrong size
  EXPECT_THROW(
      ring::Str(config,
                ring::make_initial_state(8, 4,
                                         ring::TokenPlacement::clustered),
                {}),
      PreconditionError);

  ring::IroConfig iro_config;
  iro_config.stages = 4;
  iro_config.lut_delay = 100_ps;
  iro_config.routing_per_stage = {10_ps, 10_ps, -1_ps, 10_ps};
  EXPECT_THROW(ring::Iro(iro_config, {}), PreconditionError);
}

TEST(Stress, PerStageRoutingIroPeriodIsExact) {
  ring::IroConfig config;
  config.stages = 4;
  config.lut_delay = 100_ps;
  config.routing_per_stage = {5_ps, 10_ps, 15_ps, 30_ps};
  ring::Iro iro(config, {});
  iro.start();
  iro.run_until(Time::from_ns(20.0));
  const auto periods = analysis::periods_ps(iro.output());
  ASSERT_FALSE(periods.empty());
  EXPECT_NEAR(periods.back(), 2.0 * (400.0 + 60.0), 1e-6);
  EXPECT_EQ(iro.nominal_period(), Time::from_ps(920.0));
}

TEST(Stress, ExperimentsRejectNonsense) {
  using namespace ringent::core;
  const auto& cal = cyclone_iii();
  EXPECT_THROW(run_voltage_sweep(VoltageSweepSpec{RingSpec::iro(5), {}}, cal),
               PreconditionError);
  ModeMapSpec bad_map;
  bad_map.stages = 16;
  bad_map.token_counts = {4};
  bad_map.charlie_scale = -1.0;
  EXPECT_THROW(run_mode_map(bad_map, cal), PreconditionError);
  EXPECT_THROW(collect_periods_ps(RingSpec::str(8), cal, 0),
               PreconditionError);
  BuildOptions bad;
  bad.delay_scale = 0.0;
  EXPECT_THROW(Oscillator::build(RingSpec::iro(5), cal, bad),
               PreconditionError);
}
