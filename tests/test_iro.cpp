// Tests for the timed IRO model, including the emergent sqrt(2k) jitter
// accumulation law (paper Eq. 4).
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "analysis/periods.hpp"
#include "common/require.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "fpga/supply.hpp"
#include "noise/jitter.hpp"
#include "noise/modulation.hpp"
#include "ring/iro.hpp"

using namespace ringent;
using namespace ringent::literals;
using ring::Iro;
using ring::IroConfig;

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

TEST(Iro, NoiseFreePeriodIsTwoLaps) {
  IroConfig config;
  config.stages = 5;
  config.lut_delay = 250_ps;
  config.routing_per_hop = 10_ps;
  Iro iro(config, {});
  iro.start();
  iro.run_until(Time::from_ns(200.0));

  EXPECT_EQ(iro.nominal_period(), 2600_ps);  // 2 * 5 * 260 ps
  const auto periods = analysis::periods_ps(iro.output());
  ASSERT_GE(periods.size(), 10u);
  for (double p : periods) EXPECT_NEAR(p, 2600.0, 1e-6);
}

TEST(Iro, StageFactorsStretchThePeriod) {
  IroConfig config;
  config.stages = 3;
  config.lut_delay = 100_ps;
  config.stage_factors = {1.0, 2.0, 3.0};
  Iro iro(config, {});
  iro.start();
  iro.run_until(Time::from_ns(50.0));
  const auto periods = analysis::periods_ps(iro.output());
  ASSERT_GE(periods.size(), 3u);
  EXPECT_NEAR(periods.front(), 2.0 * (100.0 + 200.0 + 300.0), 1e-6);
  EXPECT_EQ(iro.nominal_period(), Time::from_ps(1200.0));
}

TEST(Iro, VoltageLawScalesFrequencyLinearly) {
  const fpga::VoltageLaws laws{fpga::DelayVoltageLaw(0.385, 1.2),
                               fpga::DelayVoltageLaw(-0.40, 1.2),
                               fpga::DelayVoltageLaw(0.385, 1.2)};
  const auto period_at = [&](double volts) {
    fpga::Supply supply(1.2);
    supply.set_level(volts);
    IroConfig config;
    config.stages = 5;
    config.lut_delay = 250_ps;
    config.supply = &supply;
    config.laws = &laws;
    Iro iro(config, {});
    iro.start();
    iro.run_until(Time::from_ns(100.0));
    return analysis::periods_ps(iro.output()).back();
  };
  const double f10 = 1.0 / period_at(1.0);
  const double f12 = 1.0 / period_at(1.2);
  const double f14 = 1.0 / period_at(1.4);
  // Femtosecond grid rounding bounds the residual nonlinearity.
  EXPECT_NEAR((f14 - f12) / (f12 - f10), 1.0, 1e-5);
  EXPECT_NEAR((f14 - f10) / f12, 0.4 / (1.2 - 0.385), 1e-5);
}

TEST(Iro, DeterministicModulationShiftsPeriods) {
  // A static +20 ps per hop from t=0 lengthens the period by 2k * 20 ps.
  noise::StepDelayModulation mod(20.0, 0_fs);
  IroConfig config;
  config.stages = 4;
  config.lut_delay = 200_ps;
  config.modulation = &mod;
  Iro iro(config, {});
  iro.start();
  iro.run_until(Time::from_ns(60.0));
  const auto periods = analysis::periods_ps(iro.output());
  ASSERT_FALSE(periods.empty());
  EXPECT_NEAR(periods.back(), 2.0 * 4.0 * 220.0, 1e-6);
}

TEST(Iro, PeriodsAreIndependentGaussian) {
  IroConfig config;
  config.stages = 5;
  config.lut_delay = 250_ps;
  Iro iro(config, gaussian_noise(5, 2.0, 77));
  iro.start();
  iro.run_until(Time::from_us(60.0));

  const auto periods = analysis::periods_ps(iro.output());
  ASSERT_GE(periods.size(), 20000u);
  const SampleStats stats = describe(periods);
  EXPECT_NEAR(stats.mean(), 2500.0, 1.0);
  // Eq. 4: sigma_p = sqrt(2k) sigma_g = sqrt(10) * 2 = 6.32 ps.
  EXPECT_NEAR(stats.stddev(), 6.32, 0.35);
  EXPECT_NEAR(stats.skewness(), 0.0, 0.1);
  EXPECT_NEAR(stats.excess_kurtosis(), 0.0, 0.2);
}

// Parameterized over ring length: the sqrt(2k) accumulation law must emerge
// from the event simulation (it is never encoded).
class IroJitterLaw : public ::testing::TestWithParam<std::size_t> {};

TEST_P(IroJitterLaw, MatchesSqrt2kSigmaG) {
  const std::size_t stages = GetParam();
  const double sigma_g = 2.0;
  IroConfig config;
  config.stages = stages;
  config.lut_delay = 250_ps;
  Iro iro(config, gaussian_noise(stages, sigma_g, 1000 + stages));
  iro.start();
  const std::size_t want = 12000;
  iro.run_until(iro.nominal_period() * static_cast<std::int64_t>(want + 4));

  const auto periods = analysis::periods_ps(iro.output());
  ASSERT_GE(periods.size(), want);
  const double expected =
      std::sqrt(2.0 * static_cast<double>(stages)) * sigma_g;
  EXPECT_NEAR(describe(periods).stddev() / expected, 1.0, 0.06)
      << "stages=" << stages;
}

INSTANTIATE_TEST_SUITE_P(StageSweep, IroJitterLaw,
                         ::testing::Values(3, 5, 9, 15, 25, 40, 80));

TEST(Iro, CausalityUnderHugeNoise) {
  // Noise sigma comparable to the stage delay: edges must stay monotone.
  IroConfig config;
  config.stages = 3;
  config.lut_delay = 50_ps;
  Iro iro(config, gaussian_noise(3, 40.0, 5));
  iro.start();
  iro.run_until(Time::from_ns(300.0));
  const auto edges = iro.output().rising_edges();
  ASSERT_GE(edges.size(), 100u);
  for (std::size_t i = 1; i < edges.size(); ++i) {
    EXPECT_GT(edges[i], edges[i - 1]);
  }
}

TEST(Iro, Preconditions) {
  IroConfig config;
  config.stages = 0;
  EXPECT_THROW(Iro(config, {}), PreconditionError);

  config.stages = 4;
  config.stage_factors = {1.0, 1.0};  // wrong size
  EXPECT_THROW(Iro(config, {}), PreconditionError);

  config.stage_factors.clear();
  config.lut_delay = 0_ps;
  EXPECT_THROW(Iro(config, {}), PreconditionError);

  config.lut_delay = 100_ps;
  config.supply = nullptr;
  IroConfig with_laws = config;
  static const fpga::VoltageLaws laws{fpga::DelayVoltageLaw(0.385, 1.2),
                                      fpga::DelayVoltageLaw(-0.40, 1.2),
                                      fpga::DelayVoltageLaw(0.385, 1.2)};
  with_laws.laws = &laws;  // laws without supply
  EXPECT_THROW(Iro(with_laws, {}), PreconditionError);

  Iro ok(config, {});
  ok.start();
  EXPECT_THROW(ok.start(), PreconditionError);  // double start
}
