// Tests for the extension modules: Allan deviation, the measured Charlie
// diagram, flicker-noise wiring in the oscillator factory, the
// temperature-sweep experiment and the multi-ring XOR TRNG.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "analysis/allan.hpp"
#include "analysis/periods.hpp"
#include "common/require.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "core/experiments.hpp"
#include "core/oscillator.hpp"
#include "noise/jitter.hpp"
#include "ring/analytic.hpp"
#include "ring/charlie.hpp"
#include "ring/diagram.hpp"
#include "trng/entropy_model.hpp"
#include "trng/health.hpp"
#include "trng/multiring.hpp"
#include "analysis/entropy.hpp"
#include "ring/str.hpp"
#include "trng/phase_trng.hpp"

using namespace ringent;
using namespace ringent::literals;

// --- Allan deviation -----------------------------------------------------------

TEST(Allan, WhitePeriodNoiseHasMinusHalfSlope) {
  Xoshiro256 rng(3);
  std::vector<double> periods;
  for (int i = 0; i < 60000; ++i) periods.push_back(rng.normal(1000.0, 2.0));
  const auto curve = analysis::allan_curve(periods);
  ASSERT_GE(curve.size(), 8u);
  EXPECT_NEAR(analysis::allan_slope(curve), -0.5, 0.05);
  // The m = 1 point equals sigma_y(T): adev = sigma_p / T (within estimator
  // convention factors for white noise: ADEV(1) = sigma_p/T exactly here).
  EXPECT_NEAR(curve[0].adev, 2.0 / 1000.0, 2e-4);
  EXPECT_NEAR(curve[0].tau_ps, 1000.0, 1.0);
}

TEST(Allan, RandomWalkFrequencyHasPlusHalfSlope) {
  Xoshiro256 rng(5);
  std::vector<double> periods;
  double walk = 0.0;
  for (int i = 0; i < 60000; ++i) {
    walk += rng.normal(0.0, 0.05);
    periods.push_back(1000.0 + walk);
  }
  const auto curve = analysis::allan_curve(periods);
  EXPECT_NEAR(analysis::allan_slope(curve), 0.5, 0.1);
}

TEST(Allan, FlickerFlattensTheCurve) {
  noise::FlickerNoise flicker(2.0, 20, 7);
  std::vector<double> periods;
  for (int i = 0; i < 60000; ++i) {
    periods.push_back(1000.0 + flicker.sample_ps());
  }
  const auto slope = analysis::allan_slope(analysis::allan_curve(periods));
  EXPECT_GT(slope, -0.25);  // far from the white -0.5
  EXPECT_LT(slope, 0.25);
}

TEST(Allan, Preconditions) {
  std::vector<double> tiny = {1.0, 2.0, 3.0};
  EXPECT_THROW(analysis::allan_deviation(tiny, 2), PreconditionError);
  EXPECT_THROW(analysis::allan_deviation(tiny, 0), PreconditionError);
  EXPECT_THROW(analysis::allan_curve({}, 8), PreconditionError);
}

// --- measured Charlie diagram ----------------------------------------------------

TEST(CharlieDiagram, NoiseFreeRingSitsAtTheAnalyticOperatingPoint) {
  for (std::size_t tokens : {8u, 16u, 24u}) {
    const ring::CharlieParams params =
        ring::CharlieParams::symmetric(260_ps, 123_ps);
    ring::StrConfig config;
    config.stages = 32;
    config.charlie = params;
    config.trace_all_stages = true;
    ring::Str str(config,
                  ring::make_initial_state(32, tokens,
                                           ring::TokenPlacement::evenly_spread),
                  {});
    str.start();
    str.run_until(Time::from_us(2.0));

    const auto points = ring::extract_charlie_points(str.stage_traces(), 64);
    ASSERT_GT(points.size(), 500u) << "NT=" << tokens;

    const auto predicted =
        ring::predict_steady_state(params, 0_ps, 32, tokens);
    SampleStats seps, lats;
    for (const auto& p : points) {
      seps.add(p.separation_ps);
      lats.add(p.latency_ps);
    }
    EXPECT_NEAR(seps.mean(), predicted.separation.ps(), 2.0)
        << "NT=" << tokens;
    const double expected_latency = ring::charlie_delay_ps(
        260.0, 123.0, predicted.separation.ps());
    EXPECT_NEAR(lats.mean(), expected_latency, 2.0) << "NT=" << tokens;
    // Noise-free steady state: the cloud has collapsed.
    EXPECT_LT(seps.stddev(), 2.0) << "NT=" << tokens;
  }
}

TEST(CharlieDiagram, NoisyPointsLieOnTheEq3Curve) {
  const ring::CharlieParams params =
      ring::CharlieParams::symmetric(260_ps, 123_ps);
  ring::StrConfig config;
  config.stages = 24;
  config.charlie = params;
  config.trace_all_stages = true;
  std::vector<std::unique_ptr<noise::NoiseSource>> noise;
  for (std::size_t i = 0; i < 24; ++i) {
    noise.push_back(
        std::make_unique<noise::GaussianNoise>(10.0, derive_seed(3, "n", i)));
  }
  ring::Str str(config,
                ring::make_initial_state(24, 12,
                                         ring::TokenPlacement::evenly_spread),
                std::move(noise));
  str.start();
  str.run_until(Time::from_us(4.0));

  const auto points = ring::extract_charlie_points(str.stage_traces(), 64);
  const auto curve = ring::binned_charlie_curve(points, 10.0, 30);
  ASSERT_GE(curve.size(), 3u);
  for (const auto& bin : curve) {
    const double expected =
        ring::charlie_delay_ps(260.0, 123.0, bin.separation_ps);
    // Mean latency per bin tracks Eq. 3 within the noise-induced bias.
    EXPECT_NEAR(bin.latency_ps, expected, 6.0)
        << "s=" << bin.separation_ps << " n=" << bin.count;
  }
}

TEST(CharlieDiagram, Preconditions) {
  std::vector<sim::SignalTrace> two(2);
  EXPECT_THROW(ring::extract_charlie_points(two), PreconditionError);
  EXPECT_THROW(ring::binned_charlie_curve({}, 0.0), PreconditionError);
}

// --- flicker wiring in the oscillator factory -------------------------------------

TEST(OscillatorFlicker, FlickerRaisesLongHorizonJitterOnly) {
  using core::BuildOptions;
  using core::Oscillator;
  using core::RingSpec;
  const auto& cal = core::cyclone_iii();

  BuildOptions white;
  Oscillator a = Oscillator::build(RingSpec::iro(5), cal, white);
  a.run_periods(30000);
  const auto pw = analysis::periods_ps(a.output());

  BuildOptions pink = white;
  pink.flicker_amplitude_ps = 2.0;
  Oscillator b = Oscillator::build(RingSpec::iro(5), cal, pink);
  b.run_periods(30000);
  const auto pp = analysis::periods_ps(b.output());

  const double acc_w = analysis::accumulated_jitter_ps(pw, 64);
  const double acc_p = analysis::accumulated_jitter_ps(pp, 64);
  EXPECT_GT(acc_p, acc_w * 2.0);  // long horizon blows up with 1/f
}

// --- Charlie parameter recovery ----------------------------------------------------

TEST(CharlieFit, RecoversParametersFromSyntheticCurve) {
  std::vector<ring::BinnedCharliePoint> curve;
  for (double s = -300.0; s <= 300.0; s += 30.0) {
    ring::BinnedCharliePoint p;
    p.separation_ps = s;
    p.latency_ps = ring::charlie_delay_ps(260.0, 123.0, s, 25.0);
    p.count = 100;
    curve.push_back(p);
  }
  const auto fit = ring::fit_charlie(curve);
  EXPECT_NEAR(fit.params.d_mean().ps(), 260.0, 1.0);
  EXPECT_NEAR(fit.params.d_charlie.ps(), 123.0, 1.5);
  EXPECT_NEAR(fit.params.s_offset().ps(), 25.0, 1.0);
  EXPECT_LT(fit.rms_residual_ps, 0.2);
}

TEST(CharlieFit, RecoversCalibrationFromRunningRings) {
  // The full characterization loop: simulate rings at several NT, extract
  // operating points, bin, fit — the recovered parameters must match the
  // calibration the simulator was built with.
  std::vector<ring::CharliePoint> points;
  for (std::size_t tokens : {8u, 12u, 16u, 20u, 24u}) {
    ring::StrConfig config;
    config.stages = 32;
    config.charlie = ring::CharlieParams::symmetric(260_ps, 123_ps);
    config.trace_all_stages = true;
    std::vector<std::unique_ptr<noise::NoiseSource>> probe;
    for (std::size_t i = 0; i < 32; ++i) {
      probe.push_back(std::make_unique<noise::GaussianNoise>(
          6.0, derive_seed(5, "p", tokens * 64 + i)));
    }
    ring::Str str(config,
                  ring::make_initial_state(32, tokens,
                                           ring::TokenPlacement::evenly_spread),
                  std::move(probe));
    str.start();
    str.run_until(Time::from_us(2.0));
    const auto extracted = ring::extract_charlie_points(str.stage_traces(), 64);
    points.insert(points.end(), extracted.begin(), extracted.end());
  }
  const auto curve = ring::binned_charlie_curve(points, 20.0, 40);
  ASSERT_GE(curve.size(), 5u);
  const auto fit = ring::fit_charlie(curve);
  EXPECT_NEAR(fit.params.d_mean().ps(), 260.0, 6.0);
  EXPECT_NEAR(fit.params.d_charlie.ps(), 123.0, 8.0);
  EXPECT_NEAR(fit.params.s_offset().ps(), 0.0, 5.0);
}

TEST(CharlieFit, Preconditions) {
  std::vector<ring::BinnedCharliePoint> flat(5);
  for (auto& p : flat) {
    p.separation_ps = 10.0;
    p.latency_ps = 380.0;
    p.count = 10;
  }
  EXPECT_THROW(ring::fit_charlie(flat), PreconditionError);
  EXPECT_THROW(ring::fit_charlie({}), PreconditionError);
}

// --- health tests (SP 800-90B style) -----------------------------------------------

TEST(HealthTests, CutoffsMatchTheSpecFormulas) {
  // Full-entropy claim: C = 1 + ceil(20/1) = 21.
  EXPECT_EQ(trng::rct_cutoff(1.0), 21u);
  // H = 0.5: C = 41.
  EXPECT_EQ(trng::rct_cutoff(0.5), 41u);
  EXPECT_THROW(trng::rct_cutoff(0.0), PreconditionError);
  // APT cutoff is between W/2 and W and grows as the claim weakens.
  const auto strong = trng::apt_cutoff(1.0, 1024);
  const auto weak = trng::apt_cutoff(0.3, 1024);
  EXPECT_GT(strong, 512u);
  EXPECT_LT(strong, 650u);
  EXPECT_GT(weak, strong);
  EXPECT_LE(weak, 1024u);
}

TEST(HealthTests, HealthySourcePassesStuckSourceAlarms) {
  Xoshiro256 rng(21);
  std::vector<std::uint8_t> good(50000);
  for (auto& b : good) b = static_cast<std::uint8_t>(rng.next() & 1);
  const auto healthy = trng::run_health_tests(good, 1.0);
  EXPECT_TRUE(healthy.pass()) << "rct=" << healthy.rct_pass
                              << " apt=" << healthy.apt_pass;

  // A source that dies mid-stream: RCT must latch.
  auto stuck = good;
  for (std::size_t i = 20000; i < 20030; ++i) stuck[i] = 1;
  const auto dead = trng::run_health_tests(stuck, 1.0);
  EXPECT_FALSE(dead.rct_pass);

  // A source drifting to 80/20 bias: APT must alarm.
  std::vector<std::uint8_t> biased(50000);
  for (std::size_t i = 0; i < biased.size(); ++i) {
    biased[i] = rng.uniform01() < 0.8 ? 1 : 0;
  }
  EXPECT_FALSE(trng::run_health_tests(biased, 1.0).apt_pass);
}

TEST(HealthTests, StreamingInterfaceLatches) {
  trng::RepetitionCountTest rct(5);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(rct.feed(1));
  EXPECT_FALSE(rct.feed(1));  // 5th identical bit trips it
  EXPECT_TRUE(rct.alarmed());
  EXPECT_FALSE(rct.feed(0));  // latched
  rct.reset();
  EXPECT_TRUE(rct.feed(0));

  EXPECT_THROW(trng::RepetitionCountTest(1), PreconditionError);
  EXPECT_THROW(trng::AdaptiveProportionTest(10, 32), PreconditionError);
}

// --- multi-phase STR TRNG ----------------------------------------------------------

TEST(PhaseTrng, SnapshotDecodesTheRingState) {
  using core::BuildOptions;
  using core::Oscillator;
  using core::RingSpec;
  BuildOptions build;
  build.trace_all_stages = true;
  build.warmup_periods = 0;
  build.sigma_g_ps = 0.0;
  Oscillator osc =
      Oscillator::build(RingSpec::str(15, 8), core::cyclone_iii(), build);
  osc.run_periods(64);

  // Any snapshot of a valid ring carries exactly NT boundaries.
  for (double t_ns : {20.0, 35.5, 50.25, 77.7}) {
    const auto snap = trng::snapshot_at(osc.str()->stage_traces(),
                                        Time::from_ns(t_ns));
    EXPECT_EQ(snap.cells.size(), 15u);
    EXPECT_EQ(snap.token_count, 8u) << t_ns;
    EXPECT_LT(snap.boundary, 15u);
  }
}

TEST(PhaseTrng, CoprimeConfigBeatsDegenerateConfigOnEntropy) {
  using core::BuildOptions;
  using core::Oscillator;
  using core::RingSpec;
  const Time fs = Time::from_ns(25.0);
  const std::size_t bits_wanted = 1024;

  const auto run = [&](std::size_t stages, std::size_t tokens) {
    BuildOptions build;
    build.trace_all_stages = true;
    build.warmup_periods = 128;
    Oscillator osc = Oscillator::build(RingSpec::str(stages, tokens),
                                       core::cyclone_iii(), build);
    const double per_bit = fs.ps() / osc.nominal_period().ps();
    osc.run_periods(static_cast<std::size_t>(
        per_bit * static_cast<double>(bits_wanted + 2) + 256));
    const auto periods = analysis::periods_ps(osc.str()->output());
    trng::PhaseTrngConfig config;
    config.sampling_period = fs;
    config.start = osc.str()->output().transitions().front().at;
    return trng::phase_trng_bits(osc.str()->stage_traces(), config,
                                 bits_wanted, describe(periods).mean());
  };

  const auto coprime = run(65, 32);   // 65 phases
  const auto degenerate = run(64, 32);  // gcd 32 -> 2 phases
  ASSERT_EQ(coprime.bits.size(), bits_wanted);
  EXPECT_EQ(coprime.stages, 65u);

  const double h_coprime = analysis::shannon_entropy_per_bit(coprime.bits);
  const double h_degenerate =
      analysis::shannon_entropy_per_bit(degenerate.bits);
  EXPECT_GT(h_coprime, 0.98);
  EXPECT_LT(h_degenerate, 0.6);

  // The first-boundary readout ranges over one token spacing
  // (ceil(L/NT) = 3 cells here) and must visit more than one of them.
  std::vector<bool> seen(65, false);
  for (std::size_t b : coprime.boundaries) seen.at(b) = true;
  std::size_t distinct = 0;
  for (bool s : seen) distinct += s ? 1 : 0;
  EXPECT_GE(distinct, 2u);
  EXPECT_LE(distinct, 4u);
}

TEST(PhaseTrng, Preconditions) {
  std::vector<sim::SignalTrace> two(2);
  EXPECT_THROW(trng::snapshot_at(two, Time::from_ns(1.0)), PreconditionError);
  trng::PhaseTrngConfig config;
  std::vector<sim::SignalTrace> three(3);
  EXPECT_THROW(trng::phase_trng_bits(three, config, 0, 1000.0),
               PreconditionError);
  EXPECT_THROW(trng::phase_trng_bits(three, config, 10, 0.0),
               PreconditionError);
}

// --- jitter-voltage coupling --------------------------------------------------------

TEST(JitterVoltageCoupling, GammaZeroKeepsSigmaGammaOneScalesIt) {
  using core::BuildOptions;
  using core::Oscillator;
  using core::RingSpec;
  const auto& cal = core::cyclone_iii();

  const auto sigma_at = [&](double volts, double gamma) {
    fpga::Supply supply(cal.nominal_voltage);
    supply.set_level(volts);
    BuildOptions build;
    build.supply = &supply;
    build.jitter_delay_exponent = gamma;
    Oscillator osc = Oscillator::build(RingSpec::iro(5), cal, build);
    osc.run_periods(15000);
    return describe(analysis::periods_ps(osc.output())).stddev();
  };

  // gamma = 0: sigma_p independent of voltage (the paper's model).
  const double s0_low = sigma_at(1.0, 0.0);
  const double s0_nom = sigma_at(1.2, 0.0);
  EXPECT_NEAR(s0_low / s0_nom, 1.0, 0.05);

  // gamma = 1: sigma_p scales with the delay stretch (1.2-0.385)/(1.0-0.385).
  const double s1_low = sigma_at(1.0, 1.0);
  const double stretch = (1.2 - 0.385) / (1.0 - 0.385);
  EXPECT_NEAR(s1_low / s0_nom, stretch, 0.08);

  // At nominal voltage gamma is irrelevant.
  EXPECT_NEAR(sigma_at(1.2, 1.0) / s0_nom, 1.0, 0.05);
}

TEST(JitterVoltageCoupling, UndervoltingSlopeDependsOnGamma) {
  using core::BuildOptions;
  using core::Oscillator;
  using core::RingSpec;
  const auto& cal = core::cyclone_iii();
  const Time fs = Time::from_us(1.0);

  const auto bound_at = [&](double volts, double gamma) {
    fpga::Supply supply(cal.nominal_voltage);
    supply.set_level(volts);
    BuildOptions build;
    build.supply = &supply;
    build.jitter_delay_exponent = gamma;
    Oscillator osc = Oscillator::build(RingSpec::str(96), cal, build);
    osc.run_periods(15000);
    const auto jitter =
        analysis::summarize_jitter(analysis::periods_ps(osc.output()));
    return trng::entropy_lower_bound(jitter.period_jitter_ps,
                                     jitter.mean_period_ps, fs);
  };

  // Q ~ (V - Vt)^(2 gamma - 3): undervolting reduces the bound in both
  // models, but far more steeply under constant sigma_g (gamma = 0).
  const double drop0 = bound_at(1.2, 0.0) - bound_at(1.0, 0.0);
  const double drop1 = bound_at(1.2, 1.0) - bound_at(1.0, 1.0);
  EXPECT_GT(drop0, 0.0);
  EXPECT_GT(drop1, 0.0);
  EXPECT_GT(drop0, drop1 * 1.8);
}

// --- temperature sweep -------------------------------------------------------------

TEST(Temperature, FrequencyFallsWithTemperatureAndStr96IsFlattest) {
  using namespace ringent::core;
  const auto& cal = cyclone_iii();
  const std::vector<double> temps = {-20.0, 25.0, 85.0};
  const auto iro =
      run_temperature_sweep(TemperatureSweepSpec{RingSpec::iro(5), temps}, cal);
  const auto str96 = run_temperature_sweep(
      TemperatureSweepSpec{RingSpec::str(96), temps}, cal);

  EXPECT_GT(iro.points.front().frequency_mhz,
            iro.points.back().frequency_mhz);
  EXPECT_GT(iro.excursion, 0.02);
  EXPECT_LT(str96.excursion, iro.excursion);

  EXPECT_THROW(
      run_temperature_sweep(TemperatureSweepSpec{RingSpec::iro(5), {0.0, 50.0}},
                            cal),
      PreconditionError);  // 25 C missing
}

// --- multi-ring XOR TRNG -------------------------------------------------------

using trng::multi_ring_bits;
using trng::MultiRingConfig;

TEST(MultiRing, XorOfIndependentRingsImprovesEntropy) {
  const auto& cal = core::cyclone_iii();
  const Time fs = Time::from_ns(250.0);
  const std::size_t bits_wanted = 4096;

  // Distinct silicon per ring (board mismatch) detunes the bank members —
  // without it, equal-frequency rings keep correlated sampling patterns and
  // the XOR gains much less.
  const fpga::Board board(99, 0, cal.process);
  std::vector<core::Oscillator> rings;
  for (std::size_t r = 0; r < 4; ++r) {
    core::BuildOptions build;
    build.board = &board;
    build.lut_base = r * 64;
    rings.push_back(
        core::Oscillator::build(core::RingSpec::iro(5), cal, build));
    rings.back().run_periods(static_cast<std::size_t>(
        fs.ps() / rings.back().nominal_period().ps() * (bits_wanted + 2.0) +
        64));
  }

  MultiRingConfig config;
  config.sampling_period = fs;
  config.start = Time::from_us(1.0);

  const auto one = multi_ring_bits({&rings[0].output()}, config, bits_wanted);
  const auto four = multi_ring_bits({&rings[0].output(), &rings[1].output(),
                                     &rings[2].output(), &rings[3].output()},
                                    config, bits_wanted);
  ASSERT_EQ(one.size(), bits_wanted);
  ASSERT_EQ(four.size(), bits_wanted);

  const double h_one = analysis::block_entropy_per_bit(one, 8);
  const double h_four = analysis::block_entropy_per_bit(four, 8);
  EXPECT_GT(h_four, h_one + 0.1);
  EXPECT_GT(h_four, 0.9);
}

TEST(MultiRing, XorIdentityAndPreconditions) {
  const auto& cal = core::cyclone_iii();
  core::Oscillator osc =
      core::Oscillator::build(core::RingSpec::iro(5), cal, {});
  osc.run_periods(2000);

  MultiRingConfig config;
  config.sampling_period = Time::from_ns(100.0);
  config.start = Time::from_ns(500.0);

  // XOR of the same trace twice is all zeros (same instants, no aperture
  // noise differences matter because seeds differ... so force no aperture).
  config.sampler.aperture_jitter_ps = 0.0;
  const auto twice = multi_ring_bits({&osc.output(), &osc.output()}, config,
                                     1000);
  for (std::uint8_t b : twice) EXPECT_EQ(b, 0);

  EXPECT_THROW(multi_ring_bits({}, config, 100), PreconditionError);
  sim::SignalTrace empty;
  EXPECT_THROW(multi_ring_bits({&empty}, config, 100), PreconditionError);
}
