// Tests for trng/: samplers, elementary & coherent TRNGs, post-processing,
// and the jitter-to-entropy model.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "analysis/bitstream.hpp"
#include "analysis/entropy.hpp"
#include "analysis/entropy90b.hpp"
#include "common/require.hpp"
#include "common/rng.hpp"
#include "sim/probe.hpp"
#include "trng/coherent.hpp"
#include "trng/elementary.hpp"
#include "trng/entropy_model.hpp"
#include "trng/postproc.hpp"
#include "trng/sampler.hpp"

using namespace ringent;
using namespace ringent::literals;

namespace {

/// Clean square wave transitions with the given half-period.
std::vector<sim::Transition> square_wave(Time half_period, std::size_t count,
                                         Time phase = Time::zero()) {
  std::vector<sim::Transition> out;
  bool value = true;
  Time t = phase;
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back({t, value});
    value = !value;
    t += half_period;
  }
  return out;
}

}  // namespace

// --- sampler -------------------------------------------------------------------

TEST(Sampler, ValueAtLooksUpLastTransition) {
  const auto wave = square_wave(500_ps, 10);  // rising at 0, falling at 500...
  EXPECT_FALSE(trng::value_at(wave, -1_ps));
  EXPECT_TRUE(trng::value_at(wave, 0_ps));
  EXPECT_TRUE(trng::value_at(wave, 499_ps));
  EXPECT_FALSE(trng::value_at(wave, 500_ps));
  EXPECT_TRUE(trng::value_at(wave, 1000_ps));
  EXPECT_FALSE(trng::value_at(wave, Time::from_ns(100.0)));  // after last
}

TEST(Sampler, PeriodicSamples) {
  const auto samples = trng::periodic_samples(10_ps, 100_ps, 4);
  EXPECT_EQ(samples, (std::vector<Time>{10_ps, 110_ps, 210_ps, 310_ps}));
  EXPECT_THROW(trng::periodic_samples(0_ps, 0_ps, 3), PreconditionError);
}

TEST(Sampler, DffSamplesSquareWaveDeterministically) {
  const auto wave = square_wave(500_ps, 100);
  trng::DffSampler sampler;
  // Sample in the middle of each half period: alternating bits.
  const auto bits =
      sampler.sample(wave, trng::periodic_samples(250_ps, 500_ps, 20));
  for (std::size_t i = 0; i < bits.size(); ++i) {
    EXPECT_EQ(bits[i], i % 2 == 0 ? 1 : 0);
  }
}

TEST(Sampler, ApertureJitterRandomizesEdgeSamples) {
  // Sampling exactly on the edges with aperture jitter: ~50/50 outcome.
  const auto wave = square_wave(500_ps, 40000);
  trng::SamplerConfig config;
  config.aperture_jitter_ps = 100.0;
  trng::DffSampler sampler(config);
  const auto bits =
      sampler.sample(wave, trng::periodic_samples(500_ps, 1000_ps, 10000));
  double ones = 0;
  for (auto b : bits) ones += b;
  EXPECT_NEAR(ones / 10000.0, 0.5, 0.03);
}

// --- elementary TRNG --------------------------------------------------------------

TEST(ElementaryTrng, SamplesFromTrace) {
  sim::SignalTrace trace;
  for (const auto& tr : square_wave(500_ps, 2000)) {
    trace.record(tr.at, tr.value);
  }
  trng::ElementaryTrngConfig config;
  config.sampling_period = Time::from_ps(3250.0);
  config.start = 100_ps;
  const auto bits = trng::elementary_trng_bits(trace, config, 250);
  EXPECT_EQ(bits.size(), 250u);
  // Deterministic trace + incommensurate sampling: both values appear.
  double ones = 0;
  for (auto b : bits) ones += b;
  EXPECT_GT(ones, 50);
  EXPECT_LT(ones, 200);
}

TEST(ElementaryTrng, RejectsTooShortTrace) {
  sim::SignalTrace trace;
  trace.record(0_ps, true);
  trace.record(500_ps, false);
  trng::ElementaryTrngConfig config;
  config.sampling_period = 1_ns;
  EXPECT_THROW(trng::elementary_trng_bits(trace, config, 100),
               PreconditionError);
}

TEST(ElementaryTrng, QualityFactorScalesLinearlyInSamplingPeriod) {
  const double q1 = trng::quality_factor(2.83, 3000.0, Time::from_ns(10.0));
  const double q2 = trng::quality_factor(2.83, 3000.0, Time::from_ns(20.0));
  EXPECT_NEAR(q2 / q1, 2.0, 1e-9);
  // Definition check: Q = (Ts/T) sigma^2 / T^2.
  EXPECT_NEAR(q1, (10000.0 / 3000.0) * 2.83 * 2.83 / (3000.0 * 3000.0),
              1e-12);
}

// --- coherent sampling --------------------------------------------------------------

TEST(Coherent, BeatLengthMatchesTheory) {
  // T0 = 1000 ps sampled by T1 = 1010 ps: half-beat = T0/(2 dT) = 50 samples.
  const auto wave = square_wave(500_ps, 500000);
  std::vector<Time> clock;
  for (std::size_t i = 0; i < 4000; ++i) {
    clock.push_back(Time::from_ps(1010.0 * static_cast<double>(i) + 3.0));
  }
  const auto result = trng::coherent_sampling_bits(wave, clock);
  EXPECT_NEAR(result.mean_run_length,
              trng::expected_half_beat_samples(1000.0, 1010.0), 2.0);
  EXPECT_NEAR(result.mean_run_length, 50.0, 2.0);
  EXPECT_EQ(result.bits.size(), result.run_lengths.size());
}

TEST(Coherent, JitteryClockProducesVariableRuns) {
  const auto wave = square_wave(500_ps, 800000);
  Xoshiro256 rng(55);
  std::vector<Time> clock;
  double t = 3.0;
  for (std::size_t i = 0; i < 6000; ++i) {
    clock.push_back(Time::from_ps(t));
    t += rng.normal(1010.0, 8.0);
  }
  const auto result = trng::coherent_sampling_bits(wave, clock);
  // Run lengths now fluctuate; the LSB bits carry entropy.
  bool varies = false;
  for (std::size_t i = 1; i < result.run_lengths.size(); ++i) {
    varies = varies || (result.run_lengths[i] != result.run_lengths[0]);
  }
  EXPECT_TRUE(varies);
  double ones = 0;
  for (auto b : result.bits) ones += b;
  const double bias = ones / static_cast<double>(result.bits.size());
  EXPECT_GT(bias, 0.2);
  EXPECT_LT(bias, 0.8);
}

TEST(Coherent, Preconditions) {
  EXPECT_THROW(trng::expected_half_beat_samples(1000.0, 1000.0),
               PreconditionError);
  const auto wave = square_wave(500_ps, 10);
  EXPECT_THROW(trng::coherent_sampling_bits(wave, {0_ps, 1_ns}),
               PreconditionError);
}

// --- post-processing ----------------------------------------------------------------

TEST(Postproc, VonNeumannRemovesBias) {
  Xoshiro256 rng(59);
  std::vector<std::uint8_t> biased;
  for (int i = 0; i < 100000; ++i) {
    biased.push_back(rng.uniform01() < 0.8 ? 1 : 0);
  }
  const auto corrected = trng::von_neumann(biased);
  ASSERT_GT(corrected.size(), 10000u);
  double ones = 0;
  for (auto b : corrected) ones += b;
  EXPECT_NEAR(ones / static_cast<double>(corrected.size()), 0.5, 0.015);
}

TEST(Postproc, VonNeumannMapping) {
  const std::vector<std::uint8_t> bits = {0, 1, 1, 0, 0, 0, 1, 1, 1, 0};
  EXPECT_EQ(trng::von_neumann(bits), (std::vector<std::uint8_t>{0, 1, 1}));
}

TEST(Postproc, XorDecimateReducesBias) {
  Xoshiro256 rng(61);
  std::vector<std::uint8_t> biased;
  for (int i = 0; i < 200000; ++i) {
    biased.push_back(rng.uniform01() < 0.6 ? 1 : 0);
  }
  const auto out = trng::xor_decimate(biased, 4);
  EXPECT_EQ(out.size(), 50000u);
  double ones = 0;
  for (auto b : out) ones += b;
  EXPECT_NEAR(ones / 50000.0, trng::xor_bias(0.6, 4), 0.01);
}

TEST(Postproc, PeresExtractsMoreThanVonNeumann) {
  Xoshiro256 rng(63);
  std::vector<std::uint8_t> biased;
  for (int i = 0; i < 200000; ++i) {
    biased.push_back(rng.uniform01() < 0.7 ? 1 : 0);
  }
  const auto vn = trng::von_neumann(biased);
  const auto px = trng::peres(biased, 8);
  // von Neumann rate is p(1-p) = 0.21; Peres approaches H(0.7) = 0.881.
  EXPECT_NEAR(static_cast<double>(vn.size()) / biased.size(),
              trng::von_neumann_rate(0.7), 0.01);
  EXPECT_GT(px.size(), vn.size() * 3);
  EXPECT_LT(static_cast<double>(px.size()) / biased.size(), 0.881);
  // Output stays unbiased and pairwise clean: the SP 800-90B Markov
  // estimate, which reads the bit-to-bit transition probabilities, sees
  // full entropy (an ideal stream of this length reads about 0.99 under
  // the estimate's 99% confidence bound).
  EXPECT_NEAR(analysis::bit_bias(px), 0.5, 0.01);
  analysis::Entropy90bConfig markov_only;
  markov_only.mcv = markov_only.collision = markov_only.compression =
      markov_only.t_tuple = markov_only.lrs = false;
  markov_only.autocorrelation_lags = 0;
  const double h_markov =
      analysis::estimate_entropy90b(analysis::BitStream::from_bits(px),
                                    markov_only)
          .h_markov;
  EXPECT_GT(h_markov, 0.98) << h_markov;
}

TEST(Postproc, PeresDepthOneEqualsVonNeumann) {
  Xoshiro256 rng(65);
  std::vector<std::uint8_t> bits;
  for (int i = 0; i < 10000; ++i) {
    bits.push_back(rng.uniform01() < 0.6 ? 1 : 0);
  }
  EXPECT_EQ(trng::peres(bits, 1), trng::von_neumann(bits));
  EXPECT_THROW(trng::peres(bits, 0), PreconditionError);
  EXPECT_THROW(trng::peres(bits, 17), PreconditionError);
}

TEST(Postproc, XorBiasPilingUpLemma) {
  EXPECT_NEAR(trng::xor_bias(0.6, 1), 0.6, 1e-12);
  EXPECT_NEAR(trng::xor_bias(0.6, 2), 0.52, 1e-12);
  EXPECT_NEAR(trng::xor_bias(0.6, 4), 0.5008, 1e-12);
  EXPECT_NEAR(trng::xor_bias(0.5, 10), 0.5, 1e-12);
  EXPECT_THROW(trng::xor_bias(1.5, 2), PreconditionError);
  const std::vector<std::uint8_t> two_bits = {0, 1};
  EXPECT_THROW(trng::xor_decimate(two_bits, 0), PreconditionError);
}

// --- pair correlation ---------------------------------------------------------------

// A 20,000-bit block (the FIPS 140-2 block size) whose bits repeat their
// predecessor 80% of the time is balanced, so only a test that reads bit
// pairs catches it. The SP 800-90B battery does so twice: the Markov
// estimate falls to the sticky path's rate -log2(0.8), and the lag-1
// autocorrelation reads 1 - p01 - p10 = 0.6.
TEST(Fips, SerialTestCatchesPairCorrelation) {
  Xoshiro256 rng(79);
  std::vector<std::uint8_t> good(20000);
  for (auto& b : good) b = static_cast<std::uint8_t>(rng.next() & 1);
  const analysis::Entropy90bResult g =
      analysis::estimate_entropy90b(analysis::BitStream::from_bits(good));
  EXPECT_GT(g.h_markov, 0.95) << g.h_markov;
  EXPECT_NEAR(g.autocorrelation.at(0), 0.0, 0.03);

  std::vector<std::uint8_t> corr;
  Xoshiro256 sticky(83);
  std::uint8_t prev = 0;
  for (int i = 0; i < 20000; ++i) {
    prev = sticky.uniform01() < 0.8 ? prev : static_cast<std::uint8_t>(1 - prev);
    corr.push_back(prev);
  }
  const analysis::Entropy90bResult c =
      analysis::estimate_entropy90b(analysis::BitStream::from_bits(corr));
  EXPECT_NEAR(analysis::bit_bias(corr), 0.5, 0.03);
  EXPECT_NEAR(c.h_markov, -std::log2(0.8), 0.03) << c.h_markov;
  EXPECT_NEAR(c.autocorrelation.at(0), 0.6, 0.03);
  EXPECT_LT(c.min_entropy, 0.5 * g.min_entropy);
}

// --- entropy model ------------------------------------------------------------------

TEST(EntropyModel, BoundIsMonotoneAndSaturates) {
  EXPECT_LT(trng::entropy_lower_bound(0.001), 0.6);
  EXPECT_LT(trng::entropy_lower_bound(0.01),
            trng::entropy_lower_bound(0.1));
  EXPECT_NEAR(trng::entropy_lower_bound(1.0), 1.0, 1e-9);
  EXPECT_GE(trng::entropy_lower_bound(0.0), 0.0);
  EXPECT_THROW(trng::entropy_lower_bound(-0.1), PreconditionError);
}

TEST(EntropyModel, RequiredSamplingPeriodInvertsTheBound) {
  const double sigma = 2.83, period = 3000.0;
  const Time ts = trng::required_sampling_period(0.997, sigma, period);
  const double h = trng::entropy_lower_bound(sigma, period, ts);
  EXPECT_NEAR(h, 0.997, 1e-6);
  // Less jitter demands slower sampling.
  EXPECT_GT(trng::required_sampling_period(0.997, 1.0, period),
            trng::required_sampling_period(0.997, 4.0, period));
  EXPECT_THROW(trng::required_sampling_period(1.5, sigma, period),
               PreconditionError);
}

TEST(EntropyModel, StrBeatsIroAtEqualFrequencyAndLength) {
  // At ~96 stages the STR keeps a 3 ns period with sigma_p ~ 2.8 ps, while an
  // equal-length IRO has sigma_p = sqrt(192)*2 = 27.7 ps but a 50 ns period.
  // Per unit *time* the STR accumulates more relative jitter: the sampling
  // period needed for H >= 0.997 is shorter.
  const Time ts_str = trng::required_sampling_period(0.997, 2.83, 3125.0);
  const Time ts_iro = trng::required_sampling_period(0.997, 27.7, 48960.0);
  EXPECT_LT(ts_str, ts_iro);
}
