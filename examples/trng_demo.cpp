// Elementary ring-oscillator TRNG — the paper's motivating application.
//
// Samples a free-running ring with a 4 MHz reference clock, estimates the
// entropy of the raw bits, compares with the Baudet-style bound computed
// from the measured jitter, and shows why raw bits at a practical sampling
// rate need post-processing (successive samples are correlated because the
// phase only diffuses by sqrt(Ts/T) * sigma_p per sample — a few tens of ps
// against a ~2-3 ns period).
#include <cstdio>

#include "analysis/autocorr.hpp"
#include "analysis/bitstream.hpp"
#include "analysis/entropy.hpp"
#include "analysis/entropy90b.hpp"
#include "analysis/jitter.hpp"
#include "analysis/periods.hpp"
#include "core/experiments.hpp"
#include "core/oscillator.hpp"
#include "trng/elementary.hpp"
#include "trng/entropy_model.hpp"
#include "trng/postproc.hpp"

using namespace ringent;
using namespace ringent::core;

namespace {

void demo(const RingSpec& spec, Time sampling_period, std::size_t bits_wanted) {
  const auto& cal = cyclone_iii();
  BuildOptions build;
  build.warmup_periods = 128;
  Oscillator osc = Oscillator::build(spec, cal, build);

  const double periods_per_sample =
      sampling_period.ps() / osc.nominal_period().ps();
  osc.run_periods(static_cast<std::size_t>(
      periods_per_sample * static_cast<double>(bits_wanted + 2) + 256));

  const auto periods = analysis::periods_ps(osc.output());
  const auto jitter = analysis::summarize_jitter(periods);

  trng::ElementaryTrngConfig config;
  config.sampling_period = sampling_period;
  config.start = osc.output().transitions().front().at;
  const auto bits =
      trng::elementary_trng_bits(osc.output(), config, bits_wanted);

  const double h_bound = trng::entropy_lower_bound(
      jitter.period_jitter_ps, jitter.mean_period_ps, sampling_period);

  std::printf("%s sampled at %.2f MHz (T_ring = %.0f ps, sigma_p = %.2f ps)\n",
              spec.name().c_str(), 1e6 / sampling_period.ps(),
              jitter.mean_period_ps, jitter.period_jitter_ps);
  std::printf("  raw bits: bias = %.4f   H1 = %.4f   H8 = %.4f   lag-1 "
              "autocorr = %+.3f\n",
              analysis::bit_bias(bits), analysis::shannon_entropy_per_bit(bits),
              analysis::block_entropy_per_bit(bits, 8),
              analysis::bit_autocorrelation(bits, 1));
  std::printf("  model entropy bound at this rate: H >= %.3f bits/bit "
              "(raw bits are NOT full entropy)\n",
              h_bound);

  // Post-processing: XOR-decimate by 8 (entropy accumulates over 8 sample
  // intervals per output bit), then estimate its SP 800-90B min-entropy.
  const auto decimated = trng::xor_decimate(bits, 8);
  std::printf("  after XOR-8 decimation (%zu bits): bias = %.4f   H8 = %.4f  "
              " 90B min-entropy = %.4f\n",
              decimated.size(), analysis::bit_bias(decimated),
              analysis::block_entropy_per_bit(decimated, 8),
              analysis::estimate_entropy90b(
                  analysis::BitStream::from_bits(decimated))
                  .min_entropy);
  const auto corrected = trng::von_neumann(bits);
  std::printf("  von Neumann keeps %zu bits at bias = %.4f\n\n",
              corrected.size(), analysis::bit_bias(corrected));
}

}  // namespace

int main() {
  std::printf("Elementary ring-oscillator TRNG demo\n");
  std::printf("====================================\n\n");
  const Time fs = Time::from_ns(250.0);  // 4 MHz reference clock
  const std::size_t bits = 32768;
  demo(RingSpec::str(24), fs, bits);
  demo(RingSpec::iro(5), fs, bits);
  std::printf(
      "Design rule made quantitative by trng::required_sampling_period():\n"
      "to reach H >= 0.997 per RAW bit, a 3.4 ps / 2.3 ns STR must be\n"
      "sampled below ~%.1f kHz — which is why practical generators sample\n"
      "faster and post-process, and why the quality of the *random* jitter\n"
      "component (the paper's subject) is the real currency.\n",
      1e9 / trng::required_sampling_period(0.997, 3.4, 2310.0).ps());
  return 0;
}
