// Extension — an AIS-31-flavoured entropy-source characterization report.
//
// Pulls every evaluation layer of the library together for one candidate
// source (default: the paper's STR 96C) the way a certification dossier
// would: physical characterization (frequency, jitter, Gaussianity,
// stability), stochastic model (jitter -> entropy bound + restart
// validation), raw-bit statistics at the chosen sampling rate, and the
// on-line health tests a deployment must run. Every number is regenerated
// from simulation; nothing is quoted.
#include <cmath>
#include <cstdio>

#include "analysis/autocorr.hpp"
#include "analysis/bitstream.hpp"
#include "analysis/entropy.hpp"
#include "analysis/entropy90b.hpp"
#include "analysis/jitter.hpp"
#include "analysis/normality.hpp"
#include "analysis/periods.hpp"
#include "common/stats.hpp"
#include "core/experiments.hpp"
#include "core/oscillator.hpp"
#include "core/report.hpp"
#include "measure/frequency.hpp"
#include "trng/elementary.hpp"
#include "trng/entropy_model.hpp"
#include "trng/health.hpp"

using namespace ringent;
using namespace ringent::core;

int main() {
  const auto& cal = cyclone_iii();
  const RingSpec spec = RingSpec::str(96);
  const Time fs = Time::from_ns(250.0);  // 4 MHz raw bit rate

  std::printf("=====================================================\n");
  std::printf(" Entropy-source characterization report: %s\n",
              spec.name().c_str());
  std::printf(" (calibrated Cyclone III model, board 0, seed 20120312)\n");
  std::printf("=====================================================\n\n");

  // --- 1. physical characterization ----------------------------------------
  ExperimentOptions options;
  options.board_index = 0;
  const auto periods = collect_periods_ps(spec, cal, 30000, options);
  const auto jitter = analysis::summarize_jitter(periods);
  const auto gauss = analysis::chi_square_normality(periods);

  std::printf("1. Physical characterization\n");
  std::printf("   frequency             : %.2f MHz\n",
              1e6 / jitter.mean_period_ps);
  std::printf("   period jitter sigma_p : %.2f ps (%.4f%% of T)\n",
              jitter.period_jitter_ps,
              100.0 * jitter.period_jitter_ps / jitter.mean_period_ps);
  std::printf("   jitter Gaussianity    : chi2 p = %.3f (%s)\n",
              gauss.p_value, gauss.gaussian ? "accept" : "REJECT");
  std::printf("   period lag-1 autocorr : %+.3f (Charlie regulation)\n",
              analysis::autocorrelation(periods, 1));

  const auto volt =
      run_voltage_sweep(VoltageSweepSpec{spec, {1.0, 1.2, 1.4}}, cal);
  const auto temp = run_temperature_sweep(
      TemperatureSweepSpec{spec, {-20.0, 25.0, 85.0}}, cal);
  const auto process =
      run_process_variability(ProcessVariabilitySpec{spec, 25, 200}, cal);
  std::printf("   dF (1.0-1.4 V)        : %.1f%%\n", 100.0 * volt.excursion);
  std::printf("   dF (-20-85 C)         : %.2f%%\n", 100.0 * temp.excursion);
  std::printf("   sigma_rel (25 boards) : %.2f%%\n\n",
              100.0 * process.sigma_rel);

  // --- 2. stochastic model ---------------------------------------------------
  const auto restart =
      run_restart_experiment(RestartSpec{spec, 48, 192}, cal, options);
  const double h_bound = trng::entropy_lower_bound(
      jitter.period_jitter_ps, jitter.mean_period_ps, fs);
  std::printf("2. Stochastic model\n");
  std::printf("   restart control       : %s\n",
              restart.control_identical ? "bit-identical (pass)" : "FAIL");
  std::printf("   restart diffusion     : %.2f ps/sqrt(edge) (R^2 = %.3f)\n",
              restart.diffusion_per_edge_ps, restart.fit_r2);
  std::printf("   entropy bound at %.1f MHz sampling: H >= %.4f bits/bit\n",
              1e6 / fs.ps(), h_bound);
  const Time full = trng::required_sampling_period(
      0.997, jitter.period_jitter_ps, jitter.mean_period_ps);
  std::printf("   rate for H >= 0.997   : %.2f kbit/s (T_s = %.2f us)\n\n",
              1e9 / full.ps(), full.ps() * 1e-6);

  // --- 3. raw-bit statistics -------------------------------------------------
  BuildOptions build;
  build.warmup_periods = 128;
  Oscillator osc = Oscillator::build(spec, cal, build);
  const std::size_t bit_count = 8192;
  osc.run_periods(static_cast<std::size_t>(
      fs.ps() / osc.nominal_period().ps() * (bit_count + 2.0) + 256));
  trng::ElementaryTrngConfig trng_config;
  trng_config.sampling_period = fs;
  trng_config.start = osc.output().transitions().front().at;
  const auto bits =
      trng::elementary_trng_bits(osc.output(), trng_config, bit_count);

  std::printf("3. Raw bits at %.0f MHz (%zu bits)\n", 1e6 / fs.ps(),
              bits.size());
  std::printf("   bias = %.4f   H1 = %.4f   H8 = %.4f   min-entropy = %.4f\n",
              analysis::bit_bias(bits),
              analysis::shannon_entropy_per_bit(bits),
              analysis::block_entropy_per_bit(bits, 8),
              analysis::min_entropy_per_bit(bits));
  const auto h90b =
      analysis::estimate_entropy90b(analysis::BitStream::from_bits(bits));
  std::printf("   SP 800-90B            : min-entropy = %.4f   H_Markov = "
              "%.4f\n"
              "                           (raw bits are correlated at this "
              "rate by design —\n"
              "                           see the H8 row; post-processing or "
              "slower sampling required)\n",
              h90b.min_entropy, h90b.h_markov);

  // --- 4. on-line health -----------------------------------------------------
  const double claim = std::max(0.05, h_bound);
  const auto health = trng::run_health_tests(bits, claim);
  std::printf("\n4. On-line health tests (claimed H >= %.3f)\n", claim);
  std::printf("   repetition count      : %s (cutoff %u)\n",
              health.rct_pass ? "pass" : "ALARM", health.rct_cutoff_used);
  std::printf("   adaptive proportion   : %s (cutoff %u / 1024)\n",
              health.apt_pass ? "pass" : "ALARM", health.apt_cutoff_used);

  std::printf("\nVerdict: usable entropy source; security argument rests on\n"
              "the random-jitter stochastic model (sections 1-2), not on\n"
              "blind output statistics (section 3) — the central lesson of\n"
              "the reproduced paper's Sec. IV.\n");
  return 0;
}
