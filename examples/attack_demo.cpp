// Supply-modulation attack on ring-oscillator entropy sources (paper
// Sec. IV-B, refs [1][2]).
//
// An attacker superimposes a sine on the core rail. Everything the tone
// contributes to the output timing is deterministic and attacker-known — it
// adds NO entropy, but blind statistical tests cannot tell it from noise.
// This demo quantifies the attack in the domain where the paper argues
// (period jitter):
//   * deterministic period swing under attack, IRO vs STR at equal stage
//     count — the STR's token spacing attenuates the absolute tone by close
//     to an order of magnitude;
//   * the det/random budget ratio — the fraction of observed "jitter" an
//     attacker controls;
//   * end-to-end evidence on the bit stream of an IRO-based generator: the
//     attack tone shows up as a spectral line in the sampled bits, which
//     the on-board linear regulator suppresses;
//   * what a FIELDED generator does about it: the same attack against the
//     health-monitored pipeline (run_attack_resilience) — the IRO's
//     monitors alarm and the generator mutes/re-locks, the matched STR
//     rides the whole attack out.
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "analysis/fft.hpp"
#include "analysis/periods.hpp"
#include "common/stats.hpp"
#include "core/experiments.hpp"
#include "core/oscillator.hpp"
#include "trng/elementary.hpp"
#include "trng/resilient.hpp"

using namespace ringent;
using namespace ringent::core;

namespace {

struct PeriodReading {
  double mean_ps = 0.0;
  double det_swing_ps = 0.0;  ///< (p99 - p1)/2 of periods: tone + noise tails
  double random_ps = 0.0;     ///< c2c/sqrt(2): modulation-immune
};

PeriodReading period_domain(const RingSpec& spec, double attack_mv,
                            double attack_hz, bool regulator_on) {
  const auto& cal = cyclone_iii();
  fpga::Supply supply(cal.nominal_voltage);
  supply.set_modulation(fpga::Modulation::sine(attack_mv * 1e-3, attack_hz));
  fpga::Regulator regulator;
  regulator.ac_attenuation = regulator_on ? 0.08 : 1.0;
  supply.set_regulator(regulator);

  BuildOptions build;
  build.supply = &supply;
  Oscillator osc = Oscillator::build(spec, cal, build);
  osc.run_periods(60000);

  std::vector<double> periods = analysis::periods_ps(osc.output());
  PeriodReading out;
  out.mean_ps = describe(periods).mean();
  const double p99 = percentile(periods, 99.0);
  const double p1 = percentile(periods, 1.0);
  out.det_swing_ps = (p99 - p1) / 2.0;
  const auto diffs = analysis::first_differences(periods);
  out.random_ps = describe(diffs).stddev() / std::sqrt(2.0);
  return out;
}

void bit_stream_line(double attack_mv, bool regulator_on) {
  const auto& cal = cyclone_iii();
  const double attack_hz = 190e3;
  const Time fs = Time::from_ns(250.0);  // 4 MHz sampling
  const RingSpec spec = RingSpec::iro(25);

  fpga::Supply supply(cal.nominal_voltage);
  supply.set_modulation(fpga::Modulation::sine(attack_mv * 1e-3, attack_hz));
  fpga::Regulator regulator;
  regulator.ac_attenuation = regulator_on ? 0.08 : 1.0;
  supply.set_regulator(regulator);

  BuildOptions build;
  build.supply = &supply;
  Oscillator osc = Oscillator::build(spec, cal, build);

  const std::size_t bit_count = 32768;
  osc.run_periods(static_cast<std::size_t>(
      fs.ps() / osc.nominal_period().ps() * (bit_count + 2.0) + 256));

  trng::ElementaryTrngConfig config;
  config.sampling_period = fs;
  config.start = osc.output().transitions().front().at;
  const auto bits = trng::elementary_trng_bits(osc.output(), config, bit_count);

  std::vector<double> series(bits.begin(), bits.end());
  const double tone_cycles = attack_hz * fs.seconds();
  const double line = analysis::tone_amplitude(series, tone_cycles);
  std::printf("  %3.0f mV attack, regulator %-3s: bit-stream line at f_attack "
              "= %.4f (blind-noise floor ~ %.4f)\n",
              attack_mv, regulator_on ? "on" : "off", line,
              2.0 / std::sqrt(static_cast<double>(bit_count)));
}

void resilience_section() {
  // The operational ending of the story: run ONLY the tuned supply-tone
  // scenario from the paper-default sweep against both topologies and show
  // what the degradation state machine does about it.
  AttackResilienceSpec spec = AttackResilienceSpec::paper_default();
  spec.scenarios = {spec.scenarios.at(1)};  // "supply-tone"
  const auto result = run_attack_resilience(spec, cyclone_iii());

  std::printf("  %-8s %-9s %-12s %-14s %-8s %s\n", "ring", "final",
              "detect@bit", "recover(bits)", "muted", "transitions");
  for (const auto& cell : result.cells) {
    const std::string detect =
        cell.detection_latency_bits < 0
            ? "-"
            : std::to_string(cell.detection_latency_bits);
    const std::string recover =
        cell.recovery_bits < 0 ? "-" : std::to_string(cell.recovery_bits);
    std::printf("  %-8s %-9s %-12s %-14s %5.1f%%   %zu\n",
                cell.ring.name().c_str(), trng::to_string(cell.final_state),
                detect.c_str(), recover.c_str(), 100.0 * cell.muted_fraction,
                cell.transitions.size());
  }
}

}  // namespace

int main() {
  std::printf("Supply-modulation attack demo\n");
  std::printf("=============================\n\n");

  std::printf("period domain, 100 mV sine @ 37 kHz, no regulator, equal "
              "stage count:\n");
  std::printf("  %-8s %-12s %-18s %-14s %s\n", "ring", "T (ps)",
              "det swing (ps)", "random (ps)", "det/random");
  for (const RingSpec& spec : {RingSpec::iro(25), RingSpec::str(24)}) {
    const PeriodReading quiet = period_domain(spec, 0.0001, 37e3, false);
    const PeriodReading hit = period_domain(spec, 100.0, 37e3, false);
    std::printf("  %-8s %-12.1f %6.1f -> %-8.1f %5.2f -> %-6.2f %8.1f\n",
                spec.name().c_str(), hit.mean_ps, quiet.det_swing_ps,
                hit.det_swing_ps, quiet.random_ps, hit.random_ps,
                hit.det_swing_ps / hit.random_ps);
  }

  std::printf("\nbit stream of the IRO 25C elementary TRNG (4 MHz sampling, "
              "190 kHz tone):\n");
  bit_stream_line(0.001, true);
  bit_stream_line(100.0, true);
  bit_stream_line(100.0, false);

  std::printf("\nfielded generator under the tuned 2 kHz tone "
              "(health monitors + degradation policy):\n");
  resilience_section();

  std::printf(
      "\nReading the results:\n"
      " * the attack multiplies the IRO's deterministic period swing to\n"
      "   ~60x its random jitter, while the STR at the same stage count\n"
      "   absorbs most of the absolute tone (paper Sec. IV-B);\n"
      " * everything in the 'det' column is attacker-known — it inflates\n"
      "   measured jitter without adding entropy, which is why entropy\n"
      "   estimation must use the random component only (ref [2]);\n"
      " * on the bit stream, the attack prints a spectral line at the tone\n"
      "   frequency; the boards' linear regulator exists to suppress this\n"
      "   lever, and simple pass/fail test batteries never see it;\n"
      " * a health-monitored generator turns the physics into an action:\n"
      "   the IRO's RCT alarms mid-attack and the pipeline mutes, re-locks\n"
      "   and recovers, while the matched STR never leaves healthy —\n"
      "   `ringent_cli run examples/plans/figures/ext_attack_resilience.json`\n"
      "   sweeps the full scenario matrix.\n");
  return 0;
}
