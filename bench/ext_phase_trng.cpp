// Extension — multi-phase STR TRNG (the paper's announced future work).
//
// All L stage outputs are latched at once by a fast reference clock (40
// MHz); the XOR of the snapshot is the raw bit. With gcd(L, NT) = 1 the
// stage firings cover L equidistant phases — resolution dPhi = T/(2L) — so
// the XOR bit behaves like a sample of a virtual oscillator at L x f_ring
// (~30 GHz for 95 stages): full entropy needs accumulated jitter ~ dPhi
// instead of ~ T/2. Because STR period jitter is length-independent
// (Fig. 12), every added stage buys resolution for free: entropy per raw
// bit rises with L at a fixed sampling rate. The last row shows the
// degenerate NT = NB case (gcd = NT -> only 2 firing instants per half
// period), which the phase-coverage condition exists to avoid.
#include <cstdio>
#include <numeric>
#include <vector>

#include "analysis/bitstream.hpp"
#include "analysis/entropy.hpp"
#include "analysis/entropy90b.hpp"
#include "analysis/jitter.hpp"
#include "analysis/periods.hpp"
#include "core/experiments.hpp"
#include "core/oscillator.hpp"
#include "core/report.hpp"
#include "trng/phase_trng.hpp"

using namespace ringent;
using namespace ringent::core;

namespace {

void row(Table& table, std::size_t stages, std::size_t tokens,
         const Time fs, std::size_t bit_count) {
  const auto& cal = cyclone_iii();
  BuildOptions build;
  build.trace_all_stages = true;
  build.warmup_periods = 128;
  Oscillator osc =
      Oscillator::build(RingSpec::str(stages, tokens), cal, build);
  const double per_bit = fs.ps() / osc.nominal_period().ps();
  osc.run_periods(static_cast<std::size_t>(
      per_bit * static_cast<double>(bit_count + 2) + 256));

  const auto periods = analysis::periods_ps(osc.str()->output());
  const auto jitter = analysis::summarize_jitter(periods);
  const double acc_ps =
      jitter.period_jitter_ps * std::sqrt(fs.ps() / jitter.mean_period_ps);

  trng::PhaseTrngConfig config;
  config.sampling_period = fs;
  config.start = osc.str()->output().transitions().front().at;
  const auto result = trng::phase_trng_bits(
      osc.str()->stage_traces(), config, bit_count, jitter.mean_period_ps);

  const std::size_t phases =
      stages / std::gcd(stages, tokens);
  char cfg[32];
  std::snprintf(cfg, sizeof(cfg), "L=%zu NT=%zu", stages, tokens);
  table.add_row({cfg, std::to_string(phases),
                 fmt_double(jitter.mean_period_ps /
                                (2.0 * static_cast<double>(phases)),
                            1),
                 fmt_double(acc_ps, 1),
                 fmt_double(analysis::bit_bias(result.bits), 3),
                 fmt_double(analysis::shannon_entropy_per_bit(result.bits), 4),
                 fmt_double(analysis::block_entropy_per_bit(result.bits, 8),
                            4),
                 fmt_double(analysis::estimate_entropy90b(
                                analysis::BitStream::from_bits(result.bits))
                                .min_entropy,
                            4)});
}

}  // namespace

int main() {
  const Time fs = Time::from_ns(25.0);  // 40 MHz reference clock
  const std::size_t bit_count = 2048;

  std::printf("# Extension: multi-phase STR TRNG, raw-bit entropy vs ring "
              "length\n");
  std::printf("# 40 MHz reference latching all stages; XOR of the snapshot "
              "is the raw bit\n\n");

  Table table({"config", "phases", "dPhi (ps)", "acc jitter/sample (ps)",
               "bias", "H1", "H8", "90B min-entropy"});
  // Coprime (L, NT) pairs near the ideal NT/NB ratio: full phase coverage.
  row(table, 9, 4, fs, bit_count);
  row(table, 15, 8, fs, bit_count);
  row(table, 33, 16, fs, bit_count);
  row(table, 65, 32, fs, bit_count);
  row(table, 95, 48, fs, bit_count);
  // The degenerate case: NT = NB has gcd = NT -> 2 phases only.
  row(table, 96, 48, fs, bit_count);
  std::printf("%s\n", table.str().c_str());
  std::printf(
      "checks: with coprime (L, NT) the phase ruler refines ~1/L while the\n"
      "accumulated jitter per sample stays put (Fig. 12!), so H8 climbs\n"
      "with ring length and the 95-stage generator approaches full entropy\n"
      "at a 40 MHz raw bit rate — where the single-phase elementary TRNG\n"
      "needs kHz-range sampling. The NT = NB row collapses to 2 phases and\n"
      "almost no entropy: the phase-coverage condition gcd(L, NT) = 1 is\n"
      "load-bearing. This quantifies the paper's closing claim that each\n"
      "STR stage is an independent entropy source.\n");
  return 0;
}
