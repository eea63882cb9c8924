// Extension — multi-ring XOR TRNG (Sunar-style) built on each ring family.
//
// N independent rings are latched by a 4 MHz reference and XOR-ed. More
// rings -> more combined phase diffusion per sample -> cleaner bits. The
// bench sweeps N and reports the SP 800-90B min-entropy and Markov estimate
// of the XOR-ed bits: the classic result that a single fast ring is far from
// sufficient, and a handful XOR-ed together approach full entropy. STR banks
// climb with a similar N while each member keeps the robustness properties
// of Tables I/II — the reason the paper proposes STRs for exactly these
// constructions.
#include <cstdio>
#include <vector>

#include "analysis/bitstream.hpp"
#include "analysis/entropy.hpp"
#include "analysis/entropy90b.hpp"
#include "core/experiments.hpp"
#include "core/oscillator.hpp"
#include "core/report.hpp"
#include "trng/multiring.hpp"

using namespace ringent;
using namespace ringent::core;

namespace {

constexpr std::size_t bit_count = 16384;
const Time sampling = Time::from_ns(250.0);

void bank(const char* label, RingKind kind, std::size_t stages,
          std::size_t max_rings) {
  const auto& cal = cyclone_iii();

  // Build and run all rings up front; each gets distinct silicon via
  // lut_base and a distinct noise stream.
  std::vector<Oscillator> rings;
  const fpga::Board board(20120312, 0, cal.process);
  for (std::size_t r = 0; r < max_rings; ++r) {
    const RingSpec spec =
        kind == RingKind::iro ? RingSpec::iro(stages) : RingSpec::str(stages);
    BuildOptions build;
    build.board = &board;
    build.lut_base = r * 256;
    build.warmup_periods = 128;
    rings.push_back(Oscillator::build(spec, cal, build));
    const double per_bit = sampling.ps() / rings.back().nominal_period().ps();
    rings.back().run_periods(
        static_cast<std::size_t>(per_bit * (bit_count + 2.0) + 256));
  }

  std::printf("%s bank (%zu-stage rings, %zu bits @ 4 MHz):\n", label, stages,
              bit_count);
  Table table({"N rings", "bias", "H8", "90B min-entropy", "90B H_Markov"});
  for (std::size_t n = 1; n <= max_rings; n *= 2) {
    std::vector<const sim::SignalTrace*> traces;
    for (std::size_t r = 0; r < n; ++r) traces.push_back(&rings[r].output());
    trng::MultiRingConfig config;
    config.sampling_period = sampling;
    config.start = Time::from_us(1.0);
    const auto bits = trng::multi_ring_bits(traces, config, bit_count);
    const auto h90b =
        analysis::estimate_entropy90b(analysis::BitStream::from_bits(bits));
    table.add_row({std::to_string(n),
                   fmt_double(analysis::bit_bias(bits), 4),
                   fmt_double(analysis::block_entropy_per_bit(bits, 8), 4),
                   fmt_double(h90b.min_entropy, 4),
                   fmt_double(h90b.h_markov, 4)});
  }
  std::printf("%s\n", table.str().c_str());
}

}  // namespace

int main() {
  std::printf("# Extension: multi-ring XOR TRNG, SP 800-90B min-entropy vs "
              "bank size\n\n");
  bank("IRO 5C", RingKind::iro, 5, 8);
  bank("STR 8C", RingKind::str, 8, 8);
  std::printf("note: at this deliberately fast sampling a single ring is\n"
              "strongly correlated sample-to-sample; XOR-ing independent\n"
              "rings multiplies the diffusion and the min-entropy climbs.\n");
  return 0;
}
