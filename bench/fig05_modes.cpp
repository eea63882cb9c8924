// Fig. 5 — burst vs evenly-spaced propagation modes.
//
// Two 16-stage rings start from the same clustered token pattern:
//  * with the calibrated Charlie effect the cluster disperses and the ring
//    locks into the evenly-spaced mode (paper Fig. 5, bottom);
//  * with the Charlie magnitude ablated to ~0 the cluster survives as a
//    burst (paper Fig. 5, top).
// Prints a token-position raster over time (each row = one snapshot) and the
// classifier verdicts, plus a VCD dump per ring for waveform viewers.
#include <cstdio>
#include <string>
#include <vector>

#include "core/calibration.hpp"
#include "core/oscillator.hpp"
#include "ring/mode.hpp"
#include "sim/ascii_wave.hpp"
#include "sim/vcd.hpp"

using namespace ringent;
using namespace ringent::literals;

namespace {

void demo(const char* label, Time d_charlie, const char* vcd_path) {
  // The bare calibrated stage with the Charlie magnitude under study: no
  // routing, no noise, every transition recorded from t = 0.
  core::Calibration cal = core::cyclone_iii();
  cal.str_d_charlie = d_charlie;
  cal.str_routing =
      fpga::RoutingModel({{3, Time::zero()}, {4, Time::zero()}});
  core::BuildOptions options;
  options.sigma_g_ps = 0.0;
  options.warmup_periods = 0;
  options.trace_all_stages = true;
  core::Oscillator osc = core::Oscillator::build(
      core::RingSpec::str(16, 4, ring::TokenPlacement::clustered), cal,
      options);
  const ring::Str& str = *osc.str();

  std::printf("--- %s (Dch = %.1f ps), 16 stages, NT=4 clustered ---\n", label,
              d_charlie.ps());
  std::printf("    time      token raster (T = token)\n");
  for (int snapshot = 0; snapshot < 24; ++snapshot) {
    std::printf("  %7.2f ns  %s\n", osc.now().ns(),
                ring::token_string(str.state()).c_str());
    osc.run_for(Time::from_ps(650.0));
  }

  // Let it settle further, then classify from one stage's transitions.
  osc.run_for(Time::from_us(1.0));
  std::vector<Time> times;
  for (const auto& tr : str.output().transitions()) times.push_back(tr.at);
  // Skip the locking transient.
  const std::size_t skip = times.size() / 2;
  const auto verdict = ring::classify_mode(
      std::vector<Time>(times.begin() + skip, times.end()));
  std::printf("  classifier: %s (interval CV = %.3f, spread p95/p5 = %.2f)\n",
              ring::to_string(verdict.mode), verdict.interval_cv,
              verdict.spread_ratio);

  // Terminal waveform of the first few stages over the first microsecond
  // window after settling, plus the full dump for GTKWave.
  sim::AsciiWaveOptions wave;
  wave.from = Time::from_ns(12.0);
  wave.to = Time::from_ns(22.0);
  wave.columns = 64;
  std::vector<const sim::SignalTrace*> shown;
  for (std::size_t i = 0; i < 6; ++i) shown.push_back(&str.stage_traces()[i]);
  std::printf("\n  stage outputs C0..C5, 12-22 ns:\n%s",
              sim::ascii_waves(shown, wave).c_str());

  sim::VcdWriter vcd("str16");
  for (const auto& trace : str.stage_traces()) vcd.add_signal(trace);
  vcd.write_file(vcd_path);
  std::printf("  waveforms: %s\n\n", vcd_path);
}

}  // namespace

int main() {
  std::printf("# Fig. 5 reproduction: token propagation modes\n\n");
  demo("burst mode persists without Charlie effect", Time::from_ps(1.0),
       "fig05_burst.vcd");
  demo("evenly-spaced locking with calibrated Charlie effect",
       core::cyclone_iii().str_d_charlie, "fig05_evenly_spaced.vcd");
  std::printf("paper check: identical initial cluster, opposite steady "
              "regimes —\nthe Charlie effect alone decides the mode.\n");
  return 0;
}
