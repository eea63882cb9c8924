// Fig. 7 — the Charlie diagram: stage propagation delay vs input separation.
//
// Prints charlie(s) for the calibrated Cyclone III stage together with the
// bounding lines Ds + |s| and two alternative Charlie magnitudes, as CSV
// series ready for plotting, plus an ASCII sketch.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/calibration.hpp"
#include "core/oscillator.hpp"
#include "ring/charlie.hpp"
#include "ring/diagram.hpp"

using namespace ringent;

int main() {
  const auto& cal = core::cyclone_iii();
  const double ds = cal.str_d_static.ps();
  const double dch = cal.str_d_charlie.ps();

  std::printf("# Fig. 7 reproduction: Charlie diagram\n");
  std::printf("# charlie(s) = Ds + sqrt(Dch^2 + s^2), calibrated Ds=%.0f ps, "
              "Dch=%.0f ps\n",
              ds, dch);
  std::printf("s_ps,charlie_ps,envelope_ps,weak_dch_%.0f_ps,strong_dch_%.0f_ps\n",
              dch / 4.0, dch * 2.0);
  for (double s = -400.0; s <= 400.0 + 1e-9; s += 20.0) {
    const double envelope = ds + std::abs(s);
    std::printf("%.0f,%.2f,%.2f,%.2f,%.2f\n", s,
                ring::charlie_delay_ps(ds, dch, s), envelope,
                ring::charlie_delay_ps(ds, dch / 4.0, s),
                ring::charlie_delay_ps(ds, dch * 2.0, s));
  }

  std::printf("\n# ASCII sketch (x: s in [-400,400] ps, y: delay)\n");
  const int rows = 16, cols = 61;
  const double y_lo = ds, y_hi = ds + 450.0;
  for (int r = rows; r >= 0; --r) {
    const double y = y_lo + (y_hi - y_lo) * r / rows;
    std::string line(cols, ' ');
    for (int c = 0; c < cols; ++c) {
      const double s = -400.0 + 800.0 * c / (cols - 1);
      const double v = ring::charlie_delay_ps(ds, dch, s);
      const double step = (y_hi - y_lo) / rows;
      if (std::abs(v - y) < step / 2) line[c] = '*';
    }
    std::printf("%7.0f |%s\n", y, line.c_str());
  }
  std::printf("        +%s\n", std::string(cols, '-').c_str());
  std::printf("        -400 ps %*s +400 ps\n", cols - 16, "s");
  std::printf("\n# Note the flat bottom around s = 0: variations are smoothed "
              "(the evenly-spaced\n# locking mechanism, paper Sec. II-D.3).\n");

  // --- measured curve: operating points recovered from *running* rings.
  // Different token counts park the ring at different steady separations
  // (ring/analytic.hpp); per-stage noise samples the curve around each.
  std::printf("\n# measured Charlie curve from running 32-stage STRs "
              "(NT = 4..28, 8 ps probe noise)\n");
  std::printf("s_measured_ps,latency_measured_ps,latency_eq3_ps,samples\n");
  // The bare calibrated stage (no routing), every transition recorded
  // from t = 0.
  core::Calibration bare = cal;
  bare.str_routing =
      fpga::RoutingModel({{3, Time::zero()}, {4, Time::zero()}});
  std::vector<ring::CharliePoint> points;
  for (std::size_t tokens : {4u, 8u, 12u, 16u, 20u, 24u, 28u}) {
    core::BuildOptions options;
    options.sigma_g_ps = 8.0;
    options.noise_seed = derive_seed(7, "probe", tokens);
    options.warmup_periods = 0;
    options.trace_all_stages = true;
    core::Oscillator osc = core::Oscillator::build(
        core::RingSpec::str(32, tokens, ring::TokenPlacement::evenly_spread),
        bare, options);
    osc.run_for(Time::from_us(3.0));
    const auto extracted =
        ring::extract_charlie_points(osc.str()->stage_traces(), 64);
    points.insert(points.end(), extracted.begin(), extracted.end());
  }
  for (const auto& bin : ring::binned_charlie_curve(points, 25.0, 50)) {
    std::printf("%.1f,%.2f,%.2f,%zu\n", bin.separation_ps, bin.latency_ps,
                ring::charlie_delay_ps(ds, dch, bin.separation_ps), bin.count);
  }
  std::printf("# the measured latencies must sit on the Eq. 3 curve — the\n"
              "# stage model is validated from ring operation, not just by\n"
              "# construction.\n");
  return 0;
}
