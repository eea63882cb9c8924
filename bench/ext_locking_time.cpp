// Extension — locking transient: how long until a ring reaches the
// evenly-spaced steady regime (Fig. 5's left-to-right evolution, measured).
//
// A TRNG must not emit bits before its entropy source reaches the
// characterized regime; the time-to-lock sets the minimum start-up delay a
// health check has to enforce. Sweeps ring length and Charlie magnitude from
// the worst-case clustered initialization.
#include <cstdio>
#include <vector>

#include "core/calibration.hpp"
#include "core/oscillator.hpp"
#include "core/report.hpp"
#include "ring/mode.hpp"

using namespace ringent;
using namespace ringent::core;

namespace {

ring::LockingResult lock_time(std::size_t stages, std::size_t tokens,
                              double charlie_scale) {
  // The bare calibrated stage, Charlie magnitude scaled: no routing, no
  // noise, every transition recorded from t = 0.
  Calibration cal = cyclone_iii();
  cal.str_d_charlie = cal.str_d_charlie.scaled(charlie_scale);
  cal.str_routing =
      fpga::RoutingModel({{3, Time::zero()}, {4, Time::zero()}});
  BuildOptions options;
  options.sigma_g_ps = 0.0;
  options.warmup_periods = 0;
  Oscillator osc = Oscillator::build(
      RingSpec::str(stages, tokens, ring::TokenPlacement::clustered), cal,
      options);
  osc.run_for(Time::from_us(40.0));
  std::vector<Time> times;
  for (const auto& tr : osc.output().transitions()) times.push_back(tr.at);
  return ring::time_to_lock(times, 48, 0.05);
}

}  // namespace

int main() {
  std::printf("# Extension: locking transient from a clustered start "
              "(worst case)\n\n");

  std::printf("time to evenly-spaced lock vs ring length (NT = NB, "
              "calibrated Dch):\n");
  Table by_length({"L", "NT", "locked", "lock time", "in periods"});
  for (std::size_t stages : {8u, 16u, 32u, 64u, 96u}) {
    std::size_t tokens = stages / 2;
    if (tokens % 2 == 1) --tokens;
    const auto r = lock_time(stages, tokens, 1.0);
    const double period_ps = 4.0 * (260.0 + 123.0);  // no routing here
    by_length.add_row(
        {std::to_string(stages), std::to_string(tokens),
         r.locked ? "yes" : "NO",
         r.locked ? fmt_double(r.lock_time.ns(), 2) + " ns" : "-",
         r.locked ? fmt_double(r.lock_time.ps() / period_ps, 0) : "-"});
  }
  std::printf("%s\n", by_length.str().c_str());

  std::printf("time to lock vs Charlie magnitude (L = 32, NT = 8, "
              "clustered):\n");
  Table by_dch({"Dch scale", "locked within 40 us", "lock time"});
  for (double scale : {2.0, 1.0, 0.5, 0.2, 0.1, 0.05}) {
    const auto r = lock_time(32, 8, scale);
    by_dch.add_row({fmt_double(scale, 2), r.locked ? "yes" : "NO",
                    r.locked ? fmt_double(r.lock_time.ns(), 2) + " ns" : "-"});
  }
  std::printf("%s\n", by_dch.str().c_str());
  std::printf("takeaway: with the calibrated Charlie effect the lock settles\n"
              "within tens of periods even from the worst-case cluster; the\n"
              "transient stretches as Dch shrinks and never completes in the\n"
              "burst regime — a quantitative version of Fig. 5.\n");
  return 0;
}
