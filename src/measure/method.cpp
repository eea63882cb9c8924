#include "measure/method.hpp"

#include <cmath>

#include "analysis/periods.hpp"
#include "common/require.hpp"
#include "common/stats.hpp"

namespace ringent::measure {

JitterMethodResult measure_sigma_p(const std::vector<Time>& rising_edges,
                                   unsigned n, Oscilloscope& scope,
                                   Time divider_tap_delay) {
  DividerConfig divider;
  divider.n = n;
  divider.tap_delay = divider_tap_delay;
  const std::vector<Time> mes_edges =
      divide_rising_edges(rising_edges, divider);
  RINGENT_REQUIRE(mes_edges.size() >= 5,
                  "need at least 5 divided edges; record more ring periods");

  const std::vector<double> mes_periods = scope.measure_periods_ps(mes_edges);
  const std::vector<double> deltas = analysis::first_differences(mes_periods);

  JitterMethodResult out;
  out.n = n;
  out.mes_periods = mes_periods.size();
  out.sigma_cc_mes_ps = describe(deltas).stddev();

  // One osc_mes period sums `count` = 2^n ring periods; in the paper's
  // notation Tmes = sum of 2n' periods, so n' = count/2 and Eq. 6 reads
  // sigma_p = sigma_cc / (2 sqrt(n')) = sigma_cc / sqrt(2 * count).
  const double count = static_cast<double>(std::size_t{1} << n);
  out.sigma_p_ps = out.sigma_cc_mes_ps / std::sqrt(2.0 * count);
  out.mean_period_ps = describe(mes_periods).mean() / count;

  if (deltas.size() >= 20) {
    out.hypothesis = analysis::jarque_bera(deltas);
  }
  return out;
}

double iro_sigma_g_ps(double sigma_p_ps, std::size_t stages) {
  RINGENT_REQUIRE(stages >= 1, "need >= 1 stage");
  RINGENT_REQUIRE(sigma_p_ps >= 0.0, "negative jitter");
  return sigma_p_ps / std::sqrt(2.0 * static_cast<double>(stages));
}

double iro_sigma_p_ps(double sigma_g_ps, std::size_t stages) {
  RINGENT_REQUIRE(stages >= 1, "need >= 1 stage");
  RINGENT_REQUIRE(sigma_g_ps >= 0.0, "negative jitter");
  return std::sqrt(2.0 * static_cast<double>(stages)) * sigma_g_ps;
}

double str_sigma_p_ps(double sigma_g_ps) {
  RINGENT_REQUIRE(sigma_g_ps >= 0.0, "negative jitter");
  return std::sqrt(2.0) * sigma_g_ps;
}

double str_sigma_g_ps(double sigma_p_ps) {
  RINGENT_REQUIRE(sigma_p_ps >= 0.0, "negative jitter");
  return sigma_p_ps / std::sqrt(2.0);
}

}  // namespace ringent::measure
