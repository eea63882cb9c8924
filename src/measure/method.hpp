// The paper's jitter measurement method (Sec. V-D.2, Fig. 10, Eq. 6).
//
// Direct oscilloscope measurement of a ~3 ps period jitter is biased by the
// instrument floor. Instead: divide the oscillator by 2^n on-chip; one
// osc_mes period sums 2^n i.i.d. ring periods, so its variance is 2^n *
// sigma_p^2 and the cycle-to-cycle variance of osc_mes is twice that. The
// slow signal's cycle-to-cycle jitter is far above the scope floor, and
//
//     sigma_p = sigma_cc_mes / (2 sqrt(n'))        with n' = 2^n   (Eq. 6)
//
// (the paper writes n for the count 2^n inside the radical). Using the
// cycle-to-cycle statistic also cancels slow deterministic drift; the
// method's validity hypothesis — successive-period differences of osc_mes
// are Gaussian — is checked explicitly, as the paper prescribes.
#pragma once

#include <cstddef>
#include <vector>

#include "analysis/normality.hpp"
#include "common/time.hpp"
#include "measure/divider.hpp"
#include "measure/oscilloscope.hpp"

namespace ringent::measure {

struct JitterMethodResult {
  double sigma_p_ps = 0.0;       ///< recovered period jitter of the ring
  double sigma_cc_mes_ps = 0.0;  ///< measured c2c jitter of osc_mes
  double mean_period_ps = 0.0;   ///< recovered ring mean period
  unsigned n = 0;                ///< divider exponent used
  std::size_t mes_periods = 0;   ///< osc_mes periods observed
  analysis::NormalityResult hypothesis;  ///< Gaussianity of the c2c deltas
};

/// Apply the method to a ring's true rising-edge list through an instrument.
/// Requires at least (3 + 2) * 2^n edges.
JitterMethodResult measure_sigma_p(const std::vector<Time>& rising_edges,
                                   unsigned n, Oscilloscope& scope,
                                   Time divider_tap_delay = Time::zero());

/// Derive the per-gate jitter from an IRO's period jitter: Eq. 7,
/// sigma_g = sigma_p / sqrt(2k).
double iro_sigma_g_ps(double sigma_p_ps, std::size_t stages);

/// Forward prediction of Eq. 4: sigma_p = sqrt(2k) * sigma_g.
double iro_sigma_p_ps(double sigma_g_ps, std::size_t stages);

/// Forward prediction of Eq. 5 for STRs: sigma_p ~ sqrt(2) * sigma_g,
/// independent of the stage count.
double str_sigma_p_ps(double sigma_g_ps);

/// Derive the per-gate jitter from an STR's period jitter, the inverse of
/// Eq. 5: sigma_g = sigma_p / sqrt(2), whatever the stage count.
double str_sigma_g_ps(double sigma_p_ps);

}  // namespace ringent::measure
