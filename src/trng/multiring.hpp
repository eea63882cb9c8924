// Multi-ring TRNG (Sunar et al. / Wold-Tan style): XOR of several
// independent free-running rings, latched by one reference clock.
//
// Each ring contributes its own phase diffusion; XOR-ing N rings multiplies
// the per-sample unpredictability without slowing the reference clock. The
// paper's Table II angle: the construction's entropy model assumes ring
// frequencies that stay distinct and within design bounds on every device —
// easier to guarantee with STRs. Used by the ext_multiring bench to compare
// the SP 800-90B min-entropy of IRO and STR banks as rings are added at a
// given sampling rate.
#pragma once

#include <cstdint>
#include <vector>

#include "common/time.hpp"
#include "sim/probe.hpp"
#include "trng/sampler.hpp"

namespace ringent::trng {

struct MultiRingConfig {
  Time sampling_period = Time::from_ns(250.0);
  Time start = Time::zero();
  SamplerConfig sampler{};
};

/// Latch every ring at the same instants and XOR the sampled bits.
/// All traces must cover [start, start + count * period].
std::vector<std::uint8_t> multi_ring_bits(
    const std::vector<const sim::SignalTrace*>& rings,
    const MultiRingConfig& config, std::size_t count);

}  // namespace ringent::trng
