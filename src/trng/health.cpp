#include "trng/health.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/math.hpp"
#include "common/require.hpp"

namespace ringent::trng {

std::uint32_t rct_cutoff(double min_entropy_per_bit, double alpha_log2) {
  RINGENT_REQUIRE(min_entropy_per_bit > 0.0 && min_entropy_per_bit <= 1.0,
                  "min-entropy per bit must be in (0, 1]");
  RINGENT_REQUIRE(alpha_log2 > 0.0, "alpha exponent must be positive");
  return 1 + static_cast<std::uint32_t>(
                 std::ceil(alpha_log2 / min_entropy_per_bit));
}

RepetitionCountTest::RepetitionCountTest(std::uint32_t cutoff)
    : cutoff_(cutoff) {
  RINGENT_REQUIRE(cutoff >= 2, "RCT cutoff must be >= 2");
}

bool RepetitionCountTest::feed(std::uint8_t bit) {
  RINGENT_REQUIRE(bit <= 1, "bits must be 0 or 1");
  if (alarmed_) return false;
  if (bit == last_) {
    ++run_;
  } else {
    last_ = bit;
    run_ = 1;
  }
  if (run_ >= cutoff_) alarmed_ = true;
  return !alarmed_;
}

bool RepetitionCountTest::advance(std::uint64_t word, unsigned count) {
  RINGENT_REQUIRE(count >= 1 && count <= 64, "advance takes 1..64 bits");
  if (alarmed_) return false;
  if (run_ + count >= cutoff_) {
    // Some run might reach the cutoff: find the alarming bit one at a time.
    for (unsigned i = 0; i < count; ++i) {
      if (!feed(static_cast<std::uint8_t>((word >> i) & 1u))) return false;
    }
    return true;
  }
  // No run can reach the cutoff, so only the trailing run survives the
  // word. Shift the bits that differ from the last one to the top: the
  // leading zeros are that run.
  const auto tail_bit = static_cast<std::uint8_t>((word >> (count - 1)) & 1u);
  const std::uint64_t differ = (tail_bit != 0 ? ~word : word) << (64 - count);
  const auto tail = static_cast<std::uint32_t>(
      differ == 0 ? count : std::countl_zero(differ));
  run_ = tail == count && tail_bit == last_ ? run_ + count : tail;
  last_ = tail_bit;
  return true;
}

void RepetitionCountTest::reset() {
  run_ = 0;
  last_ = 2;
  alarmed_ = false;
}

std::uint32_t apt_cutoff(double min_entropy_per_bit, std::size_t window,
                         double alpha_log2) {
  RINGENT_REQUIRE(min_entropy_per_bit > 0.0 && min_entropy_per_bit <= 1.0,
                  "min-entropy per bit must be in (0, 1]");
  RINGENT_REQUIRE(window >= 64, "window must be >= 64");
  // Most-probable-value probability implied by the claim.
  const double p = std::pow(2.0, -min_entropy_per_bit);
  const double n = static_cast<double>(window);
  // One-sided normal tail at 2^-alpha: z such that Q(z) = 2^-alpha.
  // 2^-20 ~ 9.5e-7 -> z ~ 4.76; solve generically via bisection on erfc.
  double lo = 0.0, hi = 12.0;
  const double target = std::pow(2.0, -alpha_log2);
  for (int it = 0; it < 80; ++it) {
    const double mid = (lo + hi) / 2.0;
    if (0.5 * std::erfc(mid / std::sqrt(2.0)) > target) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  const double z = (lo + hi) / 2.0;
  const double mean = n * p;
  const double sd = std::sqrt(n * p * (1.0 - p));
  double cutoff = std::ceil(mean + z * sd + 0.5);
  cutoff = clampd(cutoff, n / 2.0, n);
  return static_cast<std::uint32_t>(cutoff);
}

AdaptiveProportionTest::AdaptiveProportionTest(std::uint32_t cutoff,
                                               std::size_t window)
    : cutoff_(cutoff), window_(window) {
  RINGENT_REQUIRE(window >= 64, "window must be >= 64");
  RINGENT_REQUIRE(cutoff >= window / 2 && cutoff <= window,
                  "cutoff must be in [window/2, window]");
}

bool AdaptiveProportionTest::feed(std::uint8_t bit) {
  RINGENT_REQUIRE(bit <= 1, "bits must be 0 or 1");
  if (alarmed_) return false;
  if (index_ == 0) {
    ref_ = bit;
    count_ = 1;
    index_ = 1;
    return true;
  }
  if (bit == ref_) ++count_;
  if (count_ > cutoff_) {
    alarmed_ = true;
    return false;
  }
  if (++index_ >= window_) index_ = 0;  // start a fresh window
  return true;
}

bool AdaptiveProportionTest::advance(std::uint64_t word, unsigned count) {
  RINGENT_REQUIRE(count >= 1 && count <= 64, "advance takes 1..64 bits");
  if (alarmed_) return false;
  unsigned pos = 0;
  while (pos < count) {
    if (index_ == 0) {
      // The window's first sample becomes the reference: no alarm check.
      feed(static_cast<std::uint8_t>((word >> pos) & 1u));
      ++pos;
      continue;
    }
    const auto len = static_cast<unsigned>(
        std::min<std::size_t>(count - pos, window_ - index_));
    std::uint64_t segment = word >> pos;
    if (len < 64) segment &= (std::uint64_t{1} << len) - 1;
    const auto ones = static_cast<std::uint32_t>(std::popcount(segment));
    const std::uint32_t matches = ref_ == 1 ? ones : len - ones;
    if (count_ + matches > cutoff_) {
      // The alarm falls inside this segment: find its bit one at a time.
      for (unsigned i = 0; !alarmed_; ++i) {
        feed(static_cast<std::uint8_t>((segment >> i) & 1u));
      }
      return false;
    }
    count_ += matches;
    index_ += len;
    if (index_ >= window_) index_ = 0;  // start a fresh window
    pos += len;
  }
  return true;
}

void AdaptiveProportionTest::reset() {
  index_ = 0;
  ref_ = 2;
  count_ = 0;
  alarmed_ = false;
}

HealthReport run_health_tests(std::span<const std::uint8_t> bits,
                              double claimed_min_entropy_per_bit) {
  HealthReport report;
  report.rct_cutoff_used = rct_cutoff(claimed_min_entropy_per_bit);
  report.apt_cutoff_used = apt_cutoff(claimed_min_entropy_per_bit);
  RepetitionCountTest rct(report.rct_cutoff_used);
  AdaptiveProportionTest apt(report.apt_cutoff_used);
  for (std::uint8_t b : bits) {
    rct.feed(b);
    apt.feed(b);
  }
  report.rct_pass = !rct.alarmed();
  report.apt_pass = !apt.alarmed();
  return report;
}

}  // namespace ringent::trng
