// On-line health tests for an operating entropy source (NIST SP 800-90B
// §4.4 style): the continuous checks a fielded TRNG runs on every raw bit,
// as opposed to the off-line SP 800-90B estimates of analysis/entropy90b.hpp.
//
//  * Repetition Count Test (RCT): alarm when the same value repeats C times,
//    C chosen from the claimed min-entropy H so that a healthy source
//    false-alarms with probability ~2^-W per sample window.
//  * Adaptive Proportion Test (APT): alarm when one value occupies more than
//    C slots of a W-sample window.
//
// Both are cheap enough for per-sample hardware and catch the failure modes
// the paper's attack discussion worries about: a ring locking to a supply
// tone (long repeats / skewed proportions) or dying entirely (constant
// output). examples/attack_demo and the TRNG examples use them as the
// "would a fielded generator notice?" check.
#pragma once

#include <cstdint>
#include <span>

namespace ringent::trng {

/// SP 800-90B cutoff for the repetition count test: the smallest C with
/// 2^(-H (C-1)) <= 2^-alpha_log2, i.e. C = 1 + ceil(alpha_log2 / H).
std::uint32_t rct_cutoff(double min_entropy_per_bit, double alpha_log2 = 20.0);

class RepetitionCountTest {
 public:
  /// `cutoff` >= 2, e.g. from rct_cutoff().
  explicit RepetitionCountTest(std::uint32_t cutoff);

  /// Feed one bit; returns false when the alarm fires (and stays latched).
  ///
  /// Boundary convention (pinned by tests/test_health.cpp hand-counted
  /// vectors): a run of exactly `cutoff` identical samples alarms on its
  /// last sample; a run of `cutoff - 1` never alarms. This matches SP
  /// 800-90B §4.4.1, where the counter B starts at 1 on the first sample
  /// and the test fails as soon as B >= C.
  bool feed(std::uint8_t bit);

  /// Feed `count` (1..64) bits at once, the first in bit 0 of `word` (bits
  /// above `count` are ignored). Same return value, state and alarm bit as
  /// `count` feed() calls: when no run can reach the cutoff, only the
  /// trailing run is measured (by countl_zero); otherwise the word goes bit
  /// by bit.
  bool advance(std::uint64_t word, unsigned count);

  bool alarmed() const { return alarmed_; }
  std::uint32_t current_run() const { return run_; }
  std::uint32_t cutoff() const { return cutoff_; }
  void reset();

 private:
  std::uint32_t cutoff_;
  std::uint32_t run_ = 0;
  std::uint8_t last_ = 2;  // sentinel: no sample yet
  bool alarmed_ = false;
};

/// SP 800-90B binary APT cutoff (critical binomial value at 2^-alpha_log2)
/// computed from the claimed per-bit min-entropy; conservative normal
/// approximation with continuity correction, clamped to [W/2, W].
std::uint32_t apt_cutoff(double min_entropy_per_bit, std::size_t window = 1024,
                         double alpha_log2 = 20.0);

class AdaptiveProportionTest {
 public:
  AdaptiveProportionTest(std::uint32_t cutoff, std::size_t window = 1024);

  /// Feed one bit; returns false once alarmed (latched).
  ///
  /// Boundary conventions (pinned by tests/test_health.cpp):
  ///  * A window is exactly `window` samples: the sample at index 0 becomes
  ///    the reference (count = 1) and samples 1..window-1 are compared
  ///    against it; the sample after that opens a fresh window with a new
  ///    reference.
  ///  * The alarm fires when the reference count EXCEEDS `cutoff`, i.e. at
  ///    `cutoff + 1` occurrences. SP 800-90B §4.4.2 stores C = 1 +
  ///    critbinom(W, p, 1 - alpha) and fails at count >= C; here the "+1"
  ///    lives in the strict comparison instead of the stored cutoff — the
  ///    two formulations alarm on exactly the same sample.
  ///  * After an alarm the test is latched; callers restart via reset(),
  ///    which discards the triggering bit's window entirely, so that bit is
  ///    never double-counted in the next window (the resilience layer
  ///    relies on this when it re-arms after a relock).
  bool feed(std::uint8_t bit);

  /// Feed `count` (1..64) bits at once, the first in bit 0 of `word` (bits
  /// above `count` are ignored). Same return value, state and alarm bit as
  /// `count` feed() calls: each stretch of the word inside one window adds
  /// its popcount of reference values, and only a stretch that would carry
  /// the count past the cutoff is fed bit by bit.
  bool advance(std::uint64_t word, unsigned count);

  bool alarmed() const { return alarmed_; }
  /// Occurrences of the window's reference value so far (degradation
  /// policies compare this against the cutoff for an early warning).
  std::uint32_t current_count() const { return count_; }
  /// Position within the current window [0, window).
  std::size_t window_index() const { return index_; }
  std::uint32_t cutoff() const { return cutoff_; }
  void reset();

 private:
  std::uint32_t cutoff_;
  std::size_t window_;
  std::size_t index_ = 0;   // position within the current window
  std::uint8_t ref_ = 2;    // first sample of the window
  std::uint32_t count_ = 0;
  bool alarmed_ = false;
};

struct HealthReport {
  bool rct_pass = false;
  bool apt_pass = false;
  std::uint32_t rct_cutoff_used = 0;
  std::uint32_t apt_cutoff_used = 0;
  bool pass() const { return rct_pass && apt_pass; }
};

/// Run both tests over a recorded sequence with cutoffs derived from the
/// claimed min-entropy (the value an entropy-source datasheet would state).
HealthReport run_health_tests(std::span<const std::uint8_t> bits,
                              double claimed_min_entropy_per_bit);

}  // namespace ringent::trng
