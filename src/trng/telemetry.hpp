// Streaming entropy observables for an operating bit source.
//
// The batch estimators in analysis/entropy.hpp answer "how good was this
// recorded stream?"; a fielded generator needs the same signals *while it
// runs*, cheaply and incrementally, the way jitterentropy and SP 800-90B
// continuous-test implementations expose health telemetry. Saarinen
// (arXiv:2102.02196) argues ring-oscillator entropy claims must rest on
// bit-pattern and autocorrelation observables rather than Gaussian
// assumptions — StreamingEntropy is exactly that observable set, maintained
// per fed bit in O(1):
//
//  * running bias (cumulative ones fraction) and windowed bias;
//  * lag-1..k autocorrelation over a sliding window (computed at read time
//    from the window buffer, O(window * k), never per bit);
//  * an incremental Markov min-entropy rate from the four bit-transition
//    counts: H = -log2(max(p00, p11, sqrt(p01 * p10))), the asymptotic
//    per-bit min-entropy of the most probable path through the 2-state
//    chain — 0 for constant or perfectly alternating streams, 1 for an
//    unbiased memoryless one.
//
// ResilientGenerator and core::RingBitSource accept an attached stream
// (attach_telemetry) and feed every raw bit; drivers publish() the resulting
// StreamStats under a per-cell label into the current observation scope
// (sim/observe.hpp), so the run's telemetry snapshot (core/export.hpp)
// carries them next to its histograms. The distribution-shaped health observables (RCT run lengths, APT window
// counts, bits between alarms, relock durations) land in the
// sim/telemetry.hpp histograms instead.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.hpp"

namespace ringent::trng::telemetry {

struct StreamingEntropyConfig {
  std::size_t window = 1024;  ///< sliding window for bias/autocorrelation
  std::size_t max_lag = 4;    ///< autocorrelation lags 1..max_lag
};

class StreamingEntropy {
 public:
  explicit StreamingEntropy(StreamingEntropyConfig config = {});

  void feed(std::uint8_t bit);

  std::uint64_t bits() const { return total_bits_; }
  /// Cumulative ones fraction (0.5 = unbiased); 0 before the first bit.
  double bias() const;
  /// Ones fraction over the trailing window (or everything seen, if less).
  double window_bias() const;
  /// Sample autocorrelation over the trailing window at lags 1..max_lag.
  /// Entries are 0 when the window is degenerate (constant or too short).
  std::vector<double> window_autocorrelation() const;
  /// Incremental Markov min-entropy rate in [0, 1]; see the file comment.
  double markov_min_entropy() const;

  const StreamingEntropyConfig& config() const { return config_; }

 private:
  StreamingEntropyConfig config_;
  std::vector<std::uint8_t> window_;  ///< ring buffer, chronological via pos_
  std::size_t pos_ = 0;
  std::size_t filled_ = 0;
  std::uint64_t window_ones_ = 0;
  std::uint64_t total_bits_ = 0;
  std::uint64_t total_ones_ = 0;
  std::uint8_t prev_bit_ = 2;  ///< 2 = no previous bit yet
  std::uint64_t transitions_[2][2] = {{0, 0}, {0, 0}};
};

/// A published reading of one stream's observables — what the snapshot
/// writer serializes. Plain data so it survives a JSON round trip.
struct StreamStats {
  std::string label;  ///< source identity, e.g. "str255/supply-tone:raw"
  std::uint64_t bits = 0;
  double bias = 0.0;
  double window_bias = 0.0;
  std::vector<double> autocorrelation;  ///< lags 1..k
  double markov_min_entropy = 0.0;

  static StreamStats capture(std::string label, const StreamingEntropy& s);

  /// Serialized form (field list in trng/telemetry.cpp): every key
  /// required, unknown keys rejected with ringent::Error.
  Json to_json() const;
  static StreamStats from_json(const Json& json);
};

/// Add `stats` to the current observation scope, which keeps it only when
/// it collects histograms (sim::telemetry::enabled()). Called once per
/// cell per run, never per bit.
void publish(StreamStats stats);

}  // namespace ringent::trng::telemetry
