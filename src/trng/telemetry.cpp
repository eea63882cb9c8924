#include "trng/telemetry.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/fields.hpp"
#include "common/require.hpp"
#include "sim/observe.hpp"

namespace ringent::trng::telemetry {

StreamingEntropy::StreamingEntropy(StreamingEntropyConfig config)
    : config_(config) {
  RINGENT_REQUIRE(config_.window >= 8, "window must cover >= 8 bits");
  RINGENT_REQUIRE(config_.max_lag >= 1 && config_.max_lag < config_.window,
                  "lags must fit inside the window");
  window_.assign(config_.window, 0);
}

void StreamingEntropy::feed(std::uint8_t bit) {
  RINGENT_REQUIRE(bit <= 1, "bits must be 0 or 1");
  ++total_bits_;
  total_ones_ += bit;
  if (prev_bit_ <= 1) ++transitions_[prev_bit_][bit];
  prev_bit_ = bit;

  if (filled_ == config_.window) {
    window_ones_ -= window_[pos_];  // evict the oldest bit
  } else {
    ++filled_;
  }
  window_[pos_] = bit;
  window_ones_ += bit;
  pos_ = (pos_ + 1) % config_.window;
}

double StreamingEntropy::bias() const {
  if (total_bits_ == 0) return 0.0;
  return static_cast<double>(total_ones_) / static_cast<double>(total_bits_);
}

double StreamingEntropy::window_bias() const {
  if (filled_ == 0) return 0.0;
  return static_cast<double>(window_ones_) / static_cast<double>(filled_);
}

std::vector<double> StreamingEntropy::window_autocorrelation() const {
  std::vector<double> out(config_.max_lag, 0.0);
  if (filled_ < 2) return out;
  // Chronological order: the oldest bit sits at pos_ when the buffer is
  // full, at 0 otherwise.
  const std::size_t n = filled_;
  const std::size_t start = filled_ == config_.window ? pos_ : 0;
  const auto at = [&](std::size_t i) -> double {
    return static_cast<double>(window_[(start + i) % config_.window]);
  };
  const double mean =
      static_cast<double>(window_ones_) / static_cast<double>(n);
  double variance = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = at(i) - mean;
    variance += d * d;
  }
  if (variance <= 0.0) return out;  // constant window: undefined, report 0
  for (std::size_t lag = 1; lag <= config_.max_lag; ++lag) {
    if (lag >= n) break;
    double acc = 0.0;
    for (std::size_t i = 0; i + lag < n; ++i) {
      acc += (at(i) - mean) * (at(i + lag) - mean);
    }
    out[lag - 1] = acc / variance;
  }
  return out;
}

double StreamingEntropy::markov_min_entropy() const {
  const double from0 =
      static_cast<double>(transitions_[0][0] + transitions_[0][1]);
  const double from1 =
      static_cast<double>(transitions_[1][0] + transitions_[1][1]);
  if (from0 + from1 == 0.0) return 0.0;  // no transitions observed yet
  // Missing rows (a stream that never visited one state) contribute no
  // cycle; the asymptotic rate is then set by the visited state's self-loop.
  const double p00 =
      from0 > 0.0 ? static_cast<double>(transitions_[0][0]) / from0 : 0.0;
  const double p01 =
      from0 > 0.0 ? static_cast<double>(transitions_[0][1]) / from0 : 0.0;
  const double p10 =
      from1 > 0.0 ? static_cast<double>(transitions_[1][0]) / from1 : 0.0;
  const double p11 =
      from1 > 0.0 ? static_cast<double>(transitions_[1][1]) / from1 : 0.0;
  // Recurrent structure is the self-loops (p00, p11) and the alternating
  // cycle sqrt(p01*p10). On constant and near-constant windows the cycle
  // term vanishes exactly (p01*p10 == 0) and the asymptotic rate is set by
  // the self-loops alone; when not even a self-loop has been observed (a
  // two-bit "01"/"10" history) there is no recurrent evidence at all, and
  // an online health monitor must stay conservative: report 0. Note the
  // offline §6.3.3 battery estimator (analysis/entropy90b.hpp) scores the
  // same degenerate history as FULL entropy — that convention is right for
  // an offline bound, wrong for a gate that mutes output.
  const double cycle = p01 * p10;
  const double p_max = cycle > 0.0 ? std::max({p00, p11, std::sqrt(cycle)})
                                   : std::max(p00, p11);
  if (p_max <= 0.0) return 0.0;  // no recurrent transition observed
  const double h = -std::log2(p_max);
  return std::min(1.0, std::max(0.0, h));
}

StreamStats StreamStats::capture(std::string label,
                                 const StreamingEntropy& s) {
  StreamStats out;
  out.label = std::move(label);
  out.bits = s.bits();
  out.bias = s.bias();
  out.window_bias = s.window_bias();
  out.autocorrelation = s.window_autocorrelation();
  out.markov_min_entropy = s.markov_min_entropy();
  return out;
}

namespace {

using namespace fields;

constexpr auto kStreamStatsFields = fields::object<StreamStats>(
    "stream stats", nullptr,
    required("label", &StreamStats::label, Text{}),
    required("bits", &StreamStats::bits, Integer{}),
    required("bias", &StreamStats::bias, Number{}),
    required("window_bias", &StreamStats::window_bias, Number{}),
    required("autocorrelation", &StreamStats::autocorrelation,
             ArrayOf<Number>{.allow_empty = true}),
    required("markov_min_entropy", &StreamStats::markov_min_entropy, Number{}));

}  // namespace

RINGENT_FIELDS_JSON(StreamStats, kStreamStatsFields)

void publish(StreamStats stats) {
  if (sim::Scope* scope = sim::Scope::current()) {
    scope->publish(std::move(stats));
  }
}

}  // namespace ringent::trng::telemetry
