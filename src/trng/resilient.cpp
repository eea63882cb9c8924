#include "trng/resilient.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/fields.hpp"
#include "common/require.hpp"
#include "sim/metrics.hpp"
#include "sim/telemetry.hpp"
#include "sim/trace.hpp"

namespace ringent::trng {

namespace metrics = sim::metrics;
namespace histo = sim::telemetry;

std::uint64_t backoff_for_strike(std::uint64_t base, std::uint32_t strike) {
  const std::uint32_t shift = strike > 0 ? strike - 1 : 0;
  // `base << shift` is UB for shift >= 64 and wraps (to as little as zero)
  // whenever base has a set bit in the top `shift` positions; either way a
  // muted generator would come back almost immediately. Saturate instead.
  if (shift >= 64) return UINT64_MAX;
  if (base > (UINT64_MAX >> shift)) return UINT64_MAX;
  return base << shift;
}

namespace {

using namespace fields;

constexpr auto kPolicyFields = fields::object<DegradationPolicy>(
    "degradation policy", nullptr,
    optional("claimed_min_entropy", &DegradationPolicy::claimed_min_entropy,
             Number{.min = 0.0, .min_open = true, .max = 1.0}),
    optional("apt_window", &DegradationPolicy::apt_window, Integer{.min = 2}),
    optional("alpha_log2", &DegradationPolicy::alpha_log2,
             Number{.min = 0.0, .min_open = true}),
    optional("suspect_fraction", &DegradationPolicy::suspect_fraction,
             Number{.min = 0.0, .max = 1.0}),
    optional("backoff_bits", &DegradationPolicy::backoff_bits, Integer{}),
    optional("probation_bits", &DegradationPolicy::probation_bits, Integer{}),
    optional("max_strikes", &DegradationPolicy::max_strikes, Integer{}),
    optional("failover_after_strikes",
             &DegradationPolicy::failover_after_strikes, Integer{}));

/// The smallest count n with n >= fraction * cutoff: the level at which
/// near_threshold() fires (it compares the same double with >=). UINT64_MAX
/// when the suspect state is disabled (fraction >= 1).
std::uint64_t suspect_level(double fraction, std::uint32_t cutoff) {
  if (!(fraction < 1.0)) return UINT64_MAX;
  const double level = fraction * cutoff;
  return level <= 0.0 ? 0 : static_cast<std::uint64_t>(std::ceil(level));
}

/// Bits that can be added to `at` while it stays below `level`.
std::uint64_t room_below(std::uint64_t level, std::uint64_t at) {
  return at + 1 < level ? level - 1 - at : 0;
}

}  // namespace

RINGENT_FIELDS_JSON(DegradationPolicy, kPolicyFields)

const char* to_string(DegradationState state) {
  switch (state) {
    case DegradationState::healthy: return "healthy";
    case DegradationState::suspect: return "suspect";
    case DegradationState::muted: return "muted";
    case DegradationState::relocking: return "relocking";
    case DegradationState::failed: return "failed";
  }
  return "?";
}

ResilientGenerator::ResilientGenerator(BitSource& primary, BitSource* backup,
                                       const DegradationPolicy& policy)
    : policy_(policy),
      primary_(&primary),
      backup_(backup),
      active_(&primary),
      rct_(rct_cutoff(policy.claimed_min_entropy, policy.alpha_log2)),
      apt_(apt_cutoff(policy.claimed_min_entropy, policy.apt_window,
                      policy.alpha_log2),
           policy.apt_window) {
  RINGENT_REQUIRE(policy.claimed_min_entropy > 0.0 &&
                      policy.claimed_min_entropy <= 1.0,
                  "claimed min-entropy must be in (0, 1]");
  RINGENT_REQUIRE(policy.backoff_bits > 0, "backoff must cover >= 1 bit");
  RINGENT_REQUIRE(policy.max_strikes > 0, "need at least one strike");
  RINGENT_REQUIRE(backup_ != primary_, "backup must be a distinct source");
  rct_event_run_ = std::min<std::uint64_t>(
      rct_.cutoff(), suspect_level(policy.suspect_fraction, rct_.cutoff()));
  apt_event_count_ = std::min<std::uint64_t>(
      std::uint64_t{apt_.cutoff()} + 1,
      suspect_level(policy.suspect_fraction, apt_.cutoff()));
}

std::vector<std::uint8_t> ResilientGenerator::generate(std::size_t raw_bits) {
  sim::trace::Span span("resilient-generate", "axis");
  std::vector<std::uint8_t> out;
  out.reserve(raw_bits);
  const std::uint64_t muted_before = stats_.bits_muted;
  pump(raw_bits, raw_bits, [&out](std::uint64_t word, std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
      out.push_back(static_cast<std::uint8_t>((word >> i) & 1u));
    }
  });
  metrics::bump(metrics::Counter::health_bits_muted,
                stats_.bits_muted - muted_before);
  return out;
}

std::size_t ResilientGenerator::fill_bytes(std::span<std::uint8_t> out,
                                           std::size_t max_raw_bits) {
  sim::trace::Span span("resilient-fill-bytes", "axis");
  if (out.empty()) return 0;
  const std::uint64_t muted_before = stats_.bits_muted;
  // Emitted bits gather LSB-first in `acc` behind the carried partial byte;
  // whole bytes leave as they complete, so fewer than 8 stay between calls.
  std::uint64_t acc = carry_byte_;
  std::size_t acc_bits = carry_count_;
  std::size_t written = 0;
  // Never emit more bits than the output has room for, so none is dropped.
  const std::size_t room_bits = out.size() * 8 - carry_count_;
  pump(max_raw_bits, room_bits,
       [&](std::uint64_t word, std::size_t count) {
         // acc_bits < 8 here: the bits past acc's 64 spill into `high`.
         acc |= word << acc_bits;
         std::uint64_t high =
             acc_bits + count > 64 ? word >> (64 - acc_bits) : 0;
         acc_bits += count;
         for (; acc_bits >= 8; acc_bits -= 8) {
           out[written++] = static_cast<std::uint8_t>(acc);
           acc = (acc >> 8) | (high << 56);
           high = 0;
         }
       });
  carry_byte_ = static_cast<std::uint8_t>(acc);
  carry_count_ = acc_bits;
  metrics::bump(metrics::Counter::health_bits_muted,
                stats_.bits_muted - muted_before);
  return written;
}

template <class Emit>
void ResilientGenerator::pump(std::size_t max_raw, std::size_t max_out,
                              Emit&& emit) {
  std::size_t raw = 0;
  std::size_t emitted = 0;
  while (raw < max_raw && emitted < max_out &&
         state_ != DegradationState::failed) {
    const std::size_t quiet = quiet_run(
        std::min({max_raw - raw, max_out - emitted, std::size_t{64}}));
    if (quiet == 0) {
      const std::uint8_t bit = active_->next_bit();
      ++raw;
      if (step(bit)) {
        emit(std::uint64_t{bit}, 1);
        ++emitted;
      }
      continue;
    }
    const std::uint64_t word =
        active_->next_bits(static_cast<unsigned>(quiet));
    raw += quiet;
    if (advance_quiet(word, quiet)) {
      emit(word, quiet);
      emitted += quiet;
    }
  }
}

std::size_t ResilientGenerator::quiet_run(std::size_t limit) const {
  if (telemetry_ != nullptr || histo::enabled()) return 0;
  std::uint64_t room = 0;
  switch (state_) {
    case DegradationState::healthy:
      // Worst case every bit extends the run and matches the APT reference
      // (a bit that opens a new window starts its count at 1 <= that).
      room = std::min(room_below(rct_event_run_, rct_.current_run()),
                      room_below(apt_event_count_, apt_.current_count()));
      break;
    case DegradationState::muted:
      room = room_below(backoff_remaining_, 0);
      break;
    case DegradationState::relocking:
      room = std::min({room_below(rct_.cutoff(), rct_.current_run()),
                       room_below(std::uint64_t{apt_.cutoff()} + 1,
                                  apt_.current_count()),
                       room_below(probation_remaining_, 0)});
      break;
    case DegradationState::suspect:
    case DegradationState::failed:
      return 0;
  }
  return static_cast<std::size_t>(std::min<std::uint64_t>(limit, room));
}

bool ResilientGenerator::advance_quiet(std::uint64_t word, std::size_t count) {
  const auto bits = static_cast<unsigned>(count);
  stats_.bits_in += count;
  switch (state_) {
    case DegradationState::healthy:
      rct_.advance(word, bits);
      apt_.advance(word, bits);
      stats_.bits_out += count;
      return true;
    case DegradationState::relocking:
      rct_.advance(word, bits);
      apt_.advance(word, bits);
      probation_remaining_ -= count;
      break;
    default:  // muted; quiet_run() gives no other state a chunk
      backoff_remaining_ -= count;
      break;
  }
  stats_.bits_muted += count;
  return false;
}

bool ResilientGenerator::step(std::uint8_t bit) {
  ++stats_.bits_in;
  if (telemetry_ != nullptr) telemetry_->feed(bit);
  if (histo::enabled()) {
    // Completed same-bit run lengths of the raw stream (muted bits
    // included: the histogram describes the source, not the monitors).
    if (bit == tele_prev_bit_) {
      ++tele_run_;
    } else {
      if (tele_prev_bit_ <= 1) {
        histo::record(histo::Histogram::rct_run_length, tele_run_);
      }
      tele_prev_bit_ = bit;
      tele_run_ = 1;
    }
  }
  switch (state_) {
    case DegradationState::healthy:
    case DegradationState::suspect: {
      const bool rct_ok = rct_.feed(bit);
      const bool apt_ok = apt_.feed(bit);
      if (!rct_ok || !apt_ok) {
        ++stats_.bits_muted;  // the alarming bit itself is never emitted
        on_alarm(!rct_ok ? "rct-alarm" : "apt-alarm");
        if (!rct_ok) {
          ++stats_.rct_alarms;
          metrics::bump(metrics::Counter::health_rct_alarms);
        }
        if (!apt_ok) {
          ++stats_.apt_alarms;
          metrics::bump(metrics::Counter::health_apt_alarms);
        }
        return false;
      }
      if (histo::enabled() && apt_.window_index() == 0) {
        // index_ just wrapped: current_count() is the completed window's.
        histo::record(histo::Histogram::apt_window_ones, apt_.current_count());
      }
      ++stats_.bits_out;
      const bool near = near_threshold();
      if (near && state_ == DegradationState::healthy) {
        transition(DegradationState::suspect, "near-threshold");
      } else if (!near && state_ == DegradationState::suspect) {
        transition(DegradationState::healthy, "margin-restored");
      }
      return true;
    }
    case DegradationState::muted: {
      // Tests are latched from the alarm; bits are burned, not inspected.
      ++stats_.bits_muted;
      if (backoff_remaining_ > 0) --backoff_remaining_;
      if (backoff_remaining_ == 0) begin_relock();
      return false;
    }
    case DegradationState::relocking: {
      ++stats_.bits_muted;
      const bool rct_ok = rct_.feed(bit);
      const bool apt_ok = apt_.feed(bit);
      if (!rct_ok || !apt_ok) {
        on_alarm(!rct_ok ? "rct-alarm" : "apt-alarm");
        if (!rct_ok) {
          ++stats_.rct_alarms;
          metrics::bump(metrics::Counter::health_rct_alarms);
        }
        if (!apt_ok) {
          ++stats_.apt_alarms;
          metrics::bump(metrics::Counter::health_apt_alarms);
        }
        return false;
      }
      if (histo::enabled() && apt_.window_index() == 0) {
        histo::record(histo::Histogram::apt_window_ones, apt_.current_count());
      }
      if (probation_remaining_ > 0) --probation_remaining_;
      if (probation_remaining_ == 0) {
        histo::record(histo::Histogram::relock_duration_bits,
                      stats_.bits_in - outage_start_bit_);
        transition(DegradationState::healthy, "probation-clean");
        if (stats_.alarmed && !stats_.recovered) {
          stats_.recovered = true;
          stats_.recovered_bit = stats_.bits_in;
        }
      }
      return false;
    }
    case DegradationState::failed:
      ++stats_.bits_muted;
      return false;
  }
  return false;
}

void ResilientGenerator::on_alarm(const char* reason) {
  // First interval measures from stream start — detection latency.
  histo::record(histo::Histogram::bits_between_alarms,
                stats_.bits_in - last_alarm_bit_);
  last_alarm_bit_ = stats_.bits_in;
  outage_start_bit_ = stats_.bits_in;
  if (!stats_.alarmed) {
    stats_.alarmed = true;
    stats_.first_alarm_bit = stats_.bits_in;
  }
  ++stats_.strikes;
  if (stats_.strikes >= policy_.max_strikes) {
    transition(DegradationState::failed, reason);
    metrics::bump(metrics::Counter::health_failures);
    return;
  }
  backoff_remaining_ = backoff_for_strike(policy_.backoff_bits,
                                          stats_.strikes);
  transition(DegradationState::muted, reason);
}

void ResilientGenerator::begin_relock() {
  ++stats_.relock_attempts;
  metrics::bump(metrics::Counter::health_relock_attempts);
  if (backup_ != nullptr && policy_.failover_after_strikes > 0 &&
      stats_.strikes >= policy_.failover_after_strikes &&
      active_ != backup_) {
    active_ = backup_;
    ++stats_.failovers;
    metrics::bump(metrics::Counter::health_failovers);
  }
  active_->restart(stats_.relock_attempts);
  reset_tests();
  probation_remaining_ = policy_.probation_bits;
  transition(DegradationState::relocking,
             using_backup() ? "backoff-spent/failover" : "backoff-spent");
}

bool ResilientGenerator::near_threshold() const {
  if (policy_.suspect_fraction >= 1.0) return false;
  const double rct_level = policy_.suspect_fraction * rct_.cutoff();
  const double apt_level = policy_.suspect_fraction * apt_.cutoff();
  return rct_.current_run() >= rct_level || apt_.current_count() >= apt_level;
}

void ResilientGenerator::reset_tests() {
  rct_.reset();
  apt_.reset();
}

void ResilientGenerator::transition(DegradationState to, std::string reason) {
  StateTransition edge;
  edge.from = state_;
  edge.to = to;
  edge.at_bit = stats_.bits_in;
  edge.reason = std::move(reason);
  transitions_.push_back(std::move(edge));
  state_ = to;
  metrics::bump(metrics::Counter::health_transitions);
}

}  // namespace ringent::trng
