// Test-local reference degradation machine: ResilientGenerator as it was
// before it stepped in chunks, one raw bit at a time through one step().
//
// The library's generator (trng/resilient.hpp) advances quiet stretches of
// up to 64 bits at once: the health tests take whole words, muted bits burn
// in bulk, and only the one bit where an event could fire goes through the
// per-bit policy. This file keeps the plain per-bit semantics so
// tests/test_resilient_oracle.cpp can compare the two bit for bit: output
// bytes, ResilientStats, the transition log, the metrics counters and the
// health histograms.
//
// It pulls every bit through BitSource::next_bit(), feeds the RCT and APT
// one bit at a time, checks near_threshold() after every emitted bit and
// stages emitted bits in a vector before packing them.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/require.hpp"
#include "sim/metrics.hpp"
#include "sim/telemetry.hpp"
#include "trng/health.hpp"
#include "trng/resilient.hpp"
#include "trng/telemetry.hpp"

namespace ringent::reference {

namespace metrics = sim::metrics;
namespace histo = sim::telemetry;

class ResilientGenerator {
 public:
  ResilientGenerator(trng::BitSource& primary, trng::BitSource* backup,
                     const trng::DegradationPolicy& policy = {})
      : policy_(policy),
        primary_(&primary),
        backup_(backup),
        active_(&primary),
        rct_(trng::rct_cutoff(policy.claimed_min_entropy, policy.alpha_log2)),
        apt_(trng::apt_cutoff(policy.claimed_min_entropy, policy.apt_window,
                              policy.alpha_log2),
             policy.apt_window) {
    RINGENT_REQUIRE(backup_ != primary_, "backup must be a distinct source");
  }

  std::vector<std::uint8_t> generate(std::size_t raw_bits) {
    std::vector<std::uint8_t> out;
    const std::uint64_t muted_before = stats_.bits_muted;
    for (std::size_t i = 0; i < raw_bits; ++i) {
      if (state_ == trng::DegradationState::failed) break;
      step(active_->next_bit(), out);
    }
    metrics::bump(metrics::Counter::health_bits_muted,
                  stats_.bits_muted - muted_before);
    return out;
  }

  std::size_t fill_bytes(std::span<std::uint8_t> out,
                         std::size_t max_raw_bits) {
    std::vector<std::uint8_t> bits;
    const std::uint64_t muted_before = stats_.bits_muted;
    std::size_t written = 0;
    std::size_t raw_used = 0;
    while (written < out.size() && raw_used < max_raw_bits &&
           state_ != trng::DegradationState::failed) {
      bits.clear();
      const std::size_t room_bits = (out.size() - written) * 8 - carry_count_;
      const std::size_t batch = std::min(
          std::min<std::size_t>(64, max_raw_bits - raw_used), room_bits);
      for (std::size_t i = 0; i < batch; ++i) {
        if (state_ == trng::DegradationState::failed) break;
        step(active_->next_bit(), bits);
        ++raw_used;
      }
      for (const std::uint8_t bit : bits) {
        carry_byte_ |= static_cast<std::uint8_t>((bit & 1u) << carry_count_);
        if (++carry_count_ == 8) {
          out[written++] = carry_byte_;
          carry_byte_ = 0;
          carry_count_ = 0;
        }
      }
    }
    metrics::bump(metrics::Counter::health_bits_muted,
                  stats_.bits_muted - muted_before);
    return written;
  }

  std::size_t pending_bits() const { return carry_count_; }
  trng::DegradationState state() const { return state_; }
  const trng::ResilientStats& stats() const { return stats_; }
  const std::vector<trng::StateTransition>& transitions() const {
    return transitions_;
  }
  bool using_backup() const { return active_ == backup_; }

  void attach_telemetry(trng::telemetry::StreamingEntropy* stream) {
    telemetry_ = stream;
  }

 private:
  using State = trng::DegradationState;

  void step(std::uint8_t bit, std::vector<std::uint8_t>& out) {
    ++stats_.bits_in;
    if (telemetry_ != nullptr) telemetry_->feed(bit);
    if (histo::enabled()) {
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
      case State::healthy:
      case State::suspect: {
        const bool rct_ok = rct_.feed(bit);
        const bool apt_ok = apt_.feed(bit);
        if (!rct_ok || !apt_ok) {
          ++stats_.bits_muted;
          on_alarm(!rct_ok ? "rct-alarm" : "apt-alarm");
          count_alarms(rct_ok, apt_ok);
          return;
        }
        if (histo::enabled() && apt_.window_index() == 0) {
          histo::record(histo::Histogram::apt_window_ones,
                        apt_.current_count());
        }
        out.push_back(bit);
        ++stats_.bits_out;
        const bool near = near_threshold();
        if (near && state_ == State::healthy) {
          transition(State::suspect, "near-threshold");
        } else if (!near && state_ == State::suspect) {
          transition(State::healthy, "margin-restored");
        }
        return;
      }
      case State::muted:
        ++stats_.bits_muted;
        if (backoff_remaining_ > 0) --backoff_remaining_;
        if (backoff_remaining_ == 0) begin_relock();
        return;
      case State::relocking: {
        ++stats_.bits_muted;
        const bool rct_ok = rct_.feed(bit);
        const bool apt_ok = apt_.feed(bit);
        if (!rct_ok || !apt_ok) {
          on_alarm(!rct_ok ? "rct-alarm" : "apt-alarm");
          count_alarms(rct_ok, apt_ok);
          return;
        }
        if (histo::enabled() && apt_.window_index() == 0) {
          histo::record(histo::Histogram::apt_window_ones,
                        apt_.current_count());
        }
        if (probation_remaining_ > 0) --probation_remaining_;
        if (probation_remaining_ == 0) {
          histo::record(histo::Histogram::relock_duration_bits,
                        stats_.bits_in - outage_start_bit_);
          transition(State::healthy, "probation-clean");
          if (stats_.alarmed && !stats_.recovered) {
            stats_.recovered = true;
            stats_.recovered_bit = stats_.bits_in;
          }
        }
        return;
      }
      case State::failed:
        ++stats_.bits_muted;
        return;
    }
  }

  void count_alarms(bool rct_ok, bool apt_ok) {
    if (!rct_ok) {
      ++stats_.rct_alarms;
      metrics::bump(metrics::Counter::health_rct_alarms);
    }
    if (!apt_ok) {
      ++stats_.apt_alarms;
      metrics::bump(metrics::Counter::health_apt_alarms);
    }
  }

  void on_alarm(const char* reason) {
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
      transition(State::failed, reason);
      metrics::bump(metrics::Counter::health_failures);
      return;
    }
    backoff_remaining_ =
        trng::backoff_for_strike(policy_.backoff_bits, stats_.strikes);
    transition(State::muted, reason);
  }

  void begin_relock() {
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
    rct_.reset();
    apt_.reset();
    probation_remaining_ = policy_.probation_bits;
    transition(State::relocking,
               using_backup() ? "backoff-spent/failover" : "backoff-spent");
  }

  bool near_threshold() const {
    if (policy_.suspect_fraction >= 1.0) return false;
    const double rct_level = policy_.suspect_fraction * rct_.cutoff();
    const double apt_level = policy_.suspect_fraction * apt_.cutoff();
    return rct_.current_run() >= rct_level ||
           apt_.current_count() >= apt_level;
  }

  void transition(State to, std::string reason) {
    trng::StateTransition edge;
    edge.from = state_;
    edge.to = to;
    edge.at_bit = stats_.bits_in;
    edge.reason = std::move(reason);
    transitions_.push_back(std::move(edge));
    state_ = to;
    metrics::bump(metrics::Counter::health_transitions);
  }

  trng::DegradationPolicy policy_;
  trng::BitSource* primary_;
  trng::BitSource* backup_;
  trng::BitSource* active_;
  trng::RepetitionCountTest rct_;
  trng::AdaptiveProportionTest apt_;
  State state_ = State::healthy;
  trng::ResilientStats stats_;
  std::vector<trng::StateTransition> transitions_;
  std::uint64_t backoff_remaining_ = 0;
  std::uint64_t probation_remaining_ = 0;
  std::uint8_t carry_byte_ = 0;
  std::size_t carry_count_ = 0;
  trng::telemetry::StreamingEntropy* telemetry_ = nullptr;
  std::uint8_t tele_prev_bit_ = 2;
  std::uint64_t tele_run_ = 0;
  std::uint64_t last_alarm_bit_ = 0;
  std::uint64_t outage_start_bit_ = 0;
};

}  // namespace ringent::reference
