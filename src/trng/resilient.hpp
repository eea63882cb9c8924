// Graceful degradation for an operating entropy source.
//
// SP 800-90B's on-line tests (trng/health.hpp) answer "is the source broken
// right now?"; AIS-20/31-style certification additionally asks what the
// generator DOES about it. ResilientGenerator wraps any sampler-backed bit
// source with the RCT/APT monitors and a degradation policy state machine:
//
//          near-threshold                    alarm
//   healthy <---------> suspect   healthy/suspect ----> muted
//                                                         | backoff spent
//                                                         v
//        probation clean                            relocking (ring restart,
//   relocking ----------> healthy                    optional failover)
//        alarm during probation: strike++, backoff doubles, back to muted;
//        after max_strikes the generator latches `failed` permanently.
//
// Output bits flow only in `healthy` and `suspect`; everything else is
// muted — a fielded generator must not hand out bits it cannot vouch for.
// Every transition is recorded (for reports) and counted (sim::metrics, so
// run manifests carry the exact transition census); each generate() call is
// bracketed with a trace span. The machine is deterministic: identical
// sources and policies
// replay identical transition logs, which run_attack_resilience pins as
// golden values.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.hpp"
#include "trng/health.hpp"
#include "trng/telemetry.hpp"

namespace ringent::trng {

/// A running bit generator the resilience layer can supervise: anything that
/// produces one sampled bit at a time and supports a restart (re-lock)
/// request. core::RingBitSource adapts a simulated oscillator; tests use
/// deterministic synthetic sources.
class BitSource {
 public:
  virtual ~BitSource() = default;

  /// Produce the next raw bit of the stream (0 or 1).
  virtual std::uint8_t next_bit() = 0;

  /// Produce the next `count` (1..64) raw bits at once, the first in bit 0,
  /// the bits above `count` zero. Must equal `count` next_bit() calls, which
  /// is what the default does; a source that makes whole words overrides it.
  virtual std::uint64_t next_bits(unsigned count) {
    std::uint64_t word = 0;
    for (unsigned i = 0; i < count; ++i) {
      word |= std::uint64_t{next_bit()} << i;
    }
    return word;
  }

  /// Restart the underlying physical source (ring power-cycle / re-lock).
  /// `attempt` numbers the restarts so implementations can derive fresh
  /// noise streams deterministically. Default: no-op.
  virtual void restart(std::uint64_t attempt) { (void)attempt; }

  virtual std::string_view describe() const { return "bit-source"; }
};

enum class DegradationState : std::uint8_t {
  healthy,    ///< tests clean, bits flow
  suspect,    ///< near-threshold, bits still flow (early warning)
  muted,      ///< alarmed: output suppressed, waiting out the backoff
  relocking,  ///< restarted, on probation: output suppressed until clean
  failed,     ///< strike budget spent: permanently latched off
};

const char* to_string(DegradationState state);

struct DegradationPolicy {
  /// Claimed per-bit min-entropy; drives the RCT/APT cutoffs exactly as a
  /// datasheet claim would (rct_cutoff / apt_cutoff in trng/health.hpp).
  double claimed_min_entropy = 0.10;
  std::size_t apt_window = 1024;
  double alpha_log2 = 20.0;

  /// healthy -> suspect when an RCT run or APT count exceeds this fraction
  /// of its cutoff (and back once it recedes). 1.0 disables the state.
  double suspect_fraction = 0.6;

  /// Raw bits to wait muted before the first re-lock attempt; doubles with
  /// every strike (exponential backoff).
  std::uint64_t backoff_bits = 256;

  /// Clean raw bits required on probation before returning to healthy.
  std::uint64_t probation_bits = 1024;

  /// Alarms tolerated before latching `failed`.
  std::uint32_t max_strikes = 3;

  /// Fail over to the backup source (when one is wired) starting with this
  /// strike's re-lock; 0 disables failover.
  std::uint32_t failover_after_strikes = 2;

  /// Serialized form (field list in trng/resilient.cpp): every field, flat.
  /// from_json fills absent keys with the defaults above, rejects unknown
  /// keys, and range-checks.
  Json to_json() const;
  static DegradationPolicy from_json(const Json& json);
};

/// Backoff for the given strike count: `base` doubled per strike beyond the
/// first, saturating at UINT64_MAX instead of wrapping. A wrap here would
/// silently un-mute an alarmed generator after a near-zero backoff — the
/// exact failure the muted state exists to prevent — so saturation is the
/// only safe behavior for large `base` or strike counts >= 65.
std::uint64_t backoff_for_strike(std::uint64_t base, std::uint32_t strike);

/// One recorded state-machine edge.
struct StateTransition {
  DegradationState from = DegradationState::healthy;
  DegradationState to = DegradationState::healthy;
  std::uint64_t at_bit = 0;  ///< raw-bit index at which the edge fired
  std::string reason;        ///< "rct-alarm", "apt-alarm", "backoff-spent",
                             ///< "probation-clean", "near-threshold", ...
};

struct ResilientStats {
  std::uint64_t bits_in = 0;      ///< raw bits consumed from the sources
  std::uint64_t bits_out = 0;     ///< bits emitted to the consumer
  std::uint64_t bits_muted = 0;   ///< raw bits suppressed
  std::uint64_t rct_alarms = 0;
  std::uint64_t apt_alarms = 0;
  std::uint64_t relock_attempts = 0;
  std::uint64_t failovers = 0;
  std::uint32_t strikes = 0;
  /// Raw-bit index of the first alarm (detection latency); bits_in when no
  /// alarm fired.
  bool alarmed = false;
  std::uint64_t first_alarm_bit = 0;
  /// Raw-bit index of the first return to healthy after the first alarm;
  /// only meaningful when `recovered`.
  bool recovered = false;
  std::uint64_t recovered_bit = 0;
};

class ResilientGenerator {
 public:
  /// `primary` must outlive the generator; `backup` may be null (failover
  /// disabled). Both sources must be distinct objects.
  ResilientGenerator(BitSource& primary, BitSource* backup,
                     const DegradationPolicy& policy = {});

  /// Pull `raw_bits` bits through the monitors; returns the emitted
  /// (non-muted) bits, possibly fewer — and stops early once `failed`.
  std::vector<std::uint8_t> generate(std::size_t raw_bits);

  /// Byte-emission hook for the service layer: pull up to `max_raw_bits`
  /// raw bits through the monitors and pack the emitted bits LSB-first into
  /// `out`. Returns the number of complete bytes written (<= out.size());
  /// stops early when `out` is full, the raw budget is spent, or the
  /// generator latches `failed`. Leftover bits (fewer than 8) are carried in
  /// the generator and prepended to the next call, so the byte stream is
  /// identical regardless of call-boundary chunking.
  std::size_t fill_bytes(std::span<std::uint8_t> out,
                         std::size_t max_raw_bits);

  /// Bits currently carried toward the next byte (0..7); test hook.
  std::size_t pending_bits() const { return carry_count_; }

  DegradationState state() const { return state_; }
  const ResilientStats& stats() const { return stats_; }
  const std::vector<StateTransition>& transitions() const {
    return transitions_;
  }
  const DegradationPolicy& policy() const { return policy_; }
  bool using_backup() const { return active_ == backup_; }

  std::uint32_t rct_cutoff_used() const { return rct_.cutoff(); }
  std::uint32_t apt_cutoff_used() const { return apt_.cutoff(); }

  /// Attach a streaming-entropy observer fed with every raw bit (including
  /// muted ones — the observables describe the source, not the output).
  /// `stream` must outlive the generator; nullptr detaches. Independent of
  /// this, the generator records RCT run lengths, APT window counts, bits
  /// between alarms and relock durations into the sim/telemetry histograms
  /// whenever that collection is on.
  void attach_telemetry(telemetry::StreamingEntropy* stream) {
    telemetry_ = stream;
  }

 private:
  /// The stepper behind generate() and fill_bytes(): pull raw bits until
  /// `max_raw` are consumed, `max_out` are emitted or the generator fails,
  /// handing each run of emitted bits to `emit(word, count)` (first bit in
  /// bit 0). Quiet chunks of up to 64 bits go through advance_quiet(); the
  /// one bit where an event could fire goes through step().
  template <class Emit>
  void pump(std::size_t max_raw, std::size_t max_out, Emit&& emit);
  /// The chunk invariant: the largest k <= `limit` such that none of the
  /// next k bits can fire an event, whatever their values — raise an alarm,
  /// reach the suspect level, end the backoff or end probation. 0 means the
  /// next bit goes through step(): always so in `suspect` and `failed`, and
  /// while a StreamingEntropy is attached or the scope collects histograms,
  /// so every observer sees each bit.
  std::size_t quiet_run(std::size_t limit) const;
  /// Apply `count` quiet bits (quiet_run() >= count) in one go; returns
  /// true when they are emitted.
  bool advance_quiet(std::uint64_t word, std::size_t count);
  /// Apply one raw bit with the full per-bit policy; returns true when it is
  /// emitted.
  bool step(std::uint8_t bit);
  void transition(DegradationState to, std::string reason);
  void on_alarm(const char* reason);
  void begin_relock();
  bool near_threshold() const;
  void reset_tests();

  DegradationPolicy policy_;
  BitSource* primary_;
  BitSource* backup_;
  BitSource* active_;
  RepetitionCountTest rct_;
  AdaptiveProportionTest apt_;
  DegradationState state_ = DegradationState::healthy;
  ResilientStats stats_;
  std::vector<StateTransition> transitions_;
  // Healthy-state event levels: the smallest RCT run and APT count that
  // alarm or reach the suspect level (near_threshold()).
  std::uint64_t rct_event_run_ = 0;
  std::uint64_t apt_event_count_ = 0;
  std::uint64_t backoff_remaining_ = 0;
  std::uint64_t probation_remaining_ = 0;
  // fill_bytes() partial-byte accumulator (LSB-first).
  std::uint8_t carry_byte_ = 0;
  std::size_t carry_count_ = 0;
  telemetry::StreamingEntropy* telemetry_ = nullptr;
  // Histogram-telemetry trackers (maintained only while collection is on).
  std::uint8_t tele_prev_bit_ = 2;
  std::uint64_t tele_run_ = 0;
  std::uint64_t last_alarm_bit_ = 0;
  std::uint64_t outage_start_bit_ = 0;
};

}  // namespace ringent::trng
