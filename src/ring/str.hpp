// Timed self-timed-ring model (paper Sec. II-B/C, III).
//
// Gate-level event-driven simulation of an L-stage STR. Stage i fires — its
// Muller gate copies C[i-1] into C[i] — when it holds a token and stage i+1
// holds a bubble (see ring/str_logic.hpp for the untimed specification). The
// firing *time* follows the Charlie model: with the token-side input event at
// tf (last change of C[i-1]) and the bubble-side event at tr (last change of
// C[i+1]), the output fires at (tf+tr)/2 + charlie((tf-tr)/2) plus noise,
// routing and modulation terms (ring/charlie.hpp).
//
// Nothing here encodes the paper's results; they emerge:
//  * tokens repel through the Charlie term, locking NT = NB rings into the
//    evenly-spaced mode from arbitrary initial patterns;
//  * clustered tokens with Dch ~ 0 stay clustered (burst mode, Fig. 5);
//  * period jitter is independent of L and ~ sqrt(2)*sigma_g (Fig. 12),
//    while static per-LUT mismatch still averages over all stages (Table II);
//  * deterministic supply modulation is strongly attenuated (Sec. IV-B).
//
// The ring is its own scheduler. At most one firing is pending per stage,
// kept in a ring-local FlatHeap4 keyed by (time, schedule sequence), so
// events due at the same time fire in schedule order; run_until() pops and
// fires them in a direct loop with no virtual dispatch. The per-stage
// Charlie parameters at the current operating point sit in one table,
// rebuilt when the Supply's generation changes; only a time-varying rail (a
// tone, regulator ripple) evaluates the voltage laws per firing.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/time.hpp"
#include "fpga/delay_model.hpp"
#include "fpga/op_cache.hpp"
#include "fpga/supply.hpp"
#include "noise/jitter.hpp"
#include "noise/modulation.hpp"
#include "ring/charlie.hpp"
#include "ring/str_logic.hpp"
#include "sim/event_clock.hpp"
#include "sim/event_queue.hpp"
#include "sim/probe.hpp"

namespace ringent::ring {

struct StrConfig {
  std::size_t stages = 8;  ///< L >= 3

  /// Nominal per-stage Charlie parameters at the nominal operating point.
  CharlieParams charlie = CharlieParams::symmetric(Time::from_ps(260.0),
                                                   Time::from_ps(120.0));
  DraftingParams drafting = DraftingParams::disabled();

  Time routing_per_hop = Time::zero();  ///< mean routed delay per hop

  /// Optional per-stage routed delays (e.g. fpga::distribute_routing);
  /// overrides routing_per_hop when non-empty. Entry i is the delay of the
  /// nets feeding stage i. Size must equal `stages`.
  std::vector<Time> routing_per_stage;

  /// Jitter-voltage coupling exponent, as in IroConfig (0 = paper model).
  double jitter_delay_exponent = 0.0;

  /// Per-stage static process factors; size `stages` or empty (all 1.0).
  std::vector<double> stage_factors;

  /// Optional operating-point dependence (provide both or neither); the
  /// referents must outlive the ring.
  const fpga::Supply* supply = nullptr;
  const fpga::VoltageLaws* laws = nullptr;

  /// Optional direct deterministic delay modulation; must outlive the ring.
  const noise::DelayModulation* modulation = nullptr;

  /// Stage whose output is recorded in output(); default stage 0.
  std::size_t observe_stage = 0;

  /// Record every stage (for VCD dumps / token-position analysis). Memory
  /// scales with stages x transitions; keep runs short when enabled.
  bool trace_all_stages = false;
};

class Str final {
 public:
  /// `initial` must be a valid oscillating pattern (see make_initial_state).
  /// `stage_noise` holds one dynamic noise source per stage, or is empty for
  /// a noise-free ring.
  Str(const StrConfig& config, const RingState& initial,
      std::vector<std::unique_ptr<noise::NoiseSource>> stage_noise);

  /// Schedule the initially enabled stages; call once before running.
  void start();

  /// Fire every event due at or before `t_end` (>= now()), then park the
  /// clock on `t_end`. Returns the events fired by this call.
  std::uint64_t run_until(Time t_end);

  /// Fire at most `max_events` events. Returns the events fired.
  std::uint64_t run_events(std::uint64_t max_events);

  /// Current simulation time, and events fired (stage firings) since
  /// construction.
  Time now() const { return clock_.now(); }
  std::uint64_t events_fired() const { return clock_.events_fired(); }

  /// True when no firing is pending (before start(), or a dead ring).
  bool idle() const { return pending_.empty(); }

  /// Trace of the observed stage.
  sim::SignalTrace& output() { return *output_; }
  const sim::SignalTrace& output() const { return *output_; }

  /// Per-stage traces; only populated when config.trace_all_stages is set.
  const std::vector<sim::SignalTrace>& stage_traces() const { return traces_; }
  std::vector<sim::SignalTrace>& stage_traces() { return traces_; }

  /// Current logical state (token/bubble snapshot).
  RingState state() const { return RingState(state_.begin(), state_.end()); }

  std::size_t stages() const { return config_.stages; }
  std::size_t tokens() const { return tokens_; }
  std::size_t bubbles() const { return config_.stages - tokens_; }

  /// Noise-free evenly-spaced period at the nominal operating point,
  /// T = 2 L (D_mean + Dch + routing) / NT — valid for NT = NB, where the
  /// steady-state separation is zero (paper Sec. III-B).
  Time nominal_period() const;

 private:
  /// Charlie parameters of one stage at one operating point, formed in the
  /// association order of the per-firing expressions
  ///   routing_ps * (factor * routing_scale),
  ///   D_mean * (factor * lut_scale), s0 * (factor * lut_scale),
  ///   Dch * (factor * charlie_scale)
  /// so a table entry is bit-identical to evaluating it per firing (and, at
  /// unit scales, to the plain products with the process factor).
  struct StageDelay {
    double extra_ps = 0.0;     ///< routed delay
    double d_mean_ps = 0.0;
    double s_offset_ps = 0.0;
    double dch_ps = 0.0;
    double noise_scale = 1.0;  ///< pow(voltage part of lut scale, gamma)
  };

  std::size_t prev(std::size_t i) const {
    return i == 0 ? config_.stages - 1 : i - 1;
  }
  std::size_t next(std::size_t i) const {
    return i + 1 == config_.stages ? 0 : i + 1;
  }
  bool enabled(std::size_t i) const;
  StageDelay stage_delay(std::size_t i,
                         const fpga::SupplyScaleCache::Scales& scales);
  /// Revalidate the table against the Supply's generation (between runs:
  /// the rail only changes between ring calls).
  void sync_supply();
  void try_schedule(std::size_t i, Time now);
  void fire(std::size_t i, Time now);
  std::uint64_t drain(Time t_end, std::uint64_t max_events);

  StrConfig config_;
  CharlieModel charlie_model_;
  std::vector<std::uint8_t> state_;  ///< C[i]; a byte reads faster than a bit
  std::size_t tokens_;
  std::vector<std::unique_ptr<noise::NoiseSource>> stage_noise_;
  std::vector<Time> last_change_;
  std::vector<std::uint8_t> scheduled_;

  std::vector<double> factor_;      ///< per-stage process factor
  std::vector<double> routing_ps_;  ///< per-stage routed delay (ps)
  std::vector<StageDelay> table_;   ///< at the current constant rail
  std::vector<noise::BlockSampler> noise_;  ///< block-buffered stage noise
  fpga::SupplyScaleCache scale_cache_;      ///< time-varying rails only
  std::uint64_t table_generation_ = ~std::uint64_t{0};
  bool per_event_scales_ = false;  ///< the rail varies within a run
  double noise_scale_key_ = 1.0;   ///< voltage-scale quotient of the memo
  double noise_scale_ = 1.0;       ///< pow(noise_scale_key_, gamma)

  sim::EventClock clock_;
  sim::FlatHeap4 pending_;
  std::vector<sim::SignalTrace> traces_;
  sim::SignalTrace* output_;
  sim::SignalTrace observe_trace_;
  bool started_ = false;
};

}  // namespace ringent::ring
