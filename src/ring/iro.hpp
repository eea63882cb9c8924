// Timed inverter-ring-oscillator model (paper Sec. II-A, Fig. 1).
//
// One event circulates through L stages (an inverter followed by L-1 delay
// elements, each one LUT). Each hop takes the stage's static delay — LUT
// intrinsic delay times its process factor and voltage law, plus routed
// interconnect — plus the dynamic noise draw and any deterministic
// modulation. The observed output toggles once per lap, so the period is two
// laps and the local Gaussian jitter accumulates over 2L independent hops:
// sigma_period = sqrt(2L) * sigma_g (paper Eq. 4). That law is NOT encoded
// here — it must emerge from the event simulation and is asserted by tests
// and regenerated by bench/fig11_iro_jitter_vs_stages.
//
// The ring is its own scheduler. Exactly one event is ever in flight, so
// the model keeps it as a plain (time, stage) pair and run_until() advances
// it in a direct loop: no queue, no sequence number, no virtual dispatch.
// The per-stage delay parameters at the current operating point sit in one
// table, rebuilt when the Supply's generation changes; only a time-varying
// rail (a tone, regulator ripple) evaluates the voltage laws per hop.
#pragma once

#include <memory>
#include <vector>

#include "common/time.hpp"
#include "fpga/delay_model.hpp"
#include "fpga/op_cache.hpp"
#include "fpga/supply.hpp"
#include "noise/jitter.hpp"
#include "noise/modulation.hpp"
#include "sim/event_clock.hpp"
#include "sim/probe.hpp"

namespace ringent::ring {

struct IroConfig {
  std::size_t stages = 5;          ///< L, must be >= 1 (>= 3 for a real ring)
  Time lut_delay = Time::from_ps(250.0);  ///< intrinsic LUT delay at V_nom
  Time routing_per_hop = Time::zero();    ///< mean routed delay per hop

  /// Optional per-stage routed delays (e.g. fpga::distribute_routing);
  /// overrides routing_per_hop when non-empty. Entry i is the net feeding
  /// stage i. Size must equal `stages`.
  std::vector<Time> routing_per_stage;

  /// Jitter-voltage coupling: the per-firing noise draw is multiplied by
  /// (LUT delay scale)^gamma. The paper treats sigma_g as constant (gamma =
  /// 0, the default); gamma = 1 models noise proportional to the stage
  /// delay (slower ramps integrate more thermal noise). The choice decides
  /// which direction an undervolting attack moves the entropy rate — see
  /// bench/ext_jitter_voltage.
  double jitter_delay_exponent = 0.0;

  /// Per-stage static process factors (global x mismatch); size must equal
  /// `stages` or be empty (all 1.0).
  std::vector<double> stage_factors;

  /// Optional operating-point dependence; null pointers mean "fixed nominal".
  /// Both referents must outlive the ring.
  const fpga::Supply* supply = nullptr;
  const fpga::VoltageLaws* laws = nullptr;

  /// Optional direct deterministic delay modulation (per hop); must outlive
  /// the ring.
  const noise::DelayModulation* modulation = nullptr;
};

class Iro final {
 public:
  /// `stage_noise` supplies the dynamic noise stream for each stage; pass
  /// exactly `config.stages` sources or an empty vector for a noise-free
  /// ring.
  Iro(const IroConfig& config,
      std::vector<std::unique_ptr<noise::NoiseSource>> stage_noise);

  /// Inject the circulating event at the current time; call once before
  /// running.
  void start();

  /// Fire every event due at or before `t_end` (>= now()), then park the
  /// clock on `t_end`. Returns the events fired by this call.
  std::uint64_t run_until(Time t_end);

  /// Fire at most `max_events` events. Returns the events fired.
  std::uint64_t run_events(std::uint64_t max_events);

  /// Current simulation time and events fired since construction.
  Time now() const { return clock_.now(); }
  std::uint64_t events_fired() const { return clock_.events_fired(); }

  /// Trace of the last stage's output (the ring's observed signal).
  sim::SignalTrace& output() { return output_; }
  const sim::SignalTrace& output() const { return output_; }

  std::size_t stages() const { return config_.stages; }

  /// Nominal noise-free period at the nominal operating point: 2 laps.
  Time nominal_period() const;

 private:
  /// Effective delay of one stage at one operating point. The products are
  /// formed in the association order of the per-hop expression
  ///   lut_delay * factor * lut_scale + routing * factor * routing_scale
  /// so a table entry is bit-identical to evaluating it per hop
  /// (tests/test_hot_path.cpp, tests/test_ring_oracle.cpp).
  struct StageDelay {
    double lut_ps = 0.0;      ///< lut_delay.ps() * factor
    double routing_ps = 0.0;  ///< routing_ps * factor
    double hop_ps = 0.0;      ///< lut_ps * lut_scale + routing_ps * routing_scale
    Time fixed_hop;           ///< whole hop when nothing varies per event
  };

  std::uint64_t drain(Time t_end, std::uint64_t max_events);
  /// Revalidate the table against the Supply's generation (between runs:
  /// the rail only changes between ring calls).
  void sync_supply();
  void rebuild_table(const fpga::SupplyScaleCache::Scales& scales);
  Time hop_delay(std::size_t stage, Time now);
  /// Draw the hop through `stage` and make it the pending event.
  void schedule(std::size_t stage, Time now);

  IroConfig config_;
  std::vector<std::unique_ptr<noise::NoiseSource>> stage_noise_;
  std::vector<StageDelay> table_;
  std::vector<noise::BlockSampler> noise_;  ///< block-buffered stage noise
  fpga::SupplyScaleCache scale_cache_;      ///< time-varying rails only
  std::uint64_t table_generation_ = ~std::uint64_t{0};
  bool per_event_scales_ = false;  ///< the rail varies within a run
  bool fixed_hops_ = false;  ///< no noise, no modulation: on a constant
                             ///< rail a hop is a table constant
  double noise_scale_ = 1.0;      ///< pow(lut scale, gamma), or 1
  double noise_scale_key_ = 1.0;  ///< lut scale of the per-event memo

  sim::EventClock clock_;
  Time pending_at_;           ///< the circulating event: when it fires
  std::size_t pending_stage_ = 0;  ///< ... and which stage's output it is
  sim::SignalTrace output_;
  bool output_value_ = false;
  bool started_ = false;
};

}  // namespace ringent::ring
