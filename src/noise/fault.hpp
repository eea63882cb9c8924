// Scripted fault injection against a running oscillator.
//
// The paper's applied claim (Sec. IV-B) is about *attacks*: supply-borne
// deterministic jitter accumulates linearly over an IRO period but is
// common-mode-attenuated in an STR. A fielded TRNG must ride such faults out
// — detect them with its on-line health tests (trng/health.hpp) and degrade
// gracefully (trng/resilient.hpp). This module supplies the attacker half of
// that loop: a declarative FaultScenario — a time-ordered schedule of fault
// windows — and a FaultInjector that realizes the schedule against the
// existing physical hooks:
//
//   * supply faults (tone / step / ramp) drive fpga::Supply::Modulation and
//     Supply::set_level between ring runs;
//   * delay faults (drift / step / stuck stage / mode-collapse kick) are a
//     stage-aware noise::DelayModulation the rings consult on every firing.
//
// The injector is deterministic and purely a function of (scenario, time):
// two runs with the same schedule and seeds are bit-identical, which is what
// lets run_attack_resilience pin golden detection latencies.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/time.hpp"
#include "fpga/supply.hpp"
#include "noise/modulation.hpp"

namespace ringent::noise {

enum class FaultKind {
  supply_tone,  ///< sine superimposed on the rail (Sec. IV-B harmonic attack)
  supply_step,  ///< DC offset on the rail; negative = brown-out
  supply_ramp,  ///< rail offset ramping 0 -> magnitude across the window
  stuck_stage,  ///< one stage frozen for the window (stuck-at defect)
  delay_step,   ///< uniform per-stage delay offset during the window
  delay_drift,  ///< per-stage delay offset ramping 0 -> magnitude (aging)
  mode_kick,    ///< asymmetric kick on the first half of the stages: bunches
                ///< an STR's tokens to provoke a mode collapse
};

const char* to_string(FaultKind kind);
/// Inverse of to_string; throws ringent::Error on an unknown name.
FaultKind parse_fault_kind(std::string_view name);

/// True for kinds that act through the shared supply rail (and therefore hit
/// every ring on the die, including a backup ring).
bool is_supply_fault(FaultKind kind);

/// One timed fault window [start, stop).
struct FaultEvent {
  FaultKind kind = FaultKind::supply_step;
  Time start;
  Time stop;
  /// Volts for supply kinds, picoseconds for delay kinds.
  double magnitude = 0.0;
  /// supply_tone only.
  double frequency_hz = 0.0;
  /// Stage selector: the frozen stage for stuck_stage; for mode_kick the
  /// number of leading stages that receive the kick (the asymmetry that
  /// bunches tokens). Unused by the other kinds.
  std::size_t stage = 0;

  static FaultEvent tone(Time start, Time stop, double amplitude_v,
                         double frequency_hz);
  static FaultEvent brownout(Time start, Time stop, double drop_v);
  static FaultEvent ramp(Time start, Time stop, double to_offset_v);
  static FaultEvent stuck(Time start, Time stop, std::size_t stage);
  static FaultEvent delay_step(Time start, Time stop, double offset_ps);
  static FaultEvent drift(Time start, Time stop, double to_offset_ps);
  static FaultEvent kick(Time start, Time stop, double offset_ps,
                         std::size_t affected_stages);

  bool active_at(Time t) const { return t >= start && t < stop; }

  /// Serialized form (field list in noise/fault.cpp): every field always
  /// present, times as exact femtosecond integers. from_json rejects
  /// unknown keys.
  Json to_json() const;
  static FaultEvent from_json(const Json& json);
};

/// A named, validated schedule of fault windows.
struct FaultScenario {
  std::string name = "quiet";
  std::vector<FaultEvent> events;

  /// Throws PreconditionError on malformed windows (stop <= start, negative
  /// start, tone without a frequency).
  void validate() const;

  /// End of the last window (zero for an empty scenario) — everything after
  /// this is the post-attack observation phase.
  Time end() const;

  bool has_supply_faults() const;
  bool has_delay_faults() const;

  /// The scenario a *different* ring on the same die experiences: supply
  /// faults are common-mode (kept), stage-local delay faults are not
  /// (dropped). This is what a failover backup ring sees.
  FaultScenario supply_only() const;

  /// Serialized form (field list in noise/fault.cpp). from_json requires a
  /// non-empty name, validates the schedule (same checks as validate()) and
  /// rejects unknown keys.
  Json to_json() const;
  static FaultScenario from_json(const Json& json);
};

/// Realizes a FaultScenario against a Supply (between ring runs) and as a
/// stage-aware DelayModulation (inside ring runs).
///
// Usage contract: the driver runs the ring no further than
// next_boundary(now) before calling advance_to() again, so piecewise-constant
// supply state (step/ramp levels, tone windows) is applied on exact schedule
// boundaries and ramps are sub-sampled deterministically.
class FaultInjector final : public DelayModulation {
 public:
  /// `supply` may be null when the scenario has no supply faults; the
  /// injector then only acts as a DelayModulation. The supply must outlive
  /// the injector.
  FaultInjector(FaultScenario scenario, fpga::Supply* supply);

  const FaultScenario& scenario() const { return scenario_; }

  /// Oscillator restarts reset ring time to zero; the epoch maps local
  /// ring time back onto absolute scenario time (absolute = epoch + local).
  void set_epoch(Time epoch) { epoch_ = epoch; }
  Time epoch() const { return epoch_; }

  /// Apply the supply-side state for absolute scenario time `t`. Call
  /// between ring runs (never mid-run).
  void advance_to(Time t);

  /// Next supply-state change strictly after absolute time `t`
  /// (Time::max() when the rest of the schedule is quiet). Ramp windows
  /// report sub-steps so a piecewise-constant rail tracks the ramp.
  Time next_boundary(Time t) const;

  /// Number of fault windows whose activation advance_to() has applied so
  /// far (for metrics and reports).
  std::uint64_t activations() const { return activations_; }

  // DelayModulation: deterministic per-stage offsets in *local* ring time.
  double offset_ps(Time local) const override;
  double offset_ps(Time local, std::size_t stage) const override;

 private:
  double supply_offset_v(Time t) const;

  FaultScenario scenario_;
  fpga::Supply* supply_;
  Time epoch_;
  double base_level_v_ = 0.0;
  bool tone_applied_ = false;
  std::vector<bool> seen_;  ///< per-event: activation already counted
  std::uint64_t activations_ = 0;
};

/// Number of ramp sub-steps the injector's boundary stream exposes per
/// supply_ramp window (piecewise-constant approximation of the ramp).
inline constexpr int fault_ramp_substeps = 16;

}  // namespace ringent::noise
