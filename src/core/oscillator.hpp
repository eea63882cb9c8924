// Oscillator: one runnable ring instance — the library's main entry point.
//
//   auto osc = core::Oscillator::build(core::RingSpec::str(96),
//                                      core::cyclone_iii(), options);
//   osc.run_periods(10000);
//   auto periods = analysis::periods_ps(osc.output());
//
// Oscillator owns the ring model, which runs its own event loop, and the
// per-stage noise sources; the optional Board and Supply are borrowed (an
// experiment typically shares one Supply across rings and sweeps its level).
#pragma once

#include <memory>
#include <optional>

#include "core/calibration.hpp"
#include "core/spec.hpp"
#include "fpga/device.hpp"
#include "fpga/supply.hpp"
#include "noise/modulation.hpp"
#include "ring/iro.hpp"
#include "ring/str.hpp"

namespace ringent::core {

struct BuildOptions {
  /// Silicon instance; null = ideal device (all factors 1.0).
  const fpga::Board* board = nullptr;

  /// Operating point; null = fixed nominal voltage and temperature.
  /// Must outlive the oscillator.
  const fpga::Supply* supply = nullptr;

  /// Per-LUT white jitter; negative = use the calibration's sigma_g_ps.
  /// Zero disables dynamic noise.
  double sigma_g_ps = -1.0;

  /// Optional per-LUT flicker (1/f) jitter amplitude. The paper's model is
  /// white-only and the calibration keeps this at zero; the extension
  /// benches switch it on to show where the sqrt accumulation law bends
  /// (see analysis/allan.hpp).
  double flicker_amplitude_ps = 0.0;
  unsigned flicker_octaves = 16;

  /// Seed for noise streams when no board is given (boards derive their own
  /// per-LUT streams).
  std::uint64_t noise_seed = 1;

  /// Index of the first LUT the ring occupies on the board (distinct rings
  /// on one board should not overlap).
  std::size_t lut_base = 0;

  /// Uniform multiplicative factor on every stage delay (static, Charlie and
  /// routing components alike). Used for design-time detuning (e.g. the
  /// second ring of a coherent-sampling pair) and corner exploration.
  double delay_scale = 1.0;

  /// Jitter-voltage coupling exponent (see ring::IroConfig): per-firing
  /// noise is scaled by (LUT delay scale)^gamma. 0 = the paper's constant
  /// sigma_g model.
  double jitter_delay_exponent = 0.0;

  /// Structured routing: > 1 distributes the calibrated mean routing delay
  /// unevenly across the chain placement (LAB-crossing hops cost this many
  /// times a within-LAB hop; the total — and thus the frequency — is
  /// preserved). 1.0 keeps the flat per-hop model. See
  /// fpga::distribute_routing.
  double routing_crossing_weight = 1.0;

  /// Optional deterministic delay modulation; must outlive the oscillator.
  const noise::DelayModulation* modulation = nullptr;

  /// Drop this many initial output periods (steady-regime warm-up) before
  /// recording.
  std::size_t warmup_periods = 64;

  /// Record every stage output (STR only; for VCD / token analysis).
  bool trace_all_stages = false;
};

class Oscillator {
 public:
  static Oscillator build(const RingSpec& spec, const Calibration& calibration,
                          const BuildOptions& options = {});

  Oscillator(Oscillator&&) = default;
  Oscillator& operator=(Oscillator&&) = default;

  /// Run until at least `n` output periods are recorded past the warm-up.
  void run_periods(std::size_t n);

  /// Run for a fixed span of simulated time.
  void run_for(Time span);

  /// The observed output trace (post warm-up).
  sim::SignalTrace& output();
  const sim::SignalTrace& output() const;

  const RingSpec& spec() const { return spec_; }

  /// Noise-free period at the nominal operating point.
  Time nominal_period() const { return nominal_period_; }

  /// Current simulation time and events fired since the build.
  Time now() const;
  std::uint64_t events_fired() const;

  /// STR only; null for IROs.
  ring::Str* str() { return str_.get(); }
  ring::Iro* iro() { return iro_.get(); }

 private:
  Oscillator() = default;

  void advance_to(Time t);

  RingSpec spec_;
  Time nominal_period_;
  Time estimated_period_;  ///< nominal period scaled to the operating point
  Time warmup_time_;
  std::unique_ptr<ring::Iro> iro_;
  std::unique_ptr<ring::Str> str_;
  bool started_ = false;
};

}  // namespace ringent::core
