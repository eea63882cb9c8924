// Core power-supply model.
//
// Supplies two needs of the reproduction:
//  * static voltage sweeps (paper Fig. 8 / Table I), and
//  * time-varying deterministic modulation — the "global deterministic
//    jitter" attack vector of Sec. IV-B (e.g. an attacker superimposing a
//    sine on the core rail).
//
// The boards in the paper carry a linear regulator specifically to attenuate
// supply-borne deterministic jitter; Regulator models that attenuation plus a
// small residual ripple.
#pragma once

#include <cstdint>

#include "common/json.hpp"
#include "common/time.hpp"
#include "fpga/delay_model.hpp"

namespace ringent::fpga {

/// Deterministic waveform superimposed on the nominal rail.
struct Modulation {
  enum class Kind { none, sine, square, ramp };

  Kind kind = Kind::none;
  double amplitude_v = 0.0;  ///< peak amplitude (volts)
  double frequency_hz = 0.0;
  double phase_rad = 0.0;

  static Modulation none() { return {}; }
  static Modulation sine(double amplitude_v, double frequency_hz,
                         double phase_rad = 0.0);
  static Modulation square(double amplitude_v, double frequency_hz);
  /// Linear ramp from -amplitude to +amplitude over [0, ramp_duration].
  static Modulation ramp(double amplitude_v, Time ramp_duration);

  /// Waveform value at absolute time t (volts, centered on zero).
  double value_at(Time t) const;
};

/// Linear voltage regulator: passes DC level, attenuates AC modulation.
struct Regulator {
  /// Fraction of the external modulation reaching the core (1 = no regulator,
  /// paper boards ~0.05-0.1 thanks to the on-board linear regulator).
  double ac_attenuation = 1.0;
  /// Residual regulator ripple amplitude (volts) at ripple_frequency_hz.
  double ripple_v = 0.0;
  double ripple_frequency_hz = 0.0;

  /// Serialized form (field list in fpga/supply.cpp): all three fields,
  /// flat; from_json fills absent keys with the pass-through defaults and
  /// rejects unknown keys.
  Json to_json() const;
  static Regulator from_json(const Json& json);
};

class Supply {
 public:
  explicit Supply(double nominal_v = 1.2);

  double nominal_v() const { return nominal_v_; }

  /// Static offset from the nominal rail (bench PSU setting for sweeps).
  void set_level(double volts);
  double level() const { return level_; }

  void set_modulation(const Modulation& m) {
    modulation_ = m;
    ++generation_;
  }
  const Modulation& modulation() const { return modulation_; }

  void set_regulator(const Regulator& r) {
    regulator_ = r;
    ++generation_;
  }

  /// Effective core voltage at absolute time t.
  double voltage_at(Time t) const;

  /// Operating point (voltage + temperature) at time t.
  OperatingPoint operating_point_at(Time t) const;

  void set_temperature_c(double t) {
    temperature_c_ = t;
    ++generation_;
  }
  double temperature_c() const { return temperature_c_; }

  /// Bumped by every setter. Consumers caching derived quantities (the ring
  /// models' delay-scale caches, fpga/op_cache.hpp) revalidate against this
  /// instead of recomputing the operating point per event.
  std::uint64_t generation() const { return generation_; }

  /// True when voltage_at() does not depend on t at all (no modulation
  /// waveform, no regulator ripple): the operating point — and everything
  /// derived from it — is a constant until the next setter call.
  bool time_invariant() const {
    return modulation_.kind == Modulation::Kind::none &&
           regulator_.ripple_v <= 0.0;
  }

 private:
  double nominal_v_;
  double level_;
  double temperature_c_ = 25.0;
  std::uint64_t generation_ = 0;
  Modulation modulation_{};
  Regulator regulator_{};
};

}  // namespace ringent::fpga
