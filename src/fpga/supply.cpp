#include "fpga/supply.hpp"

#include <cmath>

#include "common/fields.hpp"
#include "common/require.hpp"

namespace ringent::fpga {

namespace {

using namespace fields;

constexpr auto kRegulatorFields = fields::object<Regulator>(
    "regulator",
    [](const Regulator& regulator) {
      if (regulator.ripple_v > 0.0 && !(regulator.ripple_frequency_hz > 0.0)) {
        throw Error("ripple needs a positive ripple_frequency_hz");
      }
    },
    optional("ac_attenuation", &Regulator::ac_attenuation,
             Number{.min = 0.0, .max = 1.0}),
    optional("ripple_v", &Regulator::ripple_v, Number{.min = 0.0}),
    optional("ripple_frequency_hz", &Regulator::ripple_frequency_hz, Number{}));

}  // namespace

RINGENT_FIELDS_JSON(Regulator, kRegulatorFields)

Modulation Modulation::sine(double amplitude_v, double frequency_hz,
                            double phase_rad) {
  RINGENT_REQUIRE(amplitude_v >= 0.0, "negative amplitude");
  RINGENT_REQUIRE(frequency_hz > 0.0, "sine modulation needs frequency > 0");
  Modulation m;
  m.kind = Kind::sine;
  m.amplitude_v = amplitude_v;
  m.frequency_hz = frequency_hz;
  m.phase_rad = phase_rad;
  return m;
}

Modulation Modulation::square(double amplitude_v, double frequency_hz) {
  RINGENT_REQUIRE(amplitude_v >= 0.0, "negative amplitude");
  RINGENT_REQUIRE(frequency_hz > 0.0, "square modulation needs frequency > 0");
  Modulation m;
  m.kind = Kind::square;
  m.amplitude_v = amplitude_v;
  m.frequency_hz = frequency_hz;
  return m;
}

Modulation Modulation::ramp(double amplitude_v, Time ramp_duration) {
  RINGENT_REQUIRE(amplitude_v >= 0.0, "negative amplitude");
  RINGENT_REQUIRE(ramp_duration > Time::zero(), "ramp needs positive duration");
  Modulation m;
  m.kind = Kind::ramp;
  m.amplitude_v = amplitude_v;
  // Encode duration as an equivalent frequency: one full excursion per ramp.
  m.frequency_hz = 1.0 / ramp_duration.seconds();
  return m;
}

double Modulation::value_at(Time t) const {
  switch (kind) {
    case Kind::none:
      return 0.0;
    case Kind::sine:
      return amplitude_v *
             std::sin(2.0 * M_PI * frequency_hz * t.seconds() + phase_rad);
    case Kind::square: {
      const double phase = frequency_hz * t.seconds();
      return (phase - std::floor(phase)) < 0.5 ? amplitude_v : -amplitude_v;
    }
    case Kind::ramp: {
      const double progress = frequency_hz * t.seconds();
      if (progress >= 1.0) return amplitude_v;
      return -amplitude_v + 2.0 * amplitude_v * progress;
    }
  }
  return 0.0;
}

Supply::Supply(double nominal_v) : nominal_v_(nominal_v), level_(nominal_v) {
  RINGENT_REQUIRE(nominal_v > 0.0, "nominal voltage must be positive");
}

void Supply::set_level(double volts) {
  RINGENT_REQUIRE(volts > 0.0, "supply level must be positive");
  level_ = volts;
  ++generation_;
}

double Supply::voltage_at(Time t) const {
  double v = level_;
  v += regulator_.ac_attenuation * modulation_.value_at(t);
  if (regulator_.ripple_v > 0.0) {
    v += regulator_.ripple_v *
         std::sin(2.0 * M_PI * regulator_.ripple_frequency_hz * t.seconds());
  }
  return v;
}

OperatingPoint Supply::operating_point_at(Time t) const {
  return OperatingPoint{voltage_at(t), temperature_c_};
}

}  // namespace ringent::fpga
