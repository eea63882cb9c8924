// Calibrated device model for the paper's experimental platform: Altera
// Cyclone III boards with a linear supply regulator, measured with a LeCroy
// WavePro 735 Zi.
//
// Every constant here is traceable to a number in the paper:
//  * LUT/stage delays and the routing tables reproduce the measured
//    frequencies of Tables I & II (e.g. IRO 3C -> 654 MHz, STR 96C -> 320
//    MHz);
//  * sigma_g = 2 ps is the paper's extracted per-LUT jitter (Fig. 11);
//  * the process sigmas reproduce the Table II sigma_rel decomposition;
//  * the voltage-law pivots reproduce the Fig. 8 linear F(V) slopes and the
//    Table I excursions (the LUT pivot gives the flat ~49% IRO excursion;
//    the weaker routing sensitivity gives the STR's improvement with
//    length).
// See EXPERIMENTS.md for the paper-value vs model-value table.
#pragma once

#include <cstdint>
#include <string_view>

#include "fpga/delay_model.hpp"
#include "fpga/device.hpp"
#include "fpga/placement.hpp"
#include "measure/oscilloscope.hpp"
#include "ring/charlie.hpp"

namespace ringent::core {

struct Calibration {
  // --- static timing -------------------------------------------------------
  Time iro_lut_delay = Time::from_ps(255.0);  ///< inverter/buffer LUT delay
  Time str_d_static = Time::from_ps(260.0);   ///< Muller-LUT static delay Ds
  Time str_d_charlie = Time::from_ps(123.0);  ///< Charlie magnitude Dch
  ring::DraftingParams drafting = ring::DraftingParams::disabled();

  fpga::RoutingModel iro_routing;
  fpga::RoutingModel str_routing;

  // --- operating point -----------------------------------------------------
  // Temperature coefficients are typical Cyclone III numbers (~0.3-0.4% per
  // 10 C); the paper holds temperature fixed, the temperature_sweep
  // experiment sweeps it (examples/plans/figures/ext_temperature.json; the
  // attack surface of its ref [1]).
  double nominal_voltage = 1.2;
  fpga::VoltageLaws laws{
      fpga::DelayVoltageLaw(0.385, 1.2, 4.0e-4),  // LUT: ~49% / 0.4 V
      fpga::DelayVoltageLaw(-0.40, 1.2, 2.5e-4),  // routing: ~25% / 0.4 V
      fpga::DelayVoltageLaw(0.385, 1.2, 4.0e-4),  // Charlie: tracks LUT
  };

  // --- process population --------------------------------------------------
  fpga::ProcessParams process{0.001, 0.0135};

  // --- dynamic noise -------------------------------------------------------
  double sigma_g_ps = 2.0;  ///< white Gaussian jitter per LUT firing

  // --- instrumentation -----------------------------------------------------
  measure::OscilloscopeConfig scope{};

  Calibration();
};

/// The calibrated Cyclone III model used by all paper reproductions.
const Calibration& cyclone_iii();

/// Stable device-profile id of the calibration above. Campaign content keys
/// hash this id (not the calibration constants), so a key names "the
/// calibrated Cyclone III model as of this schema" — recalibrating the
/// constants without bumping the id silently reuses stale cached cells, so
/// bump it ("/2") whenever the numbers move.
inline constexpr std::string_view cyclone_iii_profile = "cyclone-iii";

/// Resolve a device-profile id (as stored in campaign plans) to its
/// calibration; throws ringent::Error naming the id when unknown.
const Calibration& find_device_profile(std::string_view name);

}  // namespace ringent::core
