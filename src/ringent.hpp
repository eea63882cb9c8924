// Umbrella header: the whole public API.
//
// Fine-grained includes are preferred inside the library and its tests;
// downstream quick-starts can simply `#include "ringent.hpp"`.
#pragma once

#include "common/math.hpp"
#include "common/require.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/time.hpp"

#include "sim/ascii_wave.hpp"
#include "sim/event_clock.hpp"
#include "sim/event_queue.hpp"
#include "sim/probe.hpp"
#include "sim/vcd.hpp"
#include "sim/vcd_read.hpp"

#include "fpga/delay_model.hpp"
#include "fpga/device.hpp"
#include "fpga/placement.hpp"
#include "fpga/supply.hpp"

#include "noise/jitter.hpp"
#include "noise/modulation.hpp"

#include "ring/analytic.hpp"
#include "ring/charlie.hpp"
#include "ring/diagram.hpp"
#include "ring/iro.hpp"
#include "ring/mode.hpp"
#include "ring/str.hpp"
#include "ring/str_logic.hpp"

#include "analysis/allan.hpp"
#include "analysis/autocorr.hpp"
#include "analysis/dual_dirac.hpp"
#include "analysis/entropy.hpp"
#include "analysis/fft.hpp"
#include "analysis/histogram.hpp"
#include "analysis/jitter.hpp"
#include "analysis/normality.hpp"
#include "analysis/periods.hpp"
#include "analysis/regression.hpp"

#include "measure/divider.hpp"
#include "measure/frequency.hpp"
#include "measure/method.hpp"
#include "measure/oscilloscope.hpp"

#include "trng/coherent.hpp"
#include "trng/elementary.hpp"
#include "trng/entropy_model.hpp"
#include "trng/health.hpp"
#include "trng/multiring.hpp"
#include "trng/phase_trng.hpp"
#include "trng/postproc.hpp"
#include "trng/sampler.hpp"

#include "core/calibration.hpp"
#include "core/experiments.hpp"
#include "core/export.hpp"
#include "core/oscillator.hpp"
#include "core/report.hpp"
#include "core/spec.hpp"
