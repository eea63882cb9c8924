// What a finished experiment shows a reader: one table of its result plus
// the headline lines (fits, excursions, floors) the paper's text quotes.
//
// One render() overload per experiment, each taking the spec that ran, the
// driver's result and the calibration it ran on. The experiment registry
// (core/registry.hpp) pairs every driver with its overload, so
// `ringent_cli run <experiment>` and `ringent_cli run <plan.json>` print
// the same text for the same run. A render is a pure function of its
// inputs: it reads no clock and no worker count, so its text is identical
// at any `--jobs`. The paper-reference values sit next to each figure in
// EXPERIMENTS.md, not here.
#pragma once

#include <string>
#include <vector>

#include "core/calibration.hpp"
#include "core/experiments.hpp"
#include "core/report.hpp"

namespace ringent::core {

struct Rendering {
  Table table;
  std::vector<std::string> headlines;

  /// The table followed by one headline per line.
  std::string text() const;
};

Rendering render(const VoltageSweepSpec& spec, const VoltageSweepResult& result,
                 const Calibration& calibration);
Rendering render(const TemperatureSweepSpec& spec,
                 const TemperatureSweepResult& result,
                 const Calibration& calibration);
Rendering render(const ProcessVariabilitySpec& spec,
                 const ProcessVariabilityResult& result,
                 const Calibration& calibration);
Rendering render(const JitterSweepSpec& spec,
                 const std::vector<JitterPoint>& result,
                 const Calibration& calibration);
Rendering render(const ModeMapSpec& spec,
                 const std::vector<ModeMapEntry>& result,
                 const Calibration& calibration);
Rendering render(const RestartSpec& spec, const RestartResult& result,
                 const Calibration& calibration);
Rendering render(const CoherentSweepSpec& spec,
                 const CoherentSweepResult& result,
                 const Calibration& calibration);
Rendering render(const DeterministicJitterSpec& spec,
                 const std::vector<DeterministicJitterPoint>& result,
                 const Calibration& calibration);
Rendering render(const EntropyMapSpec& spec, const EntropyMapResult& result,
                 const Calibration& calibration);
Rendering render(const AttackResilienceSpec& spec,
                 const AttackResilienceResult& result,
                 const Calibration& calibration);
Rendering render(const EntropyServiceSpec& spec,
                 const EntropyServiceResult& result,
                 const Calibration& calibration);

}  // namespace ringent::core
