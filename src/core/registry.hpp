// A name -> descriptor registry over every experiment driver in
// core/experiments.hpp. Each entry carries a one-line summary, the paper
// anchor it reproduces, and a type-erased JSON-spec surface: a committed
// small default spec, a canonicalizer (parse + validate + re-emit — the
// campaign layer's cache-key normalizer), `run_spec`, which executes the
// driver on a serialized spec under an observation scope that collects
// metrics and returns the RunManifest the driver built from it, and
// `render`, which runs the same way and also renders the driver's result
// (core/render.hpp) for a reader.
//
//   for (const auto& e : core::experiment_registry())
//     std::printf("%-22s %s\n", e.name.c_str(), e.summary.c_str());
//
//   const auto* exp = core::find_experiment("attack_resilience");
//   const core::RunManifest m =
//       exp->run_spec(exp->default_spec(), core::cyclone_iii(), options);
//
//   // Same run, with its table and headline fits:
//   const core::RenderedRun r =
//       exp->render(exp->default_spec(), core::cyclone_iii(), options);
//   std::fputs(r.rendering.text().c_str(), stdout);
#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "core/experiments.hpp"
#include "core/export.hpp"
#include "core/render.hpp"

namespace ringent::core {

/// One run through ExperimentDescriptor::render: its manifest and what it
/// shows a reader.
struct RenderedRun {
  RunManifest manifest;
  Rendering rendering;
};

struct ExperimentDescriptor {
  /// Registry key; matches the `experiment` field of the manifest the
  /// driver writes (drivers that split by ring kind report a `_iro`/`_str`
  /// suffixed name).
  std::string name;

  /// One-line description for `--list` output.
  std::string summary;

  /// Where in the paper (or which extension) this experiment comes from.
  std::string source;

  /// Spec schema id ("ringent.spec.<name>/1") — the value of the "schema"
  /// key in every serialized spec of this experiment, and an ingredient of
  /// the campaign content key.
  std::string spec_schema;

  /// The committed small default spec, serialized: what `ringent_cli run
  /// <name>` executes and what a campaign plan entry overlays; tests pin
  /// its canonical dump.
  std::function<Json()> default_spec;

  /// Parse + validate + re-serialize a spec document. Rejects unknown keys,
  /// missing required keys and out-of-range values (throws ringent::Error
  /// naming the schema); fills absent optional keys with the spec's
  /// defaults. The result is total (every field present) and stable:
  /// canonicalize(canonicalize(x)) == canonicalize(x), which is what the
  /// campaign layer hashes for content addressing.
  std::function<Json(const Json&)> canonicalize;

  /// Run the driver on a serialized spec under its own observation scope
  /// (sim/observe.hpp) that collects metrics, plus whatever the caller's
  /// scope collects, and return the run manifest the driver built from it.
  /// Concurrent calls observe only their own runs. Honors `options.seed` /
  /// `options.jobs`. Throws like `canonicalize` on a bad spec and like the
  /// underlying driver on a bad calibration.
  std::function<RunManifest(const Json&, const Calibration&,
                            const ExperimentOptions&)>
      run_spec;

  /// run_spec's run (the same observation, the same manifest) plus the
  /// driver's result rendered by its core/render.hpp overload. Campaign
  /// cells call run_spec and never pay for rendering.
  std::function<RenderedRun(const Json&, const Calibration&,
                            const ExperimentOptions&)>
      render;
};

/// All registered experiments, in presentation order (paper figures first,
/// extensions after). The vector is built once and lives for the process.
const std::vector<ExperimentDescriptor>& experiment_registry();

/// Look up a descriptor by name; nullptr when unknown.
const ExperimentDescriptor* find_experiment(std::string_view name);

}  // namespace ringent::core
