// Fig. 11 — IRO period jitter vs number of stages.
//
// The paper's curve shows sqrt accumulation (Eq. 4) and extracts
// sigma_g ~ 2 ps per LUT (Eq. 7). Here the whole chain runs through the
// instrument model: ring -> divider -> oscilloscope -> Eq. 6. The table and
// its sqrt-law and power-law fits are the jitter_vs_stages rendering
// (core/render.hpp); this binary only pins the ring to board 0.
#include <cstdio>

#include "common/require.hpp"
#include "core/experiments.hpp"
#include "core/export.hpp"
#include "core/render.hpp"
#include "sim/parallel.hpp"

using namespace ringent;
using namespace ringent::core;

int main() {
  const auto& cal = cyclone_iii();
  ExperimentOptions options;
  options.board_index = 0;
  JitterSweepSpec sweep;
  sweep.kind = RingKind::iro;
  sweep.stage_counts = {3, 5, 9, 15, 25, 40, 60, 80};
  sweep.mes_periods = 220;

  std::printf("# Fig. 11 reproduction: IRO period jitter vs number of "
              "stages\n");
  std::printf("# expected: sigma_p = sqrt(2k) sigma_g with sigma_g ~ 2 ps\n");
  std::printf("# jobs: %zu (set RINGENT_JOBS to override)\n",
              sim::resolve_jobs(0));
  std::printf("\n");

  const Rendering rendering =
      render(sweep, run_jitter_vs_stages(sweep, cal, options), cal);
  std::printf("%s", rendering.text().c_str());
  try {
    write_artifact("fig11_iro_jitter", rendering.table,
                   "IRO sigma_p vs stages through the instrument chain");
  } catch (const Error& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
  return 0;
}
