// Fig. 12 — STR period jitter vs number of stages (NT = NB).
//
// The paper's result: sigma_p is flat in the ring length (2-4 ps band),
// converging toward sqrt(2) sigma_g — each STR stage is an independent
// entropy source and the ring length buys robustness for free. The
// jitter_vs_stages rendering (core/render.hpp) reports both the
// ground-truth period sigma (flat ~3.5 ps here) and the divided-clock
// method readout (the long-horizon diffusion rate, which the idealized
// Charlie regulation holds below the i.i.d. extrapolation; see
// EXPERIMENTS.md), with the truth's power-law exponent and flatness. This
// binary only pins the ring to board 0.
#include <cstdio>

#include "common/require.hpp"
#include "core/experiments.hpp"
#include "core/export.hpp"
#include "core/render.hpp"
#include "core/report.hpp"
#include "measure/method.hpp"
#include "sim/parallel.hpp"

using namespace ringent;
using namespace ringent::core;

int main() {
  const auto& cal = cyclone_iii();
  ExperimentOptions options;
  options.board_index = 0;
  JitterSweepSpec sweep;
  sweep.kind = RingKind::str;
  sweep.stage_counts = {4, 8, 16, 24, 32, 48, 64, 96};
  sweep.mes_periods = 220;

  std::printf("# Fig. 12 reproduction: STR period jitter vs number of "
              "stages\n");
  std::printf("# jobs: %zu (set RINGENT_JOBS to override)\n",
              sim::resolve_jobs(0));
  std::printf("# expected: flat in L (paper band 2-4 ps), vs sqrt(2L)*2ps for "
              "an IRO\n# sqrt(2) sigma_g = %s\n\n",
              fmt_ps(measure::str_sigma_p_ps(cal.sigma_g_ps)).c_str());

  const Rendering rendering =
      render(sweep, run_jitter_vs_stages(sweep, cal, options), cal);
  std::printf("%s", rendering.text().c_str());
  try {
    write_artifact("fig12_str_jitter", rendering.table,
                   "STR sigma_p vs stages: truth + diffusion readout");
  } catch (const Error& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
  return 0;
}
