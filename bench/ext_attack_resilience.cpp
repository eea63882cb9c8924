// Extension — attack resilience of a fielded, health-monitored generator.
//
// The paper's Sec. IV-B argument is physical: rail-borne deterministic
// jitter accumulates over an IRO period and is common-mode-attenuated in an
// STR. This bench closes the loop operationally: each topology feeds a
// ResilientGenerator (SP 800-90B RCT/APT monitors + AIS 31-style
// degradation state machine) while a scripted FaultInjector attacks the
// shared supply rail and the stage delays. The table reports what a fielded
// TRNG would actually do — detect, mute, re-lock, fail over, or ride the
// fault out — per scenario and per topology.
//
// The paper-default sweep is pinned bit-exactly by tests/test_attack.cpp;
// this binary prints the same cells in reading order.
#include <cstdio>
#include <string>

#include "cli.hpp"
#include "core/experiments.hpp"
#include "core/export.hpp"
#include "core/report.hpp"
#include "trng/resilient.hpp"

using namespace ringent;
using namespace ringent::core;

int main(int argc, char** argv) {
  const auto& cal = cyclone_iii();
  const bench::CliOptions cli = bench::parse_cli(argc, argv);
  const bench::Session session(cli, "ext_attack_resilience");
  ExperimentOptions options;
  options.jobs = cli.jobs;

  const AttackResilienceSpec spec = AttackResilienceSpec::paper_default();
  std::printf("# Extension: fault injection vs the degradation pipeline\n");
  std::printf("# %zu bits/cell at %.0f ns sampling; policy: H >= %.2f, "
              "backoff %llu, probation %llu, %u strikes\n",
              spec.total_bits, spec.sampling_period.ps() / 1e3,
              spec.policy.claimed_min_entropy,
              static_cast<unsigned long long>(spec.policy.backoff_bits),
              static_cast<unsigned long long>(spec.policy.probation_bits),
              spec.policy.max_strikes);
  bench::print_banner(cli);
  std::printf("\n");

  const auto result = run_attack_resilience(spec, cal, options);

  Table table({"Ring", "Scenario", "final", "detect@bit", "recover(bits)",
               "muted", "alarms", "relocks", "failover", "post-bias"});
  for (const auto& cell : result.cells) {
    table.add_row(
        {cell.ring.name(), cell.scenario, trng::to_string(cell.final_state),
         cell.detection_latency_bits < 0
             ? "-"
             : std::to_string(cell.detection_latency_bits),
         cell.recovery_bits < 0 ? "-" : std::to_string(cell.recovery_bits),
         fmt_percent(cell.muted_fraction, 1),
         std::to_string(cell.rct_alarms + cell.apt_alarms),
         std::to_string(cell.relock_attempts),
         cell.failovers > 0 ? "yes" : "-",
         fmt_double(cell.post_attack_bias, 3)});
  }
  std::printf("%s\n", table.str().c_str());
  write_artifact("ext_attack_resilience", table,
                 "fault scenarios vs health-monitored generator");
  std::printf(
      "checks: the tuned supply tone parks the IRO's sampled phase on the\n"
      "250 ns grid — long runs trip the RCT within ~1.5k bits and the\n"
      "generator mutes, re-locks and recovers once the tone ends; the\n"
      "matched-footprint STR sees the same rail and never leaves healthy\n"
      "(Sec. IV-B's common-mode attenuation, measured at the system level).\n"
      "The brown-out starves the IRO until the strike budget latches it\n"
      "failed (with a failover to the backup ring on the way); stuck-stage\n"
      "is topology-agnostic — physical damage beats topology. Muted bits\n"
      "never reach the consumer; every transition is also counted in the\n"
      "run manifest (--observe metrics).\n");
  return 0;
}
