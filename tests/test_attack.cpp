// Tier-2 golden suite for the attack-resilience pipeline: the full
// paper-scale scenario x topology sweep (run_attack_resilience with
// AttackResilienceSpec::paper_default()) is deterministic end to end —
// fault schedule, ring physics, sampler, health monitors and degradation
// state machine — so detection latencies, muted-bit counts and the whole
// transition census are pinned EXACTLY at jobs = 2, like the driver goldens
// in test_golden.cpp. Regenerate after an intended behaviour change with:
//
//   RINGENT_DUMP_GOLDEN=1 ./tests/test_attack
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "core/experiments.hpp"
#include "core/export.hpp"
#include "sim/metrics.hpp"
#include "sim/observe.hpp"
#include "trng/resilient.hpp"

using namespace ringent;
using namespace ringent::core;
namespace metrics = ringent::sim::metrics;

namespace {

bool dump_mode() {
  const char* flag = std::getenv("RINGENT_DUMP_GOLDEN");
  return flag != nullptr && flag[0] != '\0';
}

void check_golden(const char* name, const std::vector<double>& actual,
                  const std::vector<double>& expected) {
  if (dump_mode()) {
    std::printf("// golden %s\n{\n", name);
    for (double v : actual) std::printf("    %.17g,\n", v);
    std::printf("}\n");
    return;
  }
  ASSERT_EQ(actual.size(), expected.size()) << name;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i], expected[i]) << name << " observable " << i;
  }
}

/// One shared paper-default run (the sweep takes tens of seconds): executed
/// once with metrics on so every test can check both the result and the
/// manifest the driver emitted.
struct AttackRun {
  AttackResilienceResult result;
  RunManifest manifest;
};

const AttackRun& paper_run() {
  static const AttackRun run = [] {
    const sim::Scope scope(sim::Collect{.metrics = true}, nullptr);
    ExperimentOptions options;
    options.jobs = 2;  // pin the pool path; results are jobs-invariant
    AttackRun r;
    options.manifest = &r.manifest;
    r.result = run_attack_resilience(AttackResilienceSpec::paper_default(),
                                     cyclone_iii(), options);
    return r;
  }();
  return run;
}

const AttackResilienceCell& cell_for(const char* ring, const char* scenario) {
  for (const auto& cell : paper_run().result.cells) {
    if (cell.ring.name() == ring && cell.scenario == scenario) return cell;
  }
  ADD_FAILURE() << "no cell " << ring << " / " << scenario;
  static const AttackResilienceCell none{};
  return none;
}

}  // namespace

TEST(Attack, GoldenCellObservables) {
  // 13 observables per cell, IRO 25C then STR 24C, each across the six
  // paper_default scenarios in order: quiet, supply-tone, brown-out,
  // stuck-stage, delay-drift, mode-kick.
  std::vector<double> actual;
  for (const auto& cell : paper_run().result.cells) {
    actual.push_back(static_cast<double>(cell.final_state));
    actual.push_back(static_cast<double>(cell.raw_bits));
    actual.push_back(static_cast<double>(cell.emitted_bits));
    actual.push_back(static_cast<double>(cell.muted_bits));
    actual.push_back(static_cast<double>(cell.detection_latency_bits));
    actual.push_back(static_cast<double>(cell.recovery_bits));
    actual.push_back(static_cast<double>(cell.rct_alarms));
    actual.push_back(static_cast<double>(cell.apt_alarms));
    actual.push_back(static_cast<double>(cell.relock_attempts));
    actual.push_back(static_cast<double>(cell.failovers));
    actual.push_back(static_cast<double>(cell.fault_activations));
    actual.push_back(cell.post_attack_bias);
    actual.push_back(static_cast<double>(cell.transitions.size()));
  }
  check_golden(
      "AttackCells", actual,
      {
          // IRO 25C / quiet
          0, 4000, 4000, 0, -1, -1, 0, 0, 0, 0, 0, 0.50049999999999994, 0,
          // IRO 25C / supply-tone: detected at bit 1517, re-locked in 1280
          0, 4000, 2719, 1281, 1517, 1280, 1, 0, 1, 0, 1,
          0.50166666666666671, 4,
          // IRO 25C / brown-out: strikes out, fails over, latches failed
          4, 2984, 1100, 1884, 1064, 1882, 3, 0, 2, 1, 4, 1, 8,
          // IRO 25C / stuck-stage
          0, 4000, 2139, 1861, 465, 1860, 2, 0, 2, 1, 1, 0.4975, 6,
          // IRO 25C / delay-drift: suspect flickers only, never alarms
          0, 4000, 4000, 0, -1, -1, 0, 0, 0, 0, 1, 0.4975, 4,
          // IRO 25C / mode-kick
          0, 4000, 2139, 1861, 864, 1860, 2, 0, 2, 1, 1,
          0.5007836990595611, 6,
          // STR 24C / quiet
          0, 4000, 4000, 0, -1, -1, 0, 0, 0, 0, 0, 0.50124999999999997, 0,
          // STR 24C / supply-tone: rides out the attack untouched
          0, 4000, 4000, 0, -1, -1, 0, 0, 0, 0, 1, 0.49916666666666665, 0,
          // STR 24C / brown-out
          0, 4000, 4000, 0, -1, -1, 0, 0, 0, 0, 2, 0.49928571428571428, 0,
          // STR 24C / stuck-stage: the one topology-agnostic fault
          0, 4000, 2139, 1861, 467, 1860, 2, 0, 2, 1, 1,
          0.48499999999999999, 6,
          // STR 24C / delay-drift
          0, 4000, 4000, 0, -1, -1, 0, 0, 0, 0, 1, 0.5, 0,
          // STR 24C / mode-kick
          0, 4000, 4000, 0, -1, -1, 0, 0, 0, 0, 1, 0.50083333333333335, 0,
      });
}

TEST(Attack, SupplyToneAlarmsTheIroButNotTheMatchedStr) {
  // The acceptance claim from the paper's Sec. IV-B comparison: the same
  // rail-borne tone that locks the IRO's sampled stream (long runs -> RCT)
  // passes through the STR's common-mode attenuation without tripping a
  // single monitor.
  const auto& iro = cell_for("IRO 25C", "supply-tone");
  EXPECT_GT(iro.detection_latency_bits, 0);
  EXPECT_GE(iro.rct_alarms + iro.apt_alarms, 1u);
  EXPECT_GT(iro.muted_bits, 0u);
  EXPECT_GT(iro.recovery_bits, 0);  // and it re-locks once the tone ends

  const auto& str = cell_for("STR 24C", "supply-tone");
  EXPECT_EQ(str.final_state, trng::DegradationState::healthy);
  EXPECT_EQ(str.detection_latency_bits, -1);
  EXPECT_EQ(str.rct_alarms + str.apt_alarms, 0u);
  EXPECT_EQ(str.muted_bits, 0u);
  EXPECT_TRUE(str.transitions.empty());
  EXPECT_EQ(str.emitted_bits, str.raw_bits);
}

TEST(Attack, QuietBaselineIsCleanAndStuckStageIsTopologyAgnostic) {
  for (const char* ring : {"IRO 25C", "STR 24C"}) {
    const auto& quiet = cell_for(ring, "quiet");
    EXPECT_EQ(quiet.final_state, trng::DegradationState::healthy) << ring;
    EXPECT_EQ(quiet.emitted_bits, quiet.raw_bits) << ring;
    EXPECT_EQ(quiet.muted_bits, 0u) << ring;
    EXPECT_EQ(quiet.fault_activations, 0u) << ring;

    // A frozen stage kills either topology's entropy; both must detect it.
    const auto& stuck = cell_for(ring, "stuck-stage");
    EXPECT_GT(stuck.detection_latency_bits, 0) << ring;
    EXPECT_GE(stuck.fault_activations, 1u) << ring;
  }
}

TEST(Attack, ManifestCountersEqualTheResultTotals) {
  // Every degradation transition (and alarm, mute, re-lock, failover) the
  // result reports must appear 1:1 as a metrics counter delta in the run
  // manifest — the driver's provenance record is not allowed to drift from
  // the in-memory result.
  const AttackRun& run = paper_run();
  EXPECT_EQ(run.manifest.experiment, "attack_resilience");
  EXPECT_EQ(run.manifest.jobs, 2u);
  EXPECT_EQ(run.manifest.tasks, run.result.cells.size());
  ASSERT_EQ(run.result.cells.size(), 12u);

  std::uint64_t rct = 0, apt = 0, muted = 0, relocks = 0, failovers = 0,
                activations = 0, transitions = 0, failures = 0;
  for (const auto& cell : run.result.cells) {
    rct += cell.rct_alarms;
    apt += cell.apt_alarms;
    muted += cell.muted_bits;
    relocks += cell.relock_attempts;
    failovers += cell.failovers;
    activations += cell.fault_activations;
    transitions += cell.transitions.size();
    if (cell.final_state == trng::DegradationState::failed) ++failures;
  }
  EXPECT_EQ(run.result.total_transitions, transitions);

  const auto counter = [&](metrics::Counter c) {
    return run.manifest.metrics.counter(c);
  };
  EXPECT_EQ(counter(metrics::Counter::health_transitions), transitions);
  EXPECT_EQ(counter(metrics::Counter::health_rct_alarms), rct);
  EXPECT_EQ(counter(metrics::Counter::health_apt_alarms), apt);
  EXPECT_EQ(counter(metrics::Counter::health_bits_muted), muted);
  EXPECT_EQ(counter(metrics::Counter::health_relock_attempts), relocks);
  EXPECT_EQ(counter(metrics::Counter::health_failovers), failovers);
  EXPECT_EQ(counter(metrics::Counter::health_failures), failures);
  EXPECT_EQ(counter(metrics::Counter::fault_activations), activations);
  EXPECT_GE(transitions, 1u);  // the sweep is not trivially quiet
}
