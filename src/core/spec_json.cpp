// The field lists of RingSpec and every experiment spec (common/fields.hpp):
// one line per JSON key drives to_json(), the strict from_json() and the
// parse-time floors. The floors and each list's check() hold the driver's own
// requirements, so a spec that canonicalizes also runs — the campaign
// runner relies on expand_plan() accepting a cell implying it will execute.
#include <cmath>
#include <string>

#include "common/fields.hpp"
#include "common/require.hpp"
#include "core/experiments.hpp"
#include "core/spec.hpp"
#include "service/conditioner.hpp"

namespace ringent::core {

namespace {

using namespace fields;

using Kind = fields::Enum<RingKind, ring_kind_name, parse_ring_kind>;
using Placement = fields::Enum<ring::TokenPlacement, to_string,
                               parse_token_placement>;
using Conditioner =
    fields::Enum<service::ConditionerKind, service::conditioner_kind_name,
                 service::parse_conditioner_kind>;

constexpr auto kRing = fields::object<RingSpec>(
    "ring spec", [](const RingSpec& ring) { ring.validate(); },
    optional("kind", &RingSpec::kind, Kind{}),
    optional("stages", &RingSpec::stages, Integer{}),
    optional("tokens", &RingSpec::tokens, Integer{}),
    optional("placement", &RingSpec::placement, Placement{}));

constexpr Integer kPeriods{.min = 2};
constexpr ArrayOf<Integer> kStageCounts{{.min = 3}};

/// Reject a ring the driver's factory would refuse; `what` names the spec
/// entry that produced it.
void check_ring(const RingSpec& ring, const std::string& what) {
  try {
    ring.validate();
  } catch (const Error& error) {
    throw Error(what + ": " + error.what());
  }
}

void check_stage_counts(RingKind kind,
                        const std::vector<std::size_t>& stage_counts) {
  for (const std::size_t stages : stage_counts) {
    const RingSpec ring{kind, stages};
    check_ring(ring, "\"stage_counts\": " + ring.name());
  }
}

// The nominal-voltage rule depends on the device: run_voltage_sweep checks
// it before simulating.

constexpr auto kVoltageSweep = fields::spec<VoltageSweepSpec>(
    VoltageSweepSpec::spec_schema, nullptr,
    required("ring", &VoltageSweepSpec::ring, Nested{}),
    required("voltages", &VoltageSweepSpec::voltages, ArrayOf<Number>{}),
    optional("periods", &VoltageSweepSpec::periods, kPeriods));

void check_temperature_sweep(const TemperatureSweepSpec& spec) {
  for (const double t : spec.temperatures) {
    if (std::abs(t - 25.0) < 1e-9) return;
  }
  throw Error("\"temperatures\" must include 25 C (the normalization point)");
}

constexpr auto kTemperatureSweep = fields::spec<TemperatureSweepSpec>(
    TemperatureSweepSpec::spec_schema, check_temperature_sweep,
    required("ring", &TemperatureSweepSpec::ring, Nested{}),
    required("temperatures", &TemperatureSweepSpec::temperatures,
             ArrayOf<Number>{}),
    optional("periods", &TemperatureSweepSpec::periods, kPeriods));

constexpr auto kProcessVariability = fields::spec<ProcessVariabilitySpec>(
    ProcessVariabilitySpec::spec_schema, nullptr,
    required("ring", &ProcessVariabilitySpec::ring, Nested{}),
    optional("board_count", &ProcessVariabilitySpec::board_count,
             Integer{.min = 2}),
    optional("periods", &ProcessVariabilitySpec::periods, kPeriods));

constexpr auto kJitterSweep = fields::spec<JitterSweepSpec>(
    JitterSweepSpec::spec_schema,
    [](const JitterSweepSpec& spec) {
      check_stage_counts(spec.kind, spec.stage_counts);
    },
    required("kind", &JitterSweepSpec::kind, Kind{}),
    required("stage_counts", &JitterSweepSpec::stage_counts, kStageCounts),
    optional("divider_n", &JitterSweepSpec::divider_n,
             Integer{.min = 1, .max = 30}),
    optional("mes_periods", &JitterSweepSpec::mes_periods, kPeriods));

void check_mode_map(const ModeMapSpec& spec) {
  for (const std::size_t tokens : spec.token_counts) {
    check_ring(RingSpec{RingKind::str, spec.stages, tokens, spec.placement},
               "\"token_counts\": " + std::to_string(tokens) + " tokens");
  }
}

constexpr auto kModeMap = fields::spec<ModeMapSpec>(
    ModeMapSpec::spec_schema, check_mode_map,
    required("stages", &ModeMapSpec::stages, Integer{.min = 3}),
    required("token_counts", &ModeMapSpec::token_counts,
             ArrayOf<Integer>{{.min = 1}}),
    optional("placement", &ModeMapSpec::placement, Placement{}),
    optional("charlie_scale", &ModeMapSpec::charlie_scale, Number{.min = 0.0}),
    optional("periods", &ModeMapSpec::periods, kPeriods));

constexpr auto kRestart = fields::spec<RestartSpec>(
    RestartSpec::spec_schema, nullptr,
    required("ring", &RestartSpec::ring, Nested{}),
    optional("restarts", &RestartSpec::restarts, Integer{.min = 8}),
    optional("edges", &RestartSpec::edges, Integer{.min = 8}));

constexpr auto kCoherentSweep = fields::spec<CoherentSweepSpec>(
    CoherentSweepSpec::spec_schema, nullptr,
    required("ring", &CoherentSweepSpec::ring, Nested{}),
    required("design_detune", &CoherentSweepSpec::design_detune,
             Number{.min = 0.0, .min_open = true, .max = 0.2,
                    .max_open = true}),
    optional("board_count", &CoherentSweepSpec::board_count, Integer{.min = 2}),
    optional("periods", &CoherentSweepSpec::periods, kPeriods));

constexpr auto kDeterministicJitter = fields::spec<DeterministicJitterSpec>(
    DeterministicJitterSpec::spec_schema,
    [](const DeterministicJitterSpec& spec) {
      check_stage_counts(spec.kind, spec.stage_counts);
    },
    required("kind", &DeterministicJitterSpec::kind, Kind{}),
    required("stage_counts", &DeterministicJitterSpec::stage_counts,
             kStageCounts),
    optional("modulation_amplitude_v",
             &DeterministicJitterSpec::modulation_amplitude_v,
             Number{.min = 0.0}),
    optional("modulation_frequency_hz",
             &DeterministicJitterSpec::modulation_frequency_hz,
             Number{.min = 0.0, .min_open = true}),
    optional("periods", &DeterministicJitterSpec::periods, kPeriods));

void check_entropy_map(const EntropyMapSpec& spec) {
  if ((spec.restart_rows == 0) != (spec.restart_cols == 0)) {
    throw Error("restart_rows and restart_cols must be enabled together");
  }
  if (spec.restart_rows != 0 &&
      (spec.restart_rows < 2 || spec.restart_cols < 2)) {
    throw Error("restart validation needs a matrix of at least 2x2");
  }
  for (const RingKind kind : spec.kinds) {
    check_stage_counts(kind, spec.stage_counts);
  }
}

constexpr auto kEntropyMap = fields::spec<EntropyMapSpec>(
    EntropyMapSpec::spec_schema, check_entropy_map,
    required("kinds", &EntropyMapSpec::kinds, ArrayOf<Kind>{}),
    required("stage_counts", &EntropyMapSpec::stage_counts, kStageCounts),
    required("sampling_periods_fs", &EntropyMapSpec::sampling_periods,
             ArrayOf<TimeFs>{{.positive = true}}),
    optional("bits_per_cell", &EntropyMapSpec::bits_per_cell,
             Integer{.min = 2}),
    optional("restart_rows", &EntropyMapSpec::restart_rows, Integer{}),
    optional("restart_cols", &EntropyMapSpec::restart_cols, Integer{}),
    optional("battery", &EntropyMapSpec::battery, Nested{}));

/// Reject a stage-local fault that does nothing on some ring under attack:
/// a stuck stage past the ring's last stage, or a mode kick covering every
/// stage (a uniform delay step, not a kick).
void check_attack_resilience(const AttackResilienceSpec& spec) {
  for (const noise::FaultScenario& scenario : spec.scenarios) {
    for (const noise::FaultEvent& event : scenario.events) {
      const bool stuck = event.kind == noise::FaultKind::stuck_stage;
      if (!stuck && event.kind != noise::FaultKind::mode_kick) continue;
      for (const RingSpec& ring : spec.rings) {
        if (event.stage < ring.stages) continue;
        const std::string where = "\"scenarios\": \"" + scenario.name +
                                  "\": " + noise::to_string(event.kind) +
                                  " \"stage\" " +
                                  std::to_string(event.stage) + " on " +
                                  ring.name() + ": ";
        throw Error(where + (stuck ? "past the ring's last stage, so no "
                                     "stage is frozen"
                                   : "kicks every stage, a uniform delay "
                                     "step rather than a kick"));
      }
    }
  }
}

constexpr auto kAttackResilience = fields::spec<AttackResilienceSpec>(
    AttackResilienceSpec::spec_schema, check_attack_resilience,
    required("rings", &AttackResilienceSpec::rings, ArrayOf<Nested>{}),
    required("scenarios", &AttackResilienceSpec::scenarios, ArrayOf<Nested>{}),
    required("sampling_period_fs", &AttackResilienceSpec::sampling_period,
             TimeFs{.positive = true}),
    optional("total_bits", &AttackResilienceSpec::total_bits,
             Integer{.min = 1}),
    optional("policy", &AttackResilienceSpec::policy, Nested{}),
    optional("regulator", &AttackResilienceSpec::regulator, Nested{}),
    optional("with_backup", &AttackResilienceSpec::with_backup, Boolean{}));

void check_entropy_service(const EntropyServiceSpec& spec) {
  if ((spec.ring_capacity & (spec.ring_capacity - 1)) != 0) {
    throw Error("\"ring_capacity\" must be a power of two");
  }
}

constexpr auto kEntropyService = fields::spec<EntropyServiceSpec>(
    EntropyServiceSpec::spec_schema, check_entropy_service,
    required("slots", &EntropyServiceSpec::slots, Integer{.min = 1}),
    required("raw_bits_per_slot", &EntropyServiceSpec::raw_bits_per_slot,
             Integer{.min = 8}),
    optional("conditioner", &EntropyServiceSpec::conditioner, Conditioner{}),
    optional("conditioner_ratio", &EntropyServiceSpec::conditioner_ratio,
             Integer{.min = 1}),
    optional("ring_capacity", &EntropyServiceSpec::ring_capacity,
             Integer{.min = 2}),
    optional("block_bytes", &EntropyServiceSpec::block_bytes,
             Integer{.min = 1}),
    optional("request_bytes", &EntropyServiceSpec::request_bytes,
             Integer{.min = 1}),
    optional("synthetic", &EntropyServiceSpec::synthetic, Boolean{}),
    optional("ring", &EntropyServiceSpec::ring, Nested{}),
    optional("sampling_period_fs", &EntropyServiceSpec::sampling_period,
             TimeFs{.positive = true}),
    optional("wait_budget_ms", &EntropyServiceSpec::wait_budget_ms, Integer{}),
    optional("policy", &EntropyServiceSpec::policy, Nested{}));

}  // namespace

RINGENT_FIELDS_JSON(RingSpec, kRing)
RINGENT_FIELDS_JSON(VoltageSweepSpec, kVoltageSweep)
RINGENT_FIELDS_JSON(TemperatureSweepSpec, kTemperatureSweep)
RINGENT_FIELDS_JSON(ProcessVariabilitySpec, kProcessVariability)
RINGENT_FIELDS_JSON(JitterSweepSpec, kJitterSweep)
RINGENT_FIELDS_JSON(ModeMapSpec, kModeMap)
RINGENT_FIELDS_JSON(RestartSpec, kRestart)
RINGENT_FIELDS_JSON(CoherentSweepSpec, kCoherentSweep)
RINGENT_FIELDS_JSON(DeterministicJitterSpec, kDeterministicJitter)
RINGENT_FIELDS_JSON(EntropyMapSpec, kEntropyMap)
RINGENT_FIELDS_JSON(AttackResilienceSpec, kAttackResilience)
RINGENT_FIELDS_JSON(EntropyServiceSpec, kEntropyService)

}  // namespace ringent::core
