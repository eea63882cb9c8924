#include "noise/fault.hpp"

#include <algorithm>
#include <cmath>

#include "common/fields.hpp"
#include "common/require.hpp"

namespace ringent::noise {

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::supply_tone: return "supply_tone";
    case FaultKind::supply_step: return "supply_step";
    case FaultKind::supply_ramp: return "supply_ramp";
    case FaultKind::stuck_stage: return "stuck_stage";
    case FaultKind::delay_step: return "delay_step";
    case FaultKind::delay_drift: return "delay_drift";
    case FaultKind::mode_kick: return "mode_kick";
  }
  return "?";
}

FaultKind parse_fault_kind(std::string_view name) {
  for (const FaultKind kind :
       {FaultKind::supply_tone, FaultKind::supply_step, FaultKind::supply_ramp,
        FaultKind::stuck_stage, FaultKind::delay_step, FaultKind::delay_drift,
        FaultKind::mode_kick}) {
    if (name == to_string(kind)) return kind;
  }
  throw Error("unknown fault kind \"" + std::string(name) + "\"");
}

bool is_supply_fault(FaultKind kind) {
  return kind == FaultKind::supply_tone || kind == FaultKind::supply_step ||
         kind == FaultKind::supply_ramp;
}

namespace {

using namespace fields;

constexpr auto kFaultEventFields = fields::object<FaultEvent>(
    "fault event", nullptr,
    optional("kind", &FaultEvent::kind,
             Enum<FaultKind, to_string, parse_fault_kind>{}),
    optional("start_fs", &FaultEvent::start, TimeFs{}),
    optional("stop_fs", &FaultEvent::stop, TimeFs{}),
    optional("magnitude", &FaultEvent::magnitude, Number{}),
    optional("frequency_hz", &FaultEvent::frequency_hz, Number{}),
    optional("stage", &FaultEvent::stage, Integer{}));

constexpr auto kFaultScenarioFields = fields::object<FaultScenario>(
    "fault scenario",
    [](const FaultScenario& scenario) {
      if (scenario.name.empty()) throw Error("\"name\" must be non-empty");
      scenario.validate();
    },
    required("name", &FaultScenario::name, Text{}),
    optional("events", &FaultScenario::events,
             ArrayOf<Nested>{.allow_empty = true}));

}  // namespace

RINGENT_FIELDS_JSON(FaultEvent, kFaultEventFields)
RINGENT_FIELDS_JSON(FaultScenario, kFaultScenarioFields)

namespace {

FaultEvent make(FaultKind kind, Time start, Time stop, double magnitude) {
  FaultEvent e;
  e.kind = kind;
  e.start = start;
  e.stop = stop;
  e.magnitude = magnitude;
  return e;
}

}  // namespace

FaultEvent FaultEvent::tone(Time start, Time stop, double amplitude_v,
                            double frequency_hz) {
  FaultEvent e = make(FaultKind::supply_tone, start, stop, amplitude_v);
  e.frequency_hz = frequency_hz;
  return e;
}

FaultEvent FaultEvent::brownout(Time start, Time stop, double drop_v) {
  return make(FaultKind::supply_step, start, stop, -drop_v);
}

FaultEvent FaultEvent::ramp(Time start, Time stop, double to_offset_v) {
  return make(FaultKind::supply_ramp, start, stop, to_offset_v);
}

FaultEvent FaultEvent::stuck(Time start, Time stop, std::size_t stage) {
  FaultEvent e = make(FaultKind::stuck_stage, start, stop, 0.0);
  e.stage = stage;
  return e;
}

FaultEvent FaultEvent::delay_step(Time start, Time stop, double offset_ps) {
  return make(FaultKind::delay_step, start, stop, offset_ps);
}

FaultEvent FaultEvent::drift(Time start, Time stop, double to_offset_ps) {
  return make(FaultKind::delay_drift, start, stop, to_offset_ps);
}

FaultEvent FaultEvent::kick(Time start, Time stop, double offset_ps,
                            std::size_t affected_stages) {
  FaultEvent e = make(FaultKind::mode_kick, start, stop, offset_ps);
  e.stage = affected_stages;
  return e;
}

void FaultScenario::validate() const {
  // The message alone: spec parsers wrap it with the schema and key.
  const auto require = [](bool ok, const char* message) {
    if (!ok) throw PreconditionError(message);
  };
  for (const FaultEvent& e : events) {
    require(!e.start.is_negative(), "fault window starts before t=0");
    require(e.stop > e.start, "fault window must have stop > start");
    require(std::isfinite(e.magnitude), "fault magnitude not finite");
    if (e.kind == FaultKind::supply_tone) {
      require(e.frequency_hz > 0.0, "supply tone needs a positive frequency");
    }
    if (e.kind == FaultKind::mode_kick) {
      require(e.stage > 0, "mode kick needs at least one stage");
    }
  }
}

Time FaultScenario::end() const {
  Time end = Time::zero();
  for (const FaultEvent& e : events) end = std::max(end, e.stop);
  return end;
}

bool FaultScenario::has_supply_faults() const {
  return std::any_of(events.begin(), events.end(),
                     [](const FaultEvent& e) { return is_supply_fault(e.kind); });
}

bool FaultScenario::has_delay_faults() const {
  return std::any_of(events.begin(), events.end(), [](const FaultEvent& e) {
    return !is_supply_fault(e.kind);
  });
}

FaultScenario FaultScenario::supply_only() const {
  FaultScenario out;
  out.name = name + "/supply-only";
  for (const FaultEvent& e : events) {
    if (is_supply_fault(e.kind)) out.events.push_back(e);
  }
  return out;
}

FaultInjector::FaultInjector(FaultScenario scenario, fpga::Supply* supply)
    : scenario_(std::move(scenario)), supply_(supply) {
  scenario_.validate();
  RINGENT_REQUIRE(supply_ != nullptr || !scenario_.has_supply_faults(),
                  "scenario has supply faults but no supply was given");
  if (supply_ != nullptr) base_level_v_ = supply_->level();
  seen_.assign(scenario_.events.size(), false);
}

double FaultInjector::supply_offset_v(Time t) const {
  double offset = 0.0;
  for (const FaultEvent& e : scenario_.events) {
    if (!e.active_at(t)) continue;
    if (e.kind == FaultKind::supply_step) {
      offset += e.magnitude;
    } else if (e.kind == FaultKind::supply_ramp) {
      offset += e.magnitude * ((t - e.start) / (e.stop - e.start));
    }
  }
  return offset;
}

void FaultInjector::advance_to(Time t) {
  for (std::size_t i = 0; i < scenario_.events.size(); ++i) {
    if (!seen_[i] && t >= scenario_.events[i].start) {
      seen_[i] = true;
      ++activations_;
    }
  }
  if (supply_ == nullptr) return;

  // Exactly one tone can drive the rail at a time (the Supply holds one
  // Modulation); with overlapping tone windows the last-scheduled one wins.
  const FaultEvent* tone = nullptr;
  for (const FaultEvent& e : scenario_.events) {
    if (e.kind == FaultKind::supply_tone && e.active_at(t)) tone = &e;
  }
  if (tone != nullptr) {
    // The supply evaluates its modulation in the ring's *local* time;
    // the attacker's tone is continuous in absolute time. Rebase the phase
    // with the current epoch so an oscillator restart does not silently
    // restart the attack waveform too.
    const double phase =
        2.0 * M_PI * tone->frequency_hz * epoch_.seconds();
    supply_->set_modulation(
        fpga::Modulation::sine(tone->magnitude, tone->frequency_hz, phase));
    tone_applied_ = true;
  } else if (tone_applied_) {
    supply_->set_modulation(fpga::Modulation::none());
    tone_applied_ = false;
  }
  supply_->set_level(base_level_v_ + supply_offset_v(t));
}

Time FaultInjector::next_boundary(Time t) const {
  Time next = Time::max();
  const auto consider = [&](Time candidate) {
    if (candidate > t) next = std::min(next, candidate);
  };
  for (const FaultEvent& e : scenario_.events) {
    consider(e.start);
    consider(e.stop);
    if (e.kind == FaultKind::supply_ramp) {
      const Time step = (e.stop - e.start) / fault_ramp_substeps;
      if (step > Time::zero()) {
        for (int k = 1; k < fault_ramp_substeps; ++k) {
          consider(e.start + step * k);
        }
      }
    }
  }
  return next;
}

double FaultInjector::offset_ps(Time local) const {
  const Time t = epoch_ + local;
  double offset = 0.0;
  for (const FaultEvent& e : scenario_.events) {
    if (!e.active_at(t)) continue;
    if (e.kind == FaultKind::delay_step) {
      offset += e.magnitude;
    } else if (e.kind == FaultKind::delay_drift) {
      offset += e.magnitude * ((t - e.start) / (e.stop - e.start));
    }
  }
  return offset;
}

double FaultInjector::offset_ps(Time local, std::size_t stage) const {
  const Time t = epoch_ + local;
  double offset = offset_ps(local);
  for (const FaultEvent& e : scenario_.events) {
    if (!e.active_at(t)) continue;
    if (e.kind == FaultKind::stuck_stage && e.stage == stage) {
      // Hold the stage until the window closes: the firing that would have
      // happened now is pushed past the release instant.
      offset += (e.stop - t).ps();
    } else if (e.kind == FaultKind::mode_kick && stage < e.stage) {
      offset += e.magnitude;
    }
  }
  return offset;
}

}  // namespace ringent::noise
