// Oracle for the ring-owned event loops: every case runs one ring twice,
// once through ring::Iro / ring::Str and once through the reference
// simulator (tests/reference_sim.hpp: a generic (time, seq) event kernel and
// the per-event delay arithmetic without tables or caches), and requires
// the same recorded transitions, femtosecond for femtosecond, plus the same
// value in every metrics counter and in the event-gap, queue-depth and
// Charlie-delay histograms.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "core/calibration.hpp"
#include "core/oscillator.hpp"
#include "core/ring_source.hpp"
#include "fpga/delay_model.hpp"
#include "fpga/supply.hpp"
#include "noise/fault.hpp"
#include "noise/jitter.hpp"
#include "reference_sim.hpp"
#include "ring/iro.hpp"
#include "ring/str.hpp"
#include "sim/metrics.hpp"
#include "sim/observe.hpp"
#include "sim/telemetry.hpp"

using namespace ringent;
using namespace ringent::literals;
namespace metrics = ringent::sim::metrics;
namespace telemetry = ringent::sim::telemetry;

namespace {

using NoiseBank = std::vector<std::unique_ptr<noise::NoiseSource>>;

NoiseBank gaussian_bank(std::size_t stages, double sigma_ps,
                        std::uint64_t seed) {
  NoiseBank bank;
  if (seed == 0) return bank;
  for (std::size_t i = 0; i < stages; ++i) {
    bank.push_back(std::make_unique<noise::GaussianNoise>(
        sigma_ps, derive_seed(seed, "oracle", i)));
  }
  return bank;
}

fpga::VoltageLaws test_laws() {
  return fpga::VoltageLaws{fpga::DelayVoltageLaw(0.5, 1.2, 0.001),
                           fpga::DelayVoltageLaw(0.8, 1.2, 0.0005),
                           fpga::DelayVoltageLaw(0.65, 1.2, 0.0)};
}

/// Counters and histograms of one run, in a scope of its own.
struct Observed {
  metrics::Snapshot counters;
  telemetry::Snapshot histograms;
};

Observed observe(const std::function<void()>& run) {
  const sim::Scope scope(sim::Collect{.metrics = true, .histograms = true},
                         nullptr);
  run();
  return {scope.metrics(), scope.histograms()};
}

void expect_same_observations(const Observed& ring, const Observed& ref) {
  for (std::size_t i = 0; i < metrics::counter_count; ++i) {
    EXPECT_EQ(ring.counters.counters[i], ref.counters.counters[i])
        << metrics::counter_name(static_cast<metrics::Counter>(i));
  }
  EXPECT_GT(ring.counters.counter(metrics::Counter::events_fired), 0u);
  for (const telemetry::Histogram h :
       {telemetry::Histogram::event_gap_fs, telemetry::Histogram::queue_depth,
        telemetry::Histogram::charlie_delay_fs}) {
    const auto i = static_cast<std::size_t>(h);
    EXPECT_EQ(ring.histograms.counts[i], ref.histograms.counts[i])
        << telemetry::histogram_name(h);
    EXPECT_EQ(ring.histograms.sums[i], ref.histograms.sums[i])
        << telemetry::histogram_name(h);
    EXPECT_EQ(ring.histograms.buckets[i], ref.histograms.buckets[i])
        << telemetry::histogram_name(h);
  }
}

void expect_same_trace(const sim::SignalTrace& ring,
                       const sim::SignalTrace& ref) {
  const auto& a = ring.transitions();
  const auto& b = ref.transitions();
  ASSERT_EQ(a.size(), b.size()) << ring.name();
  ASSERT_GT(a.size(), 20u) << ring.name();  // the run exercised the path
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].at.fs(), b[i].at.fs()) << ring.name() << " #" << i;
    ASSERT_EQ(a[i].value, b[i].value) << ring.name() << " #" << i;
  }
}

/// The run plan both simulators follow: run to each horizon in turn, and
/// call `between` (a supply or injector update, say) before each leg.
struct Plan {
  std::vector<Time> horizons;
  std::function<void(Time)> between = [](Time) {};
};

Plan even_plan(Time step, int legs) {
  Plan plan;
  for (int k = 1; k <= legs; ++k) plan.horizons.push_back(step * k);
  return plan;
}

void compare_iro(const ring::IroConfig& config, std::uint64_t noise_seed,
                 const Plan& plan) {
  std::unique_ptr<ring::Iro> iro;
  const Observed ring_obs = observe([&] {
    iro = std::make_unique<ring::Iro>(
        config, gaussian_bank(config.stages, 2.0, noise_seed));
    plan.between(Time::zero());
    iro->start();
    for (const Time horizon : plan.horizons) {
      iro->run_until(horizon);
      plan.between(horizon);
    }
  });
  reference::Kernel kernel;
  std::unique_ptr<reference::Iro> ref;
  const Observed ref_obs = observe([&] {
    ref = std::make_unique<reference::Iro>(
        kernel, config, gaussian_bank(config.stages, 2.0, noise_seed));
    plan.between(Time::zero());
    ref->start();
    for (const Time horizon : plan.horizons) {
      kernel.run_until(horizon);
      plan.between(horizon);
    }
  });
  expect_same_trace(iro->output(), ref->output);
  expect_same_observations(ring_obs, ref_obs);
  EXPECT_EQ(iro->events_fired(), kernel.events_fired());
}

void compare_str(const ring::StrConfig& config, std::size_t tokens,
                 ring::TokenPlacement placement, std::uint64_t noise_seed,
                 const Plan& plan) {
  const ring::RingState initial =
      ring::make_initial_state(config.stages, tokens, placement);
  std::unique_ptr<ring::Str> str;
  const Observed ring_obs = observe([&] {
    str = std::make_unique<ring::Str>(
        config, initial, gaussian_bank(config.stages, 2.0, noise_seed));
    plan.between(Time::zero());
    str->start();
    for (const Time horizon : plan.horizons) {
      str->run_until(horizon);
      plan.between(horizon);
    }
  });
  reference::Kernel kernel;
  std::unique_ptr<reference::Str> ref;
  const Observed ref_obs = observe([&] {
    ref = std::make_unique<reference::Str>(
        kernel, config, initial, gaussian_bank(config.stages, 2.0, noise_seed));
    plan.between(Time::zero());
    ref->start();
    for (const Time horizon : plan.horizons) {
      kernel.run_until(horizon);
      plan.between(horizon);
    }
  });
  if (config.trace_all_stages) {
    for (std::size_t i = 0; i < config.stages; ++i) {
      expect_same_trace(str->stage_traces()[i], ref->traces[i]);
    }
  } else {
    expect_same_trace(str->output(), ref->output);
  }
  EXPECT_EQ(str->state(), ref->state());
  expect_same_observations(ring_obs, ref_obs);
  EXPECT_EQ(str->events_fired(), kernel.events_fired());
}

ring::IroConfig mismatched_iro() {
  ring::IroConfig config;
  config.stages = 5;
  config.lut_delay = Time::from_ps(247.3);
  config.routing_per_stage = {Time::from_ps(12.0), Time::from_ps(45.5),
                              Time::from_ps(9.25), Time::from_ps(30.1),
                              Time::from_ps(22.2)};
  config.stage_factors = {0.973, 1.012, 0.998, 1.041, 0.966};
  return config;
}

ring::StrConfig mismatched_str() {
  ring::StrConfig config;
  config.stages = 8;
  config.charlie = ring::CharlieParams{Time::from_ps(243.0),
                                       Time::from_ps(271.0),
                                       Time::from_ps(119.0)};
  config.routing_per_hop = Time::from_ps(31.7);
  config.stage_factors = {1.03, 0.97, 1.005, 0.985, 1.02, 0.995, 1.01, 0.99};
  return config;
}

}  // namespace

TEST(RingOracle, NoisyIroMatchesReference) {
  ring::IroConfig config = mismatched_iro();
  config.jitter_delay_exponent = 0.6;  // pow(1, gamma) == 1 without supply
  compare_iro(config, 42, even_plan(Time::from_ns(97.0), 20));
}

TEST(RingOracle, NoisyStrMatchesReference) {
  const ring::StrConfig config = mismatched_str();
  compare_str(config, 4, ring::TokenPlacement::clustered, 77,
              even_plan(Time::from_ns(101.0), 20));
}

TEST(RingOracle, InvariantSupplyRebuildsTheTableOnEveryChange) {
  // A constant rail whose level and temperature change between legs: each
  // change bumps the supply generation and the rings rebuild their delay
  // tables; the reference evaluates the laws at every event.
  fpga::Supply supply(1.2);
  const fpga::VoltageLaws laws = test_laws();
  Plan plan = even_plan(Time::from_ns(83.0), 12);
  plan.between = [&supply](Time t) {
    const auto leg = static_cast<int>(t / Time::from_ns(83.0));
    supply.set_level(1.1 + 0.02 * (leg % 5));
    supply.set_temperature_c(25.0 + 10.0 * (leg / 4));
  };

  ring::IroConfig iro = mismatched_iro();
  iro.jitter_delay_exponent = 0.85;
  iro.supply = &supply;
  iro.laws = &laws;
  compare_iro(iro, 1234, plan);
  // Noise-free, the whole hop is a table constant.
  compare_iro(iro, 0, plan);

  ring::StrConfig str = mismatched_str();
  str.jitter_delay_exponent = 0.85;
  str.supply = &supply;
  str.laws = &laws;
  compare_str(str, 4, ring::TokenPlacement::evenly_spread, 99, plan);
}

TEST(RingOracle, ToneSupplyMatchesReferencePerEvent) {
  // A sinusoidal rail varies within a run: the rings evaluate the voltage
  // laws per event. A regulator ripple joins halfway through.
  fpga::Supply supply(1.2);
  supply.set_level(1.15);
  supply.set_modulation(fpga::Modulation::sine(0.05, 2.0e6));
  const fpga::VoltageLaws laws = test_laws();
  Plan plan = even_plan(Time::from_ns(150.0), 10);
  plan.between = [&supply](Time t) {
    supply.set_regulator(t >= Time::from_ns(750.0)
                             ? fpga::Regulator{0.5, 0.01, 7.0e6}
                             : fpga::Regulator{});
  };

  ring::IroConfig iro = mismatched_iro();
  iro.jitter_delay_exponent = 0.85;
  iro.supply = &supply;
  iro.laws = &laws;
  compare_iro(iro, 5, plan);

  ring::StrConfig str = mismatched_str();
  str.jitter_delay_exponent = 0.85;
  str.supply = &supply;
  str.laws = &laws;
  compare_str(str, 4, ring::TokenPlacement::clustered, 6, plan);
}

TEST(RingOracle, DelayFaultInjectorMatchesReference) {
  // A delay step and a stuck stage act through the modulation hook; the
  // injector is advanced at its own schedule boundaries, as
  // core::RingBitSource drives it.
  noise::FaultScenario scenario;
  scenario.name = "oracle";
  scenario.events = {
      noise::FaultEvent::delay_step(Time::from_ns(200.0),
                                    Time::from_ns(500.0), 35.0),
      noise::FaultEvent::stuck(Time::from_ns(650.0), Time::from_ns(700.0), 2),
      noise::FaultEvent::kick(Time::from_ns(800.0), Time::from_ns(900.0),
                              60.0, 3)};
  noise::FaultInjector injector(scenario, nullptr);
  Plan plan;
  for (Time t = Time::zero(); t < Time::from_us(1.2);) {
    t = std::min(injector.next_boundary(t), Time::from_us(1.2));
    plan.horizons.push_back(t);
  }
  plan.between = [&injector](Time t) { injector.advance_to(t); };

  ring::IroConfig iro = mismatched_iro();
  iro.modulation = &injector;
  compare_iro(iro, 11, plan);

  ring::StrConfig str = mismatched_str();
  str.modulation = &injector;
  compare_str(str, 4, ring::TokenPlacement::evenly_spread, 12, plan);
}

TEST(RingOracle, NoiseFreeStrTiesFireInScheduleOrder) {
  // Without noise, routing or mismatch, an evenly spread NT = NB ring fires
  // whole groups of stages at the same femtosecond. Step both simulators one
  // event at a time: the logical state after every event pins the firing
  // order inside each tie, not just the resulting transitions.
  ring::StrConfig config;
  config.stages = 12;
  config.charlie =
      ring::CharlieParams::symmetric(Time::from_ps(260.0), Time::from_ps(120.0));
  config.trace_all_stages = true;
  const ring::RingState initial =
      ring::make_initial_state(12, 6, ring::TokenPlacement::evenly_spread);

  ring::Str str(config, initial, {});
  reference::Kernel kernel;
  reference::Str ref(kernel, config, initial, {});
  str.start();
  ref.start();
  std::size_t ties = 0;
  Time last = Time::from_fs(-1);
  for (int step = 0; step < 3000; ++step) {
    ASSERT_EQ(str.run_events(1), 1u);
    ASSERT_EQ(kernel.run_events(1), 1u);
    ASSERT_EQ(str.now().fs(), kernel.now().fs()) << step;
    ASSERT_EQ(str.state(), ref.state()) << step;
    if (str.now() == last) ++ties;
    last = str.now();
  }
  EXPECT_GT(ties, 1000u);  // most events share their timestamp
  for (std::size_t i = 0; i < config.stages; ++i) {
    expect_same_trace(str.stage_traces()[i], ref.traces[i]);
  }

  // The same ring through run_until, counters and histograms included.
  compare_str(config, 6, ring::TokenPlacement::evenly_spread, 0,
              even_plan(Time::from_ns(50.0), 8));
}

TEST(RingOracle, EmptyScenarioSkipsModulationBitForBit) {
  // Without delay faults a FaultInjector's offset is exactly 0.0, so
  // core::RingBitSource leaves the modulation hook out. Building with the
  // hook forced in must change nothing.
  const core::Calibration& cal = core::cyclone_iii();
  fpga::Supply supply(1.2);
  noise::FaultInjector quiet(noise::FaultScenario{}, &supply);
  for (const core::RingSpec& spec :
       {core::RingSpec::iro(5), core::RingSpec::str(8)}) {
    core::BuildOptions options;
    options.supply = &supply;
    options.noise_seed = 31;
    std::unique_ptr<core::Oscillator> skipped;
    const Observed skip_obs = observe([&] {
      skipped = std::make_unique<core::Oscillator>(
          core::Oscillator::build(spec, cal, options));
      skipped->run_for(Time::from_us(2.0));
    });
    options.modulation = &quiet;
    std::unique_ptr<core::Oscillator> forced;
    const Observed forced_obs = observe([&] {
      forced = std::make_unique<core::Oscillator>(
          core::Oscillator::build(spec, cal, options));
      forced->run_for(Time::from_us(2.0));
    });
    expect_same_trace(skipped->output(), forced->output());
    expect_same_observations(skip_obs, forced_obs);
  }

  // Through RingBitSource: a delay fault scheduled past the end of the
  // stream forces the hook in (it has delay faults) without ever firing.
  noise::FaultScenario dormant;
  dormant.name = "dormant";
  dormant.events = {noise::FaultEvent::delay_step(Time::from_ms(10.0),
                                                  Time::from_ms(11.0), 50.0)};
  for (const core::RingSpec& spec :
       {core::RingSpec::iro(5), core::RingSpec::str(8)}) {
    core::RingSourceConfig source_config;
    source_config.spec = spec;
    source_config.seed = 17;
    core::RingBitSource empty(source_config, cal, noise::FaultScenario{});
    core::RingBitSource forced(source_config, cal, dormant);
    for (int i = 0; i < 2048; ++i) {
      ASSERT_EQ(empty.next_bit(), forced.next_bit()) << spec.name() << " " << i;
    }
    EXPECT_EQ(empty.now().fs(), forced.now().fs());
    EXPECT_EQ(forced.injector().activations(), 0u);
  }
}
