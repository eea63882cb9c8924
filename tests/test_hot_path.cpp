// Regression tests pinning the ring hot-path optimizations bit-exact.
//
// The event-path rework (ring-owned event loops, flat 4-ary heap, per-stage
// delay tables, batched noise draws, prescaled Charlie arithmetic, rint-based
// Time rounding) hoists
// arithmetic out of the per-event path WITHOUT changing any computed value.
// Each test here compares an optimized path against a straight transcription
// of the original per-event arithmetic and requires femtosecond-exact (or
// bit-exact double) agreement — not tolerance-based closeness.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "common/time.hpp"
#include "fpga/delay_model.hpp"
#include "fpga/op_cache.hpp"
#include "fpga/supply.hpp"
#include "noise/jitter.hpp"
#include "noise/modulation.hpp"
#include "ring/charlie.hpp"
#include "ring/iro.hpp"
#include "ring/str.hpp"
#include "sim/observe.hpp"

using namespace ringent;

namespace {

// --- reference: the original per-event IRO hop arithmetic -------------------
//
// A straight transcription of the pre-optimization Iro::hop_delay — every
// product formed per event, in the original association order — driven by an
// independent copy of the same noise streams. The IRO's single circulating
// event makes the whole simulation a scalar recurrence, so the reference
// needs no event queue: any arithmetic divergence cascades into different event
// times for the rest of the run.
struct ReferenceIro {
  const ring::IroConfig& config;
  std::vector<std::unique_ptr<noise::NoiseSource>> noise;

  Time hop_delay(std::size_t stage, Time now) {
    const double factor =
        config.stage_factors.empty() ? 1.0 : config.stage_factors[stage];
    double lut_scale = 1.0;
    double routing_scale = 1.0;
    if (config.supply != nullptr) {
      const fpga::OperatingPoint op = config.supply->operating_point_at(now);
      lut_scale = config.laws->lut.scale(op);
      routing_scale = config.laws->routing.scale(op);
    }
    const double routing_ps = config.routing_per_stage.empty()
                                  ? config.routing_per_hop.ps()
                                  : config.routing_per_stage[stage].ps();
    double delay_ps = config.lut_delay.ps() * factor * lut_scale +
                      routing_ps * factor * routing_scale;
    if (stage < noise.size()) {
      double noise_scale = 1.0;
      if (config.jitter_delay_exponent != 0.0) {
        noise_scale = std::pow(lut_scale, config.jitter_delay_exponent);
      }
      delay_ps += noise[stage]->sample_ps() * noise_scale;
    }
    if (config.modulation != nullptr) {
      delay_ps += config.modulation->offset_ps(now, stage);
    }
    return Time::from_ps(std::max(delay_ps, 1.0));
  }

  // Replays Iro::start + Iro::fire event-for-event: tag 0 is scheduled from
  // t = 0, tag k from the arrival of tag k-1, and the output toggles when
  // tag L-1 fires.
  std::vector<Time> rising_edges(Time t_end) {
    std::vector<Time> rising;
    const std::size_t stages = config.stages;
    bool out = false;
    std::uint32_t stage = 0;
    Time now = hop_delay(0, Time::zero());
    while (now <= t_end) {
      if (stage + 1 == stages) {
        out = !out;
        if (out) rising.push_back(now);
        stage = 0;
      } else {
        ++stage;
      }
      now += hop_delay(stage, now);
    }
    return rising;
  }
};

std::vector<std::unique_ptr<noise::NoiseSource>> gaussian_bank(
    std::size_t stages, double sigma_ps, std::uint64_t seed) {
  std::vector<std::unique_ptr<noise::NoiseSource>> bank;
  bank.reserve(stages);
  for (std::size_t i = 0; i < stages; ++i) {
    bank.push_back(std::make_unique<noise::GaussianNoise>(
        sigma_ps, derive_seed(seed, "hot-path", i)));
  }
  return bank;
}

std::vector<Time> simulate_iro_edges(const ring::IroConfig& config,
                                     std::uint64_t noise_seed, Time t_end) {
  ring::Iro iro(config,
                config.stages > 0 && noise_seed != 0
                    ? gaussian_bank(config.stages, 2.0, noise_seed)
                    : std::vector<std::unique_ptr<noise::NoiseSource>>{});
  iro.start();
  iro.run_until(t_end);
  return iro.output().rising_edges();
}

void expect_identical_edges(const ring::IroConfig& config,
                            std::uint64_t noise_seed, Time t_end) {
  const std::vector<Time> actual =
      simulate_iro_edges(config, noise_seed, t_end);
  ReferenceIro reference{
      config, noise_seed != 0
                  ? gaussian_bank(config.stages, 2.0, noise_seed)
                  : std::vector<std::unique_ptr<noise::NoiseSource>>{}};
  const std::vector<Time> expected = reference.rising_edges(t_end);
  ASSERT_EQ(actual.size(), expected.size());
  ASSERT_GT(actual.size(), 50u);  // the run actually exercised the path
  for (std::size_t i = 0; i < actual.size(); ++i) {
    ASSERT_EQ(actual[i].fs(), expected[i].fs()) << "edge " << i;
  }
}

fpga::VoltageLaws test_laws() {
  return fpga::VoltageLaws{fpga::DelayVoltageLaw(0.5, 1.2, 0.001),
                           fpga::DelayVoltageLaw(0.8, 1.2, 0.0005),
                           fpga::DelayVoltageLaw(0.65, 1.2, 0.0)};
}

}  // namespace

TEST(HotPath, IroFullyStaticMatchesReference) {
  ring::IroConfig config;
  config.stages = 5;
  config.lut_delay = Time::from_ps(247.3);
  config.routing_per_hop = Time::from_ps(31.7);
  config.stage_factors = {0.973, 1.012, 0.998, 1.041, 0.966};
  expect_identical_edges(config, /*noise_seed=*/0, Time::from_us(2.0));
}

TEST(HotPath, IroNoiseAndModulationMatchesReference) {
  // No supply: the unit voltage scales fold into the constructor precompute
  // and the noise draws go through the block sampler.
  noise::SineDelayModulation modulation(1.7, 3.0e6, 0.4);
  ring::IroConfig config;
  config.stages = 7;
  config.lut_delay = Time::from_ps(251.9);
  config.routing_per_stage = {
      Time::from_ps(12.0), Time::from_ps(45.5), Time::from_ps(9.25),
      Time::from_ps(30.1), Time::from_ps(22.2), Time::from_ps(18.8),
      Time::from_ps(27.6)};
  config.stage_factors = {1.03, 0.97, 1.005, 0.985, 1.02, 0.995, 1.01};
  config.jitter_delay_exponent = 0.6;  // pow(1,gamma)==1: still exact
  config.modulation = &modulation;
  expect_identical_edges(config, /*noise_seed=*/42, Time::from_us(2.0));
}

TEST(HotPath, IroTimeVaryingSupplyMatchesReference) {
  // The hardest case: a sinusoidally modulated supply makes the voltage
  // scales time-dependent (the scale cache refreshes per new timestamp), the
  // gamma coupling exercises the memoized pow, and per-stage factors and
  // routing exercise every precomputed product.
  fpga::Supply supply(1.2);
  supply.set_level(1.15);
  supply.set_modulation(fpga::Modulation::sine(0.05, 2.0e6));
  const fpga::VoltageLaws laws = test_laws();
  noise::SineDelayModulation modulation(1.1, 5.0e6);
  ring::IroConfig config;
  config.stages = 6;
  config.lut_delay = Time::from_ps(249.1);
  config.routing_per_hop = Time::from_ps(26.4);
  config.stage_factors = {0.98, 1.03, 1.0, 0.95, 1.07, 0.99};
  config.jitter_delay_exponent = 0.85;
  config.supply = &supply;
  config.laws = &laws;
  config.modulation = &modulation;
  expect_identical_edges(config, /*noise_seed=*/1234, Time::from_us(2.0));
}

TEST(HotPath, CharliePrescaledMatchesFireTime) {
  // fire_time(tf, tr, last, extra, ss, cs) must equal fire_time_prescaled
  // with the caller-side products D_mean*ss, s0*ss, Dch*cs — the STR hot
  // path precomputes exactly those.
  const ring::CharlieParams params{Time::from_ps(243.0), Time::from_ps(271.0),
                                   Time::from_ps(119.0)};
  for (const bool drafting_on : {false, true}) {
    const ring::CharlieModel model(
        params, drafting_on ? ring::DraftingParams::asic(6.0, 90.0)
                            : ring::DraftingParams::disabled());
    Xoshiro256 rng(555);
    for (int i = 0; i < 5000; ++i) {
      const Time tf = Time::from_fs(static_cast<std::int64_t>(rng.below(
          5'000'000'000)));
      const Time tr = tf + Time::from_fs(
                               static_cast<std::int64_t>(rng.below(2'000'000)) -
                               1'000'000);
      const Time last =
          std::min(tf, tr) -
          Time::from_fs(static_cast<std::int64_t>(rng.below(600'000)));
      const double extra_ps = rng.uniform(-8.0, 8.0);
      const double static_scale = rng.uniform(0.6, 1.6);
      const double charlie_scale = rng.uniform(0.0, 1.6);
      const Time via_scales = model.fire_time(tf, tr, last, extra_ps,
                                              static_scale, charlie_scale);
      const Time via_prescaled = model.fire_time_prescaled(
          tf, tr, last, extra_ps, params.d_mean().ps() * static_scale,
          params.s_offset().ps() * static_scale,
          params.d_charlie.ps() * charlie_scale);
      ASSERT_EQ(via_scales.fs(), via_prescaled.fs())
          << "i=" << i << " drafting=" << drafting_on;
    }
  }
}

TEST(HotPath, RngNormalsMatchesSequentialDraws) {
  // Xoshiro256::normals must emit the exact sequence n normal() calls would,
  // including the Marsaglia pair cache straddling block boundaries.
  Xoshiro256 sequential(99);
  Xoshiro256 blocked(99);
  std::vector<double> block;
  for (const std::size_t n : {1u, 2u, 3u, 7u, 64u, 65u, 1u, 128u}) {
    block.resize(n);
    blocked.normals(block.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      const double expected = sequential.normal();
      ASSERT_EQ(block[i], expected) << "n=" << n << " i=" << i;
    }
  }
}

TEST(HotPath, NoiseFillMatchesSampleLoop) {
  // GaussianNoise / CompositeNoise fill_ps and the BlockSampler wrapper must
  // reproduce sample_ps draw-for-draw (bit-exact doubles).
  const auto make_composite = [](std::uint64_t seed) {
    auto composite = std::make_unique<noise::CompositeNoise>();
    composite->add(std::make_unique<noise::GaussianNoise>(2.0, seed));
    composite->add(
        std::make_unique<noise::FlickerNoise>(0.7, 12, seed + 1));
    return composite;
  };
  noise::GaussianNoise gauss_a(2.25, 7);
  noise::GaussianNoise gauss_b(2.25, 7);
  auto comp_a = make_composite(31);
  auto comp_b = make_composite(31);
  noise::BlockSampler gauss_block(&gauss_b, 64);
  noise::BlockSampler comp_block(comp_b.get(), 16);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(gauss_block.next(), gauss_a.sample_ps()) << i;
    ASSERT_EQ(comp_block.next(), comp_a->sample_ps()) << i;
  }
}

TEST(HotPath, SupplyScaleCacheMatchesDirectComputation) {
  fpga::Supply supply(1.2);
  supply.set_modulation(fpga::Modulation::sine(0.04, 1.5e6));
  const fpga::VoltageLaws laws = test_laws();
  fpga::SupplyScaleCache cache(&supply, &laws);
  Xoshiro256 rng(4242);
  Time now = Time::zero();
  for (int i = 0; i < 2000; ++i) {
    // Monotone timestamps with repeats (an STR often asks twice at one
    // event time) and occasional setter calls invalidating the cache.
    if (rng.below(50) == 0) supply.set_level(rng.uniform(1.0, 1.4));
    if (rng.below(3) != 0) {
      now += Time::from_fs(static_cast<std::int64_t>(rng.below(800'000)));
    }
    const fpga::OperatingPoint op = supply.operating_point_at(now);
    const fpga::SupplyScaleCache::Scales& scales = cache.at(now);
    ASSERT_EQ(scales.lut, laws.lut.scale(op)) << i;
    ASSERT_EQ(scales.routing, laws.routing.scale(op)) << i;
    ASSERT_EQ(scales.charlie, laws.charlie.scale(op)) << i;
  }
}

TEST(HotPath, StrDevirtualizedRouteMatchesVirtualCounters) {
  // The STR runs its own loop over a ring-local flat 4-ary heap. (The name
  // predates it: a devirtualized kernel route, and then the virtual one,
  // were pinned to the same counters.) The structural counters (heap
  // traffic, Charlie evaluations) stay pinned to the golden values below —
  // any drift means a hot-path change altered behaviour, not just speed.
  namespace metrics = sim::metrics;
  ring::StrConfig config;
  config.stages = 8;
  config.charlie =
      ring::CharlieParams::symmetric(Time::from_ps(260.0), Time::from_ps(120.0));
  ring::Str str(
      config,
      ring::make_initial_state(8, 4, ring::TokenPlacement::evenly_spread),
      gaussian_bank(8, 2.0, 777));
  str.start();
  // Observe the run only, not start().
  const sim::Scope scope(sim::Collect{.metrics = true}, nullptr);
  str.run_until(Time::from_ns(400.0));
  const metrics::Snapshot virtual_route = scope.metrics();

  // Golden pin: a 400 ns run of the 8-stage NT=NB ring with this noise seed.
  EXPECT_EQ(virtual_route.counter(metrics::Counter::heap_pushes), 4208u);
  EXPECT_EQ(virtual_route.counter(metrics::Counter::heap_pops), 4208u);
  EXPECT_EQ(virtual_route.counter(metrics::Counter::charlie_evaluations),
            4208u);
}

TEST(HotPath, TimeFromPsMatchesLlround) {
  // Time's fs conversion switched from llround (two instructions + a slow
  // libm call on some paths) to rint + exact-tie fixup. The only inputs
  // where round-to-nearest-even and round-half-away-from-zero differ are
  // exact .5 ties; cover them explicitly, then a dense random sweep.
  for (const std::int64_t base :
       {0LL, 1LL, 2LL, 3LL, 7LL, 1000LL, 4503599627370494LL}) {
    for (const int sign : {1, -1}) {
      const double tie = (static_cast<double>(base) + 0.5) * sign;
      // scaled() feeds the tie straight into the fs conversion.
      const Time converted = Time::from_fs(1).scaled(tie);
      ASSERT_EQ(converted.fs(), std::llround(tie)) << tie;
    }
  }
  Xoshiro256 rng(31337);
  for (int i = 0; i < 4'000'000; ++i) {
    // Mixed magnitudes: sub-fs fractions through multi-second spans.
    const double mag = std::exp(rng.uniform(-5.0, 30.0));
    const double fs = rng.uniform(-1.0, 1.0) * mag;
    const std::int64_t got = Time::from_fs(1).scaled(fs).fs();
    const std::int64_t want = std::llround(fs);
    if (got != want) FAIL() << "fs=" << fs << " got " << got << " want " << want;
  }
}
