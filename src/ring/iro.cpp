#include "ring/iro.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/require.hpp"

namespace ringent::ring {

namespace {
constexpr double min_hop_ps = 1.0;  // causality floor under negative noise
}

Iro::Iro(const IroConfig& config,
         std::vector<std::unique_ptr<noise::NoiseSource>> stage_noise)
    : config_(config),
      stage_noise_(std::move(stage_noise)),
      scale_cache_(config.supply, config.laws),
      output_("iro_out") {
  RINGENT_REQUIRE(config.stages >= 1, "IRO needs at least one stage");
  RINGENT_REQUIRE(config.lut_delay > Time::zero(), "LUT delay must be positive");
  RINGENT_REQUIRE(!config.routing_per_hop.is_negative(),
                  "routing delay cannot be negative");
  RINGENT_REQUIRE(
      config.stage_factors.empty() || config.stage_factors.size() == config.stages,
      "stage_factors size must match stage count");
  RINGENT_REQUIRE(config.routing_per_stage.empty() ||
                      config.routing_per_stage.size() == config.stages,
                  "routing_per_stage size must match stage count");
  for (Time r : config_.routing_per_stage) {
    RINGENT_REQUIRE(!r.is_negative(), "routing delay cannot be negative");
  }
  RINGENT_REQUIRE(stage_noise_.empty() || stage_noise_.size() == config.stages,
                  "stage_noise size must match stage count");
  RINGENT_REQUIRE((config.supply == nullptr) == (config.laws == nullptr),
                  "supply and laws must be provided together");
  for (double f : config_.stage_factors) {
    RINGENT_REQUIRE(f > 0.0, "stage factors must be positive");
  }

  table_.resize(config_.stages);
  for (std::size_t i = 0; i < config_.stages; ++i) {
    const double factor =
        config_.stage_factors.empty() ? 1.0 : config_.stage_factors[i];
    const double routing_ps = config_.routing_per_stage.empty()
                                  ? config_.routing_per_hop.ps()
                                  : config_.routing_per_stage[i].ps();
    table_[i].lut_ps = config_.lut_delay.ps() * factor;
    table_[i].routing_ps = routing_ps * factor;
  }
  // Without a supply the scales are 1.0 for good; multiplying by 1.0 is
  // exact, so the unit-scale table is the static delay itself.
  rebuild_table(fpga::SupplyScaleCache::Scales{});
  if (!stage_noise_.empty()) {
    noise_.reserve(config_.stages);
    for (auto& source : stage_noise_) noise_.emplace_back(source.get());
  }
  fixed_hops_ = noise_.empty() && config_.modulation == nullptr;
}

void Iro::rebuild_table(const fpga::SupplyScaleCache::Scales& scales) {
  for (StageDelay& d : table_) {
    d.hop_ps = d.lut_ps * scales.lut + d.routing_ps * scales.routing;
    d.fixed_hop = Time::from_ps(std::max(d.hop_ps, min_hop_ps));
  }
  if (config_.jitter_delay_exponent != 0.0) {
    noise_scale_key_ = scales.lut;
    noise_scale_ = std::pow(scales.lut, config_.jitter_delay_exponent);
  }
}

void Iro::sync_supply() {
  if (config_.supply == nullptr) return;
  const std::uint64_t generation = config_.supply->generation();
  if (generation == table_generation_) return;
  table_generation_ = generation;
  per_event_scales_ = !config_.supply->time_invariant();
  if (!per_event_scales_) rebuild_table(scale_cache_.at(clock_.now()));
}

Time Iro::hop_delay(std::size_t stage, Time now) {
  const StageDelay& d = table_[stage];
  double delay_ps = d.hop_ps;
  if (per_event_scales_) {
    const fpga::SupplyScaleCache::Scales& scales = scale_cache_.at(now);
    delay_ps = d.lut_ps * scales.lut + d.routing_ps * scales.routing;
    // Memoized on the lut scale: pow of an identical input is identical.
    if (config_.jitter_delay_exponent != 0.0 &&
        scales.lut != noise_scale_key_) {
      noise_scale_key_ = scales.lut;
      noise_scale_ = std::pow(noise_scale_key_, config_.jitter_delay_exponent);
    }
  } else if (fixed_hops_) {
    return d.fixed_hop;
  }
  // noise_scale_ is exactly 1.0 unless gamma != 0 meets a non-unit scale.
  if (!noise_.empty()) delay_ps += noise_[stage].next() * noise_scale_;
  if (config_.modulation != nullptr) {
    delay_ps += config_.modulation->offset_ps(now, stage);
  }
  return Time::from_ps(std::max(delay_ps, min_hop_ps));
}

void Iro::schedule(std::size_t stage, Time now) {
  const Time delay = hop_delay(stage, now);
  RINGENT_REQUIRE(delay <= Time::max() - now,
                  "delay overflows the simulation clock");
  pending_at_ = now + delay;
  pending_stage_ = stage;
  clock_.scheduled(1);
}

void Iro::start() {
  RINGENT_REQUIRE(!started_, "IRO already started");
  const sim::EventClock::Publish publish(clock_);
  sync_supply();
  started_ = true;
  // The circulating event enters stage 0 at the current time.
  schedule(0, clock_.now());
}

std::uint64_t Iro::run_until(Time t_end) {
  RINGENT_REQUIRE(t_end >= clock_.now(), "horizon in the past");
  const std::uint64_t fired =
      drain(t_end, std::numeric_limits<std::uint64_t>::max());
  clock_.park(t_end);
  return fired;
}

std::uint64_t Iro::run_events(std::uint64_t max_events) {
  return drain(Time::max(), max_events);
}

std::uint64_t Iro::drain(Time t_end, std::uint64_t max_events) {
  const sim::EventClock::Publish publish(clock_);
  if (!started_) return 0;
  sync_supply();
  std::uint64_t fired = 0;
  while (fired < max_events && pending_at_ <= t_end) {
    const Time now = pending_at_;
    clock_.fire(now);
    std::size_t next = pending_stage_ + 1;
    if (next == config_.stages) {
      // The event completed a lap: the ring output (the inverter's input
      // edge arriving back) toggles once per lap.
      output_value_ = !output_value_;
      output_.record(now, output_value_);
      next = 0;
    }
    schedule(next, now);
    ++fired;
  }
  return fired;
}

Time Iro::nominal_period() const {
  double lap_ps = 0.0;
  for (std::size_t i = 0; i < config_.stages; ++i) {
    const double factor =
        config_.stage_factors.empty() ? 1.0 : config_.stage_factors[i];
    const double routing_ps = config_.routing_per_stage.empty()
                                  ? config_.routing_per_hop.ps()
                                  : config_.routing_per_stage[i].ps();
    lap_ps += (config_.lut_delay.ps() + routing_ps) * factor;
  }
  return Time::from_ps(2.0 * lap_ps);
}

}  // namespace ringent::ring
