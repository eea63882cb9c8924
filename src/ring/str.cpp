#include "ring/str.hpp"

#include <cmath>
#include <limits>
#include <string>
#include <utility>

#include "common/require.hpp"

namespace ringent::ring {

Str::Str(const StrConfig& config, const RingState& initial,
         std::vector<std::unique_ptr<noise::NoiseSource>> stage_noise)
    : config_(config),
      charlie_model_(config.charlie, config.drafting),
      state_(initial.begin(), initial.end()),
      tokens_(token_count(initial)),
      stage_noise_(std::move(stage_noise)),
      scale_cache_(config.supply, config.laws),
      observe_trace_("str_out") {
  RINGENT_REQUIRE(config_.stages >= 3, "STR needs at least three stages");
  RINGENT_REQUIRE(state_.size() == config_.stages,
                  "initial state size must match stage count");
  RINGENT_REQUIRE(can_oscillate(config_.stages, tokens_),
                  "initial pattern cannot oscillate");
  RINGENT_REQUIRE(
      config_.stage_factors.empty() ||
          config_.stage_factors.size() == config_.stages,
      "stage_factors size must match stage count");
  RINGENT_REQUIRE(stage_noise_.empty() || stage_noise_.size() == config_.stages,
                  "stage_noise size must match stage count");
  RINGENT_REQUIRE((config_.supply == nullptr) == (config_.laws == nullptr),
                  "supply and laws must be provided together");
  RINGENT_REQUIRE(config_.observe_stage < config_.stages,
                  "observe_stage out of range");
  RINGENT_REQUIRE(!config_.routing_per_hop.is_negative(),
                  "routing delay cannot be negative");
  RINGENT_REQUIRE(config_.routing_per_stage.empty() ||
                      config_.routing_per_stage.size() == config_.stages,
                  "routing_per_stage size must match stage count");
  for (Time r : config_.routing_per_stage) {
    RINGENT_REQUIRE(!r.is_negative(), "routing delay cannot be negative");
  }
  for (double f : config_.stage_factors) {
    RINGENT_REQUIRE(f > 0.0, "stage factors must be positive");
  }

  last_change_.assign(config_.stages, Time::zero());
  scheduled_.assign(config_.stages, 0);
  factor_.reserve(config_.stages);
  routing_ps_.reserve(config_.stages);
  for (std::size_t i = 0; i < config_.stages; ++i) {
    factor_.push_back(config_.stage_factors.empty() ? 1.0
                                                    : config_.stage_factors[i]);
    routing_ps_.push_back(config_.routing_per_stage.empty()
                              ? config_.routing_per_hop.ps()
                              : config_.routing_per_stage[i].ps());
  }
  // Without a supply the scales are 1.0 for good; multiplying by 1.0 is
  // exact, so the unit-scale table holds the plain factor products.
  table_.reserve(config_.stages);
  for (std::size_t i = 0; i < config_.stages; ++i) {
    table_.push_back(stage_delay(i, fpga::SupplyScaleCache::Scales{}));
  }
  if (!stage_noise_.empty()) {
    noise_.reserve(config_.stages);
    for (auto& source : stage_noise_) noise_.emplace_back(source.get());
  }
  // At most one firing is pending per stage.
  pending_.reserve(config_.stages);

  if (config_.trace_all_stages) {
    traces_.reserve(config_.stages);
    for (std::size_t i = 0; i < config_.stages; ++i) {
      traces_.emplace_back("C" + std::to_string(i));
    }
    output_ = &traces_[config_.observe_stage];
  } else {
    output_ = &observe_trace_;
  }
}

bool Str::enabled(std::size_t i) const {
  // Token at i and bubble at i+1.
  return state_[i] != state_[prev(i)] && state_[next(i)] == state_[i];
}

Str::StageDelay Str::stage_delay(std::size_t i,
                                 const fpga::SupplyScaleCache::Scales& scales) {
  const double static_scale = factor_[i] * scales.lut;
  const double charlie_scale = factor_[i] * scales.charlie;
  const double routing_scale = factor_[i] * scales.routing;
  StageDelay d;
  d.extra_ps = routing_ps_[i] * routing_scale;
  d.d_mean_ps = config_.charlie.d_mean().ps() * static_scale;
  d.s_offset_ps = config_.charlie.s_offset().ps() * static_scale;
  d.dch_ps = config_.charlie.d_charlie.ps() * charlie_scale;
  if (config_.jitter_delay_exponent != 0.0) {
    // static_scale already contains the mismatch factor; couple the noise
    // to the voltage part only (static_scale / factor). The quotient of the
    // exact product equals scales.lut only up to rounding, so memoize on the
    // quotient itself to keep the pow input bit-identical.
    const double key = static_scale / factor_[i];
    if (key != noise_scale_key_) {
      noise_scale_key_ = key;
      noise_scale_ = std::pow(key, config_.jitter_delay_exponent);
    }
    d.noise_scale = noise_scale_;
  }
  return d;
}

void Str::sync_supply() {
  if (config_.supply == nullptr) return;
  const std::uint64_t generation = config_.supply->generation();
  if (generation == table_generation_) return;
  table_generation_ = generation;
  per_event_scales_ = !config_.supply->time_invariant();
  if (per_event_scales_) return;
  const fpga::SupplyScaleCache::Scales scales = scale_cache_.at(clock_.now());
  for (std::size_t i = 0; i < config_.stages; ++i) {
    table_[i] = stage_delay(i, scales);
  }
}

void Str::try_schedule(std::size_t i, Time now) {
  // Each eligibility check asks "does stage i hold a token facing a
  // bubble?" — the token-collision query of the handshake protocol.
  clock_.count(sim::metrics::Counter::token_collision_checks);
  if (scheduled_[i] || !enabled(i)) return;

  const Time tf = last_change_[prev(i)];  // token-side enabling event
  const Time tr = last_change_[next(i)];  // bubble-side enabling event

  StageDelay varying;
  const StageDelay* d = &table_[i];
  if (per_event_scales_) {
    varying = stage_delay(i, scale_cache_.at(now));
    d = &varying;
  }
  double extra_ps = d->extra_ps;
  if (!noise_.empty()) extra_ps += noise_[i].next() * d->noise_scale;
  if (config_.modulation != nullptr) {
    extra_ps += config_.modulation->offset_ps(now, i);
  }
  clock_.count(sim::metrics::Counter::charlie_evaluations);
  const Time fire_at = charlie_model_.fire_time_prescaled(
      tf, tr, last_change_[i], extra_ps, d->d_mean_ps, d->s_offset_ps,
      d->dch_ps);
  // The Charlie-resolved delay is the per-evaluation "cost" in the simulated
  // domain — deterministic, so its histogram is bit-exact at any jobs count.
  clock_.record(
      sim::telemetry::Histogram::charlie_delay_fs,
      fire_at > now ? static_cast<std::uint64_t>((fire_at - now).fs()) : 0);
  RINGENT_REQUIRE(fire_at >= now, "cannot schedule in the past");
  pending_.push(sim::QueuedEvent{fire_at, clock_.events_scheduled(),
                                 static_cast<std::uint32_t>(i)});
  clock_.scheduled(pending_.size());
  scheduled_[i] = 1;
}

void Str::start() {
  RINGENT_REQUIRE(!started_, "STR already started");
  started_ = true;
  const sim::EventClock::Publish publish(clock_);
  sync_supply();
  for (std::size_t i = 0; i < config_.stages; ++i) {
    try_schedule(i, clock_.now());
  }
}

void Str::fire(std::size_t i, Time now) {
  // The enabling conditions cannot be withdrawn between scheduling and
  // firing (neighbours of an enabled stage are themselves disabled), so the
  // event is always valid here.
  scheduled_[i] = 0;
  state_[i] = state_[prev(i)];
  last_change_[i] = now;

  if (config_.trace_all_stages) {
    traces_[i].record(now, state_[i] != 0);
  } else if (i == config_.observe_stage) {
    output_->record(now, state_[i] != 0);
  }

  // The firing moved a token to i+1 and a bubble to i; only those two
  // neighbours can have become enabled.
  try_schedule(next(i), now);
  try_schedule(prev(i), now);
}

std::uint64_t Str::run_until(Time t_end) {
  RINGENT_REQUIRE(t_end >= clock_.now(), "horizon in the past");
  const std::uint64_t fired =
      drain(t_end, std::numeric_limits<std::uint64_t>::max());
  clock_.park(t_end);
  return fired;
}

std::uint64_t Str::run_events(std::uint64_t max_events) {
  return drain(Time::max(), max_events);
}

std::uint64_t Str::drain(Time t_end, std::uint64_t max_events) {
  const sim::EventClock::Publish publish(clock_);
  sync_supply();
  std::uint64_t fired = 0;
  while (fired < max_events && !pending_.empty() &&
         pending_.min_at() <= t_end) {
    const sim::QueuedEvent event = pending_.pop_min();
    clock_.fire(event.at);
    fire(event.stage, event.at);
    ++fired;
  }
  return fired;
}

Time Str::nominal_period() const {
  double routing_ps = config_.routing_per_hop.ps();
  if (!config_.routing_per_stage.empty()) {
    routing_ps = 0.0;
    for (Time r : config_.routing_per_stage) routing_ps += r.ps();
    routing_ps /= static_cast<double>(config_.routing_per_stage.size());
  }
  const double hop_ps = config_.charlie.d_mean().ps() +
                        config_.charlie.d_charlie.ps() + routing_ps;
  const double period_ps = 2.0 * static_cast<double>(config_.stages) * hop_ps /
                           static_cast<double>(tokens_);
  return Time::from_ps(period_ps);
}

}  // namespace ringent::ring
