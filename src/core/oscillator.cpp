#include "core/oscillator.hpp"

#include <utility>
#include <vector>

#include "common/require.hpp"
#include "sim/metrics.hpp"

namespace ringent::core {

namespace {

std::vector<double> stage_factors_from_board(const fpga::Board* board,
                                             std::size_t lut_base,
                                             std::size_t stages) {
  std::vector<double> factors;
  if (board == nullptr) return factors;
  factors.reserve(stages);
  for (std::size_t i = 0; i < stages; ++i) {
    factors.push_back(board->stage_factor(lut_base + i));
  }
  return factors;
}

std::vector<std::unique_ptr<noise::NoiseSource>> make_noise(
    const BuildOptions& options, std::size_t stages, double sigma_g_ps) {
  std::vector<std::unique_ptr<noise::NoiseSource>> noise;
  if (sigma_g_ps <= 0.0 && options.flicker_amplitude_ps <= 0.0) return noise;
  noise.reserve(stages);
  for (std::size_t i = 0; i < stages; ++i) {
    const std::uint64_t seed =
        options.board != nullptr
            ? options.board->noise_seed(options.lut_base + i)
            : derive_seed(options.noise_seed, "stage-noise", i);
    if (options.flicker_amplitude_ps <= 0.0) {
      noise.push_back(std::make_unique<noise::GaussianNoise>(sigma_g_ps, seed));
      continue;
    }
    auto composite = std::make_unique<noise::CompositeNoise>();
    if (sigma_g_ps > 0.0) {
      composite->add(std::make_unique<noise::GaussianNoise>(
          sigma_g_ps, derive_seed(seed, "white")));
    }
    composite->add(std::make_unique<noise::FlickerNoise>(
        options.flicker_amplitude_ps, options.flicker_octaves,
        derive_seed(seed, "flicker")));
    noise.push_back(std::move(composite));
  }
  return noise;
}

}  // namespace

Oscillator Oscillator::build(const RingSpec& spec,
                             const Calibration& calibration,
                             const BuildOptions& options) {
  const sim::metrics::ScopedPhase phase("build");
  spec.validate();
  Oscillator osc;
  osc.spec_ = spec;

  const double sigma_g_ps =
      options.sigma_g_ps < 0.0 ? calibration.sigma_g_ps : options.sigma_g_ps;
  auto noise = make_noise(options, spec.stages, sigma_g_ps);
  auto factors =
      stage_factors_from_board(options.board, options.lut_base, spec.stages);
  RINGENT_REQUIRE(options.delay_scale > 0.0, "delay_scale must be positive");
  if (options.delay_scale != 1.0) {
    if (factors.empty()) factors.assign(spec.stages, 1.0);
    for (double& f : factors) f *= options.delay_scale;
  }

  RINGENT_REQUIRE(options.routing_crossing_weight >= 1.0,
                  "routing_crossing_weight must be >= 1");
  if (spec.kind == RingKind::iro) {
    ring::IroConfig config;
    config.stages = spec.stages;
    config.lut_delay = calibration.iro_lut_delay;
    config.routing_per_hop = calibration.iro_routing.per_hop_delay(spec.stages);
    if (options.routing_crossing_weight > 1.0) {
      config.routing_per_stage = fpga::distribute_routing(
          config.routing_per_hop, spec.stages,
          options.routing_crossing_weight);
    }
    config.stage_factors = std::move(factors);
    config.modulation = options.modulation;
    config.jitter_delay_exponent = options.jitter_delay_exponent;
    if (options.supply != nullptr) {
      config.supply = options.supply;
      config.laws = &calibration.laws;
    }
    osc.iro_ = std::make_unique<ring::Iro>(config, std::move(noise));
    osc.nominal_period_ = osc.iro_->nominal_period();
  } else {
    ring::StrConfig config;
    config.stages = spec.stages;
    config.charlie = ring::CharlieParams::symmetric(calibration.str_d_static,
                                                    calibration.str_d_charlie);
    config.drafting = calibration.drafting;
    config.routing_per_hop = calibration.str_routing.per_hop_delay(spec.stages);
    if (options.routing_crossing_weight > 1.0) {
      config.routing_per_stage = fpga::distribute_routing(
          config.routing_per_hop, spec.stages,
          options.routing_crossing_weight);
    }
    config.stage_factors = std::move(factors);
    config.modulation = options.modulation;
    config.jitter_delay_exponent = options.jitter_delay_exponent;
    config.trace_all_stages = options.trace_all_stages;
    if (options.supply != nullptr) {
      config.supply = options.supply;
      config.laws = &calibration.laws;
    }
    ring::RingState initial = ring::make_initial_state(
        spec.stages, spec.effective_tokens(), spec.placement);
    osc.str_ = std::make_unique<ring::Str>(config, initial,
                                           std::move(noise));
    osc.nominal_period_ = osc.str_->nominal_period();
  }

  // Warm-up: skip the initial transient before recording. At a non-nominal
  // operating point the period stretches by roughly the LUT law's scale.
  double period_scale = 1.0;
  if (options.supply != nullptr) {
    period_scale =
        calibration.laws.lut.scale(options.supply->operating_point_at(
            Time::zero()));
  }
  osc.estimated_period_ = osc.nominal_period_.scaled(period_scale);
  const Time warmup = osc.estimated_period_.scaled(
      static_cast<double>(options.warmup_periods));
  osc.warmup_time_ = warmup;

  if (osc.iro_ != nullptr) {
    osc.iro_->output().set_record_from(warmup);
    osc.iro_->start();
  } else {
    if (options.trace_all_stages) {
      for (auto& trace : osc.str_->stage_traces()) {
        trace.set_record_from(warmup);
      }
    } else {
      osc.str_->output().set_record_from(warmup);
    }
    osc.str_->start();
  }
  osc.started_ = true;
  return osc;
}

void Oscillator::advance_to(Time t) {
  if (iro_ != nullptr) {
    iro_->run_until(t);
  } else {
    str_->run_until(t);
  }
}

Time Oscillator::now() const {
  return iro_ != nullptr ? iro_->now() : str_->now();
}

std::uint64_t Oscillator::events_fired() const {
  return iro_ != nullptr ? iro_->events_fired() : str_->events_fired();
}

void Oscillator::run_periods(std::size_t n) {
  const sim::metrics::ScopedPhase phase("run");
  RINGENT_REQUIRE(started_, "oscillator not started");
  RINGENT_REQUIRE(n >= 1, "need at least one period");
  // A period is two transitions of the observed signal; aim past the warm-up
  // with margin, then top up until enough rising edges are recorded.
  const auto enough = [&] {
    return output().rising_edges().size() >= n + 1;
  };
  const Time target =
      warmup_time_ + estimated_period_.scaled(static_cast<double>(n + 8));
  if (now() < target) advance_to(target);
  double topup = 64.0;
  while (!enough()) {
    // An IRO always has its one event in flight; an STR can run dry.
    RINGENT_REQUIRE(iro_ != nullptr || !str_->idle(),
                    "ring deadlocked (no pending events)");
    advance_to(now() + estimated_period_.scaled(topup));
    topup *= 2.0;
  }
}

void Oscillator::run_for(Time span) {
  const sim::metrics::ScopedPhase phase("run");
  RINGENT_REQUIRE(started_, "oscillator not started");
  advance_to(now() + span);
}

sim::SignalTrace& Oscillator::output() {
  return iro_ != nullptr ? iro_->output() : str_->output();
}

const sim::SignalTrace& Oscillator::output() const {
  return iro_ != nullptr ? iro_->output() : str_->output();
}

}  // namespace ringent::core
