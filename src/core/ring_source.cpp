#include "core/ring_source.hpp"

#include <algorithm>
#include <cmath>

#include "common/require.hpp"
#include "common/rng.hpp"
#include "sim/metrics.hpp"

namespace ringent::core {

RingBitSource::RingBitSource(const RingSourceConfig& config,
                             const Calibration& calibration,
                             noise::FaultScenario scenario)
    : config_(config), calibration_(calibration) {
  RINGENT_REQUIRE(config_.sampling_period > Time::zero(),
                  "sampling period must be positive");
  RINGENT_REQUIRE(config_.chunk_bits > 0, "chunk must cover >= 1 bit");
  label_ = config_.spec.name();
  supply_ = fpga::Supply(config_.supply_nominal_v);
  supply_.set_regulator(config_.regulator);
  injector_ =
      std::make_unique<noise::FaultInjector>(std::move(scenario), &supply_);
  rebuild(0);

  // Start the sample grid on the first clock tick past the (estimated)
  // warm-up, so the stream begins with real post-transient ring output.
  const Time warmup = osc_->nominal_period().scaled(
      static_cast<double>(config_.warmup_periods));
  const auto ticks =
      static_cast<std::int64_t>(warmup / config_.sampling_period) + 1;
  sample_next_abs_ = config_.sampling_period * ticks;
}

Time RingBitSource::now() { return epoch_ + osc_->now(); }

void RingBitSource::rebuild(std::uint64_t attempt) {
  // Apply the supply state the scenario prescribes at the rebuild instant
  // before the oscillator reads its operating point.
  injector_->set_epoch(epoch_);
  injector_->advance_to(epoch_);

  BuildOptions options;
  options.supply = &supply_;
  // Only delay faults act through the modulation hook; without them the
  // injector's offset is exactly 0.0 on every event, so leave it out.
  if (injector_->scenario().has_delay_faults()) {
    options.modulation = injector_.get();
  }
  options.noise_seed = attempt == 0
                           ? config_.seed
                           : derive_seed(config_.seed, "relock", attempt);
  options.warmup_periods = config_.warmup_periods;
  osc_ = Oscillator::build(config_.spec, calibration_, options);
  // Mirror trng::value_at: unknown until the first recorded transition.
  last_value_ = false;
}

std::uint8_t RingBitSource::next_bit() {
  if (index_ >= buffer_.size()) refill();
  return buffer_[index_++];
}

void RingBitSource::restart(std::uint64_t attempt) {
  // Power-cycle: local ring time restarts at zero but the fault schedule
  // keeps running, so the new ring's epoch is wherever the old one stopped.
  epoch_ = now();
  buffer_.clear();
  index_ = 0;
  rebuild(attempt);
}

void RingBitSource::refill() {
  buffer_.clear();
  index_ = 0;

  const Time chunk_end_abs =
      sample_next_abs_ +
      config_.sampling_period * static_cast<std::int64_t>(config_.chunk_bits - 1);
  while (true) {
    const Time now_abs = now();
    injector_->advance_to(now_abs);
    if (now_abs >= chunk_end_abs) break;
    const Time boundary = injector_->next_boundary(now_abs);
    osc_->run_for(std::min(chunk_end_abs, boundary) - now_abs);
  }
  const std::uint64_t activations = injector_->activations();
  sim::metrics::bump(sim::metrics::Counter::fault_activations,
                     activations - reported_activations_);
  reported_activations_ = activations;

  // Latch the signal at each sample instant (what a DFF does), walking the
  // chunk's recorded transitions once.
  const auto& transitions = osc_->output().transitions();
  std::size_t ptr = 0;
  for (std::size_t k = 0; k < config_.chunk_bits; ++k) {
    const Time ts_local = sample_next_abs_ - epoch_;
    while (ptr < transitions.size() && transitions[ptr].at <= ts_local) {
      last_value_ = transitions[ptr++].value;
    }
    buffer_.push_back(last_value_ ? 1 : 0);
    if (raw_telemetry_ != nullptr) raw_telemetry_->feed(last_value_ ? 1 : 0);
    sample_next_abs_ += config_.sampling_period;
  }
  // Transitions past the last sample still decide the next chunk's start.
  if (!transitions.empty()) last_value_ = transitions.back().value;
  osc_->output().clear();
}

}  // namespace ringent::core
