#include "service/pool.hpp"

#include <chrono>

#include "common/require.hpp"
#include "sim/observe.hpp"

namespace ringent::service {

GeneratorPool::GeneratorPool(const PoolConfig& config,
                             const SourceFactory& factory)
    : config_(config),
      workers_(config.workers < 1               ? 1
               : config.workers > config.slots ? config.slots
                                               : config.workers) {
  RINGENT_REQUIRE(config.slots >= 1, "pool needs at least one slot");
  RINGENT_REQUIRE(config.raw_bits_per_slot >= 1,
                  "raw bit budget must be >= 1");
  RINGENT_REQUIRE(config.pump_raw_bits >= 8,
                  "pump quantum must cover at least one byte");
  RINGENT_REQUIRE(factory != nullptr, "pool needs a source factory");
  slots_.reserve(config.slots);
  for (std::size_t i = 0; i < config.slots; ++i) {
    auto slot = std::make_unique<Slot>();
    SlotSources sources =
        factory(i, derive_seed(config.seed, "service-slot", i));
    RINGENT_REQUIRE(sources.primary != nullptr,
                    "source factory returned a null primary");
    slot->primary = std::move(sources.primary);
    slot->backup = std::move(sources.backup);
    slot->generator = std::make_unique<trng::ResilientGenerator>(
        *slot->primary, slot->backup.get(), config.policy);
    slot->conditioner =
        make_conditioner(config.conditioner, config.conditioner_ratio);
    slot->ring = std::make_unique<SpscRing>(config.ring_capacity);
    slots_.push_back(std::move(slot));
  }
}

GeneratorPool::~GeneratorPool() { stop(); }

void GeneratorPool::start() {
  RINGENT_REQUIRE(threads_.empty(), "pool already started");
  running_.store(true, std::memory_order_release);
  threads_.reserve(workers_);
  sim::Scope* scope = sim::Scope::current();
  for (std::size_t w = 0; w < workers_; ++w) {
    threads_.emplace_back([this, w, scope] {
      if (scope == nullptr) {
        worker_main(w);
        return;
      }
      const sim::Scope pump_scope(scope->collects(), scope);
      worker_main(w);
    });
  }
}

void GeneratorPool::stop() {
  running_.store(false, std::memory_order_release);
  for (auto& thread : threads_) {
    if (thread.joinable()) thread.join();
  }
  threads_.clear();
}

std::size_t GeneratorPool::Slot::push_out() {
  const std::size_t pushed =
      ring->try_push(std::span<const std::uint8_t>(out).subspan(out_sent));
  out_sent += pushed;
  conditioned_bytes += pushed;
  return pushed;
}

bool GeneratorPool::pump_slot(Slot& slot) {
  if (slot.exhausted.load(std::memory_order_relaxed)) return false;

  // Flush conditioned bytes the ring could not take last time first, so the
  // stream order is preserved.
  if (slot.out_sent < slot.out.size()) {
    const std::size_t pushed = slot.push_out();
    if (slot.out_sent < slot.out.size()) return pushed > 0;  // still full
  }

  if (slot.done_producing) {
    // Budget spent / generator failed and everything flushed: closing time.
    slot.exhausted.store(true, std::memory_order_release);
    return true;
  }

  auto& gen = *slot.generator;
  const std::uint64_t used = gen.stats().bits_in;
  if (used >= config_.raw_bits_per_slot ||
      gen.state() == trng::DegradationState::failed) {
    slot.done_producing = true;
    return true;  // next pump flushes/exhausts
  }

  // Pull one staging buffer of raw->monitored bytes. The raw cap keeps the
  // per-slot budget exact; the byte cap bounds latency per pump.
  std::uint8_t staging[256];
  const std::uint64_t raw_left = config_.raw_bits_per_slot - used;
  const std::size_t raw_budget =
      raw_left < config_.pump_raw_bits ? static_cast<std::size_t>(raw_left)
                                       : config_.pump_raw_bits;
  const std::size_t got =
      gen.fill_bytes(std::span<std::uint8_t>(staging, sizeof staging),
                     raw_budget);
  const bool consumed_raw = gen.stats().bits_in > used;
  if (got == 0) return consumed_raw;  // muted/relocking: bits burned, no output

  slot.out.clear();
  slot.out_sent = 0;
  slot.conditioner->process(std::span<const std::uint8_t>(staging, got),
                            slot.out);
  if (!slot.out.empty()) slot.push_out();
  return true;
}

void GeneratorPool::worker_main(std::size_t worker_index) {
  while (running_.load(std::memory_order_acquire)) {
    bool progress = false;
    bool all_done = true;
    for (std::size_t i = worker_index; i < slots_.size(); i += workers_) {
      Slot& slot = *slots_[i];
      if (slot.exhausted.load(std::memory_order_relaxed)) continue;
      all_done = false;
      progress |= pump_slot(slot);
    }
    if (all_done) return;
    if (!progress) {
      // Every owned ring is full (or the consumer is behind): back off
      // instead of spinning the memory bus.
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }
}

PoolStats GeneratorPool::stats() const {
  PoolStats stats;
  for (const auto& slot : slots_) {
    stats.raw_bits_in += slot->generator->stats().bits_in;
    stats.conditioned_bytes += slot->conditioned_bytes;
    if (slot->generator->state() == trng::DegradationState::failed) {
      ++stats.slots_failed;
    }
    if (slot->exhausted.load(std::memory_order_acquire)) {
      ++stats.slots_exhausted;
    }
  }
  return stats;
}

PrngBitSource::PrngBitSource(std::uint64_t seed) : seed_(seed), rng_(seed) {}

std::uint8_t PrngBitSource::next_bit() {
  if (bits_left_ == 0) {
    word_ = rng_.next();
    bits_left_ = 64;
  }
  const std::uint8_t bit = static_cast<std::uint8_t>(word_ & 1u);
  word_ >>= 1;
  --bits_left_;
  return bit;
}

std::uint64_t PrngBitSource::next_bits(unsigned count) {
  // Bits left in word_ sit at its bottom; the rest come from a fresh word.
  std::uint64_t bits = word_;
  if (count <= bits_left_) {
    word_ = count == 64 ? 0 : word_ >> count;
    bits_left_ -= count;
  } else {
    const std::size_t have = bits_left_;
    const std::size_t rest = count - have;
    word_ = rng_.next();
    bits |= word_ << have;
    word_ = rest == 64 ? 0 : word_ >> rest;
    bits_left_ = 64 - rest;
  }
  return count == 64 ? bits : bits & ((std::uint64_t{1} << count) - 1);
}

void PrngBitSource::restart(std::uint64_t attempt) {
  rng_ = Xoshiro256(derive_seed(seed_, "restart", attempt));
  word_ = 0;
  bits_left_ = 0;
}

}  // namespace ringent::service
