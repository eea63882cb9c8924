// Health-monitored generator pool: the producer half of the entropy service.
//
// Each pool *slot* is an independent production line:
//
//   BitSource (primary + backup) -> ResilientGenerator -> Conditioner -> SpscRing
//
// and every slot is owned by exactly one worker thread (slot i belongs to
// worker i % workers), which preserves the single-producer contract of the
// SPSC ring no matter how many workers run. The conditioned byte stream of a
// slot is a pure function of the slot's sources, policy, conditioner and raw
// budget — worker count and scheduling only change *when* bytes appear in
// the ring, never *which* bytes. The front-end (service/frontend.hpp)
// exploits this to deliver bit-identical output at any `--jobs` value.
//
// Every slot has a fixed raw-bit budget (`raw_bits_per_slot`). When the
// budget is spent or the generator latches `failed`, the worker flushes what
// the ring will take and then sets the slot's `exhausted` flag (release
// order, after the final push) so the consumer can distinguish "empty for
// now" from "empty forever".
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "service/conditioner.hpp"
#include "service/ring_buffer.hpp"
#include "trng/resilient.hpp"

namespace ringent::service {

/// The two supervised sources of one slot. `backup` may be null (failover
/// disabled for that slot).
struct SlotSources {
  std::unique_ptr<trng::BitSource> primary;
  std::unique_ptr<trng::BitSource> backup;
};

/// Builds the sources for slot `index`; `seed` is already derived per slot.
using SourceFactory =
    std::function<SlotSources(std::size_t index, std::uint64_t seed)>;

struct PoolConfig {
  std::size_t slots = 4;
  std::size_t workers = 1;           ///< worker threads (clamped to slots)
  std::uint64_t seed = 1;            ///< master seed for per-slot derivation
  std::uint64_t raw_bits_per_slot = 1u << 16;  ///< production budget per slot
  ConditionerKind conditioner = ConditionerKind::lfsr;
  std::size_t conditioner_ratio = 2;
  std::size_t ring_capacity = 4096;  ///< bytes, power of two
  /// Raw bits pulled per pump_slot call. Bounds the producer-side latency:
  /// nothing is pushed to the ring until a pump returns, so a slow
  /// (simulation-rate-limited) source needs a small quantum or the consumer
  /// starves waiting for the first conditioned block. Synthetic sources keep
  /// the large default for throughput.
  std::size_t pump_raw_bits = 4096;
  trng::DegradationPolicy policy{};
};

struct PoolStats {
  std::uint64_t raw_bits_in = 0;         ///< summed over slots
  std::uint64_t conditioned_bytes = 0;   ///< pushed into the rings
  std::uint64_t slots_failed = 0;        ///< latched `failed` before budget
  std::uint64_t slots_exhausted = 0;     ///< finished (budget or failed)
};

class GeneratorPool {
 public:
  GeneratorPool(const PoolConfig& config, const SourceFactory& factory);
  ~GeneratorPool();

  GeneratorPool(const GeneratorPool&) = delete;
  GeneratorPool& operator=(const GeneratorPool&) = delete;

  /// Launch the worker threads. Idempotent-hostile: call exactly once.
  /// Each worker runs under a child of the observation scope current here
  /// (sim/observe.hpp), which must stay open until stop() returns.
  void start();

  /// Stop and join the workers. Safe to call more than once; also runs from
  /// the destructor. Slots keep whatever the rings still hold.
  void stop();

  std::size_t slot_count() const { return slots_.size(); }
  std::size_t worker_count() const { return workers_; }

  /// Consumer-side access to slot `i`'s ring.
  SpscRing& ring(std::size_t i) { return *slots_[i]->ring; }

  /// True once slot `i` will never push another byte (checked with acquire
  /// order — pair with a ring re-poll to close the final-push race).
  bool exhausted(std::size_t i) const {
    return slots_[i]->exhausted.load(std::memory_order_acquire);
  }

  /// Aggregate production counters. Exact only when the workers are
  /// stopped (or all slots exhausted); a live pool gives a racy snapshot.
  PoolStats stats() const;

  /// Per-slot generator (for reports/tests; the degradation census). Only
  /// meaningful once the pool is stopped.
  const trng::ResilientGenerator& generator(std::size_t i) const {
    return *slots_[i]->generator;
  }

 private:
  struct Slot {
    std::unique_ptr<trng::BitSource> primary;
    std::unique_ptr<trng::BitSource> backup;
    std::unique_ptr<trng::ResilientGenerator> generator;
    std::unique_ptr<Conditioner> conditioner;
    std::unique_ptr<SpscRing> ring;
    std::atomic<bool> exhausted{false};
    // Producer-thread private; read by stats() only when quiescent.
    std::uint64_t conditioned_bytes = 0;
    /// The last pump's conditioned bytes, reused across pumps; the ones from
    /// `out_sent` on did not fit in the ring yet.
    std::vector<std::uint8_t> out;
    std::size_t out_sent = 0;
    bool done_producing = false;

    /// Push what the ring takes of out[out_sent..]; returns the count.
    std::size_t push_out();
  };

  /// One production step for `slot`; returns true if any progress was made
  /// (bytes pushed or raw bits consumed).
  bool pump_slot(Slot& slot);
  void worker_main(std::size_t worker_index);

  PoolConfig config_;
  std::size_t workers_;
  std::vector<std::unique_ptr<Slot>> slots_;
  std::vector<std::thread> threads_;
  std::atomic<bool> running_{false};
};

/// Deterministic PRNG-backed bit source for synthetic slots: unbiased i.i.d.
/// bits from xoshiro256**, reseeded by restart attempt. This is what the
/// saturation bench and the cross-jobs identity tests use — real ring
/// sources are simulation-rate-limited, which would measure the oscillator
/// model, not the service layer.
class PrngBitSource final : public trng::BitSource {
 public:
  explicit PrngBitSource(std::uint64_t seed);

  std::uint8_t next_bit() override;
  std::uint64_t next_bits(unsigned count) override;
  void restart(std::uint64_t attempt) override;
  std::string_view describe() const override { return "prng-source"; }

 private:
  std::uint64_t seed_;
  Xoshiro256 rng_;
  std::uint64_t word_ = 0;
  std::size_t bits_left_ = 0;
};

}  // namespace ringent::service
