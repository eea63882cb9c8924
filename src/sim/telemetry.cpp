#include "sim/telemetry.hpp"

#include <cmath>
#include <memory>
#include <mutex>

#include "common/require.hpp"

namespace ringent::sim::telemetry {

namespace detail {

std::atomic<bool> enabled_flag{false};

namespace {

/// Registry of the live threads' histogram blocks. A thread's observations
/// move into `retired` when it exits, so a snapshot taken after a pool shut
/// down still sees the workers' observations, and the block list does not
/// grow with the number of threads ever started.
struct Registry {
  std::mutex mutex;
  HistogramBlock retired;
  std::vector<HistogramBlock*> blocks{&retired};
};

Registry& registry() {
  static Registry* instance = new Registry();  // leaked: outlives all threads
  return *instance;
}

/// Registers the calling thread's block (on the heap: it is too large for
/// thread storage); retires and frees it when the thread exits.
struct ThreadBlock {
  std::unique_ptr<HistogramBlock> block = std::make_unique<HistogramBlock>();
  ThreadBlock() {
    const std::lock_guard<std::mutex> lock(registry().mutex);
    registry().blocks.push_back(block.get());
  }
  ~ThreadBlock() {
    const std::lock_guard<std::mutex> lock(registry().mutex);
    HistogramBlock& retired = registry().retired;
    for (std::size_t h = 0; h < histogram_count; ++h) {
      for (std::size_t b = 0; b < bucket_count; ++b) {
        retired.buckets[h][b] += block->buckets[h][b].load();
      }
      retired.sums[h] += block->sums[h].load();
    }
    std::erase(registry().blocks, block.get());
  }
};

}  // namespace

HistogramBlock& local_block() {
  thread_local ThreadBlock local;
  return *local.block;
}

std::size_t registered_blocks() {
  const std::lock_guard<std::mutex> lock(registry().mutex);
  return registry().blocks.size();
}

void record_slow(Histogram histogram, std::uint64_t value) {
  HistogramBlock& block = local_block();
  const auto h = static_cast<std::size_t>(histogram);
  block.buckets[h][bucket_index(value)].fetch_add(1,
                                                  std::memory_order_relaxed);
  block.sums[h].fetch_add(value, std::memory_order_relaxed);
}

}  // namespace detail

std::string_view histogram_name(Histogram histogram) {
  static constexpr std::string_view names[histogram_count] = {
      "event_gap_fs",        "queue_depth",
      "charlie_delay_fs",    "pool_task_ns",
      "rct_run_length",      "apt_window_ones",
      "bits_between_alarms", "relock_duration_bits",
      "service_buffer_depth", "service_acquire_ns",
  };
  const auto index = static_cast<std::size_t>(histogram);
  RINGENT_REQUIRE(index < histogram_count, "unknown histogram");
  return names[index];
}

void set_enabled(bool on) {
  detail::enabled_flag.store(on, std::memory_order_relaxed);
}

Snapshot snapshot() {
  Snapshot out;
  for (auto& dense : out.buckets) dense.assign(bucket_count, 0);
  auto& reg = detail::registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  for (const auto& block : reg.blocks) {
    for (std::size_t h = 0; h < histogram_count; ++h) {
      for (std::size_t b = 0; b < bucket_count; ++b) {
        const std::uint64_t n =
            block->buckets[h][b].load(std::memory_order_relaxed);
        if (n == 0) continue;
        out.buckets[h][b] += n;
        out.counts[h] += n;
      }
      out.sums[h] += block->sums[h].load(std::memory_order_relaxed);
    }
  }
  return out;
}

void reset() {
  auto& reg = detail::registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  for (auto& block : reg.blocks) {
    for (auto& histogram : block->buckets) {
      for (auto& bucket : histogram) {
        bucket.store(0, std::memory_order_relaxed);
      }
    }
    for (auto& sum : block->sums) sum.store(0, std::memory_order_relaxed);
  }
}

Snapshot Snapshot::delta_since(const Snapshot& earlier) const {
  Snapshot out;
  for (std::size_t h = 0; h < histogram_count; ++h) {
    out.buckets[h].assign(bucket_count, 0);
    for (std::size_t b = 0; b < bucket_count; ++b) {
      out.buckets[h][b] = buckets[h][b] - earlier.buckets[h][b];
    }
    out.counts[h] = counts[h] - earlier.counts[h];
    out.sums[h] = sums[h] - earlier.sums[h];
  }
  return out;
}

HistogramSnapshot Snapshot::histogram(Histogram histogram) const {
  const auto h = static_cast<std::size_t>(histogram);
  HistogramSnapshot out;
  out.name = histogram_name(histogram);
  out.count = counts[h];
  out.sum = sums[h];
  for (std::size_t b = 0; b < bucket_count; ++b) {
    if (buckets[h][b] != 0) {
      out.buckets.emplace_back(static_cast<std::uint32_t>(b), buckets[h][b]);
    }
  }
  return out;
}

std::vector<HistogramSnapshot> Snapshot::non_empty() const {
  std::vector<HistogramSnapshot> out;
  for (std::size_t h = 0; h < histogram_count; ++h) {
    if (counts[h] == 0) continue;
    out.push_back(histogram(static_cast<Histogram>(h)));
  }
  return out;
}

std::uint64_t HistogramSnapshot::quantile(double q) const {
  if (count == 0) return 0;
  auto rank = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(count)));
  if (rank < 1) rank = 1;
  if (rank > count) rank = count;
  std::uint64_t cumulative = 0;
  for (const auto& [index, n] : buckets) {
    cumulative += n;
    if (cumulative >= rank) return bucket_high(index);
  }
  return bucket_high(buckets.back().first);  // unreachable when consistent
}

std::uint64_t HistogramSnapshot::min_bound() const {
  return buckets.empty() ? 0 : bucket_low(buckets.front().first);
}

std::uint64_t HistogramSnapshot::max_bound() const {
  return buckets.empty() ? 0 : bucket_high(buckets.back().first);
}

}  // namespace ringent::sim::telemetry
