#include "sim/telemetry.hpp"

#include <cmath>

#include "common/require.hpp"

namespace ringent::sim::telemetry {

namespace detail {

constinit thread_local Block* block = nullptr;

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

Snapshot Snapshot::of(const detail::Block* block) {
  Snapshot out;
  for (auto& dense : out.buckets) dense.assign(bucket_count, 0);
  if (block == nullptr) return out;
  for (std::size_t h = 0; h < histogram_count; ++h) {
    for (std::size_t b = 0; b < bucket_count; ++b) {
      out.buckets[h][b] = block->buckets[h][b];
      out.counts[h] += block->buckets[h][b];
    }
    out.sums[h] = block->sums[h];
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
