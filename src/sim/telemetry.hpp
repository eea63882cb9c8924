// Distribution telemetry: log-linear histograms over the simulation
// substrate.
//
// sim/metrics counts *how often* things happen; this layer records *how they
// are distributed* — event inter-fire gaps, pending-queue depths, Charlie
// fire delays, pool-task durations, and the trng health observables
// (trng/telemetry.hpp feeds the rct/apt/relock histograms). Every
// observation lands in the observation scope current on the calling thread
// (sim/observe.hpp), and only a scope that asks for histograms has any
// bucket storage. The design constraints mirror metrics.hpp:
//
//  1. Zero cost when off. Every record() is one thread-local load and a
//     predicted branch; the histogram arithmetic runs only under a scope
//     that collects histograms (`--observe telemetry=FILE`).
//  2. No cross-thread sharing when on. A pool task records into its own
//     child scope's block, added into the spawning scope when the task ends.
//  3. Deterministic counts. Every histogram except pool_task_ns and
//     service_acquire_ns records a simulated-domain observable
//     (femtoseconds, queue population, bit indices), so bucket counts — and
//     therefore quantiles — are bit-exact at any `jobs` value: shards merge
//     additively. The two wall-clock histograms are excluded from that
//     guarantee.
//
// Bucketing is HDR-style log-linear: values below 2^sub_bucket_bits map to
// their own exact bucket; above that, each power of two splits into
// 2^sub_bucket_bits equal sub-buckets. A bucket's width is therefore at most
// lower_bound * 2^-sub_bucket_bits, which bounds the relative error of any
// reported quantile by 2^-sub_bucket_bits (3.125 % at sub_bucket_bits = 5).
// quantile() reports the bucket's inclusive upper bound (the "highest
// equivalent value"), so estimates never under-report a tail.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <string_view>
#include <utility>
#include <vector>

namespace ringent::sim::telemetry {

/// Everything the substrate records distributions of. Keep histogram_names
/// in telemetry.cpp in sync.
enum class Histogram : std::size_t {
  event_gap_fs,          ///< simulated time between consecutive fired events
  queue_depth,           ///< pending-event population after each push
  charlie_delay_fs,      ///< Charlie-resolved fire delay per STR evaluation
  pool_task_ns,          ///< wall-clock per ThreadPool task (nondeterministic)
  rct_run_length,        ///< completed same-bit run lengths in the raw stream
  apt_window_ones,       ///< reference-bit count per completed APT window
  bits_between_alarms,   ///< raw bits between consecutive health alarms
  relock_duration_bits,  ///< raw bits from alarm to probation-clean recovery
  service_buffer_depth,  ///< per-slot ring occupancy at each front-end pop
  service_acquire_ns,    ///< wall-clock per acquire() call (nondeterministic)
};
inline constexpr std::size_t histogram_count =
    static_cast<std::size_t>(Histogram::service_acquire_ns) + 1;

/// Stable slug for snapshots and expositions (e.g. "event_gap_fs").
std::string_view histogram_name(Histogram histogram);

// --- log-linear bucketing math (pure, exposed for tests) --------------------

inline constexpr std::size_t sub_bucket_bits = 5;
inline constexpr std::size_t sub_bucket_count = std::size_t{1}
                                                << sub_bucket_bits;
/// Group 0 holds the exact values [0, 2^sub_bucket_bits); one further group
/// of sub_bucket_count buckets per binary exponent up to 2^64 - 1.
inline constexpr std::size_t bucket_count =
    (64 - sub_bucket_bits + 1) * sub_bucket_count;

constexpr std::size_t bucket_index(std::uint64_t value) {
  if (value < sub_bucket_count) return static_cast<std::size_t>(value);
  const auto exponent =
      static_cast<std::size_t>(std::bit_width(value)) - 1;  // >= sub_bucket_bits
  const std::size_t shift = exponent - sub_bucket_bits;
  return (shift + 1) * sub_bucket_count +
         static_cast<std::size_t>((value >> shift) - sub_bucket_count);
}

/// Inclusive lower bound of a bucket.
constexpr std::uint64_t bucket_low(std::size_t index) {
  const std::size_t group = index / sub_bucket_count;
  const std::uint64_t sub = index % sub_bucket_count;
  if (group == 0) return sub;
  return (sub_bucket_count + sub) << (group - 1);
}

/// Inclusive upper bound of a bucket (the quantile representative).
constexpr std::uint64_t bucket_high(std::size_t index) {
  const std::size_t group = index / sub_bucket_count;
  if (group == 0) return bucket_low(index);
  return bucket_low(index) + ((std::uint64_t{1} << (group - 1)) - 1);
}

namespace detail {

/// One scope's bucket counters (about 150 KB: allocated only for a scope
/// that collects histograms).
struct Block {
  std::array<std::array<std::uint64_t, bucket_count>, histogram_count>
      buckets{};
  std::array<std::uint64_t, histogram_count> sums{};
};

/// The block of the scope current on this thread, or null when no scope is
/// current or it does not collect histograms. Only sim::Scope sets it.
extern constinit thread_local Block* block;

}  // namespace detail

/// True when the current scope collects histograms.
inline bool enabled() { return detail::block != nullptr; }

/// Record one observation into `block` (nothing when it is null).
inline void record(detail::Block* block, Histogram histogram,
                   std::uint64_t value) {
  if (block != nullptr) {
    const auto h = static_cast<std::size_t>(histogram);
    ++block->buckets[h][bucket_index(value)];
    block->sums[h] += value;
  }
}

/// Record one observation in the current scope. When nothing collects this
/// is one thread-local load.
inline void record(Histogram histogram, std::uint64_t value) {
  record(detail::block, histogram, value);
}

/// One histogram's merged state: exact count/sum plus the sparse non-empty
/// buckets, sorted by bucket index.
struct HistogramSnapshot {
  std::string_view name;  ///< histogram_name() slug
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  /// (bucket index, observations) for every non-empty bucket, ascending.
  std::vector<std::pair<std::uint32_t, std::uint64_t>> buckets;

  /// The q-quantile (q in [0, 1]) as the inclusive upper bound of the bucket
  /// holding the ceil(q * count)-th smallest observation — never below the
  /// exact order statistic and at most a factor 1 + 2^-sub_bucket_bits above
  /// it. 0 when empty.
  std::uint64_t quantile(double q) const;
  double mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
  std::uint64_t min_bound() const;  ///< lower bound of the smallest observation
  std::uint64_t max_bound() const;  ///< upper bound of the largest observation
};

/// A copy of a scope's histograms, dense (indexed by Histogram).
struct Snapshot {
  std::array<std::vector<std::uint64_t>, histogram_count> buckets;
  std::array<std::uint64_t, histogram_count> counts{};
  std::array<std::uint64_t, histogram_count> sums{};

  /// Dense copy of `block` (all zero when null).
  static Snapshot of(const detail::Block* block);

  /// Sparse view of one histogram.
  HistogramSnapshot histogram(Histogram histogram) const;
  /// Sparse views of every non-empty histogram, in enum order.
  std::vector<HistogramSnapshot> non_empty() const;
};

}  // namespace ringent::sim::telemetry
