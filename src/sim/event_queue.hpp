// The kernel's pending-event set.
//
// FlatHeap4 is a non-virtual flat 4-ary min-heap in structure-of-arrays
// layout. Pop order is (time, sequence) — the determinism contract. The
// ordering keys live in one dense 16-byte-per-event array so a sift touches
// the minimum number of cache lines; the routing payload (node, tag) is
// packed into a single uint64 in a parallel array and only read when an
// event pops. 4-ary halves the tree depth of a binary heap and keeps all
// four children of a node inside one cache line. Ring simulations keep a
// few to a few hundred events pending, so the tree stays at most four
// levels deep. tests/test_event_queue.cpp checks the pop sequence against
// an ordered-set reference.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/require.hpp"
#include "common/time.hpp"

namespace ringent::sim {

struct QueuedEvent {
  Time at;
  std::uint64_t seq = 0;
  std::uint32_t node = 0;
  std::uint32_t tag = 0;
};

/// A flat 4-ary min-heap with the ordering keys and the routing payload
/// split into parallel arrays (see the file comment). Not virtual: every
/// call inlines into the kernel loop. peek_min()/pop_min() return by value
/// (the structure-of-arrays layout has no QueuedEvent to reference).
class FlatHeap4 {
 public:
  void push(const QueuedEvent& event) {
    keys_.push_back(Key{event.at.fs(), event.seq});
    payload_.push_back(pack(event.node, event.tag));
    sift_up(keys_.size() - 1);
  }

  /// Precondition: !empty().
  QueuedEvent pop_min() {
    RINGENT_REQUIRE(!keys_.empty(), "pop from empty queue");
    const QueuedEvent out = make_event(keys_[0], payload_[0]);
    const Key last_key = keys_.back();
    const std::uint64_t last_payload = payload_.back();
    keys_.pop_back();
    payload_.pop_back();
    if (!keys_.empty()) {
      keys_[0] = last_key;
      payload_[0] = last_payload;
      sift_down(0);
    }
    return out;
  }

  /// Precondition: !empty().
  QueuedEvent peek_min() const {
    RINGENT_REQUIRE(!keys_.empty(), "peek into empty queue");
    return make_event(keys_[0], payload_[0]);
  }

  /// Earliest pending timestamp without materializing the event.
  /// Precondition: !empty().
  Time min_at() const {
    RINGENT_REQUIRE(!keys_.empty(), "peek into empty queue");
    return Time::from_fs(keys_[0].at_fs);
  }

  bool empty() const { return keys_.empty(); }
  std::size_t size() const { return keys_.size(); }
  void clear() {
    keys_.clear();
    payload_.clear();
  }
  /// Capacity hint for an expected steady population; pop order is
  /// unaffected and the heap grows past it transparently.
  void reserve(std::size_t expected_events) {
    keys_.reserve(expected_events);
    payload_.reserve(expected_events);
  }

 private:
  struct Key {
    std::int64_t at_fs;
    std::uint64_t seq;
  };

  static bool key_earlier(Key a, Key b) {
    if (a.at_fs != b.at_fs) return a.at_fs < b.at_fs;
    return a.seq < b.seq;
  }
  static std::uint64_t pack(std::uint32_t node, std::uint32_t tag) {
    return (static_cast<std::uint64_t>(node) << 32) | tag;
  }
  static QueuedEvent make_event(Key key, std::uint64_t payload) {
    return QueuedEvent{Time::from_fs(key.at_fs), key.seq,
                       static_cast<std::uint32_t>(payload >> 32),
                       static_cast<std::uint32_t>(payload)};
  }

  void sift_up(std::size_t hole);
  void sift_down(std::size_t hole);

  std::vector<Key> keys_;
  std::vector<std::uint64_t> payload_;
};

inline void FlatHeap4::sift_up(std::size_t hole) {
  const Key key = keys_[hole];
  const std::uint64_t payload = payload_[hole];
  while (hole > 0) {
    const std::size_t parent = (hole - 1) >> 2;
    if (!key_earlier(key, keys_[parent])) break;
    keys_[hole] = keys_[parent];
    payload_[hole] = payload_[parent];
    hole = parent;
  }
  keys_[hole] = key;
  payload_[hole] = payload;
}

inline void FlatHeap4::sift_down(std::size_t hole) {
  // Bottom-up variant (the same trick libstdc++'s __adjust_heap uses): walk
  // the hole to a leaf along the min-child path without comparing against
  // the displaced key, then bubble the key up from the leaf. The displaced
  // key comes from the heap's bottom and is near-maximal almost always, so
  // the bubble-up terminates immediately — one comparison instead of one
  // per level. Pop ORDER is unaffected: (time, seq) keys are unique, so any
  // valid heap shape pops the same sequence.
  const std::size_t n = keys_.size();
  const Key key = keys_[hole];
  const std::uint64_t payload = payload_[hole];
  const std::size_t start = hole;
  for (;;) {
    const std::size_t first_child = (hole << 2) + 1;
    if (first_child >= n) break;
    std::size_t best;
    if (first_child + 4 <= n) {
      // Full fan-out (the common case): pairwise tournament. The two
      // first-round comparisons are independent, so they pipeline; keys
      // are unique, so the winner is the same minimum the linear scan
      // finds.
      const std::size_t a =
          key_earlier(keys_[first_child + 1], keys_[first_child])
              ? first_child + 1
              : first_child;
      const std::size_t b =
          key_earlier(keys_[first_child + 3], keys_[first_child + 2])
              ? first_child + 3
              : first_child + 2;
      best = key_earlier(keys_[b], keys_[a]) ? b : a;
    } else {
      const std::size_t last_child = n;
      best = first_child;
      for (std::size_t c = first_child + 1; c < last_child; ++c) {
        if (key_earlier(keys_[c], keys_[best])) best = c;
      }
    }
    keys_[hole] = keys_[best];
    payload_[hole] = payload_[best];
    hole = best;
  }
  while (hole > start) {
    const std::size_t parent = (hole - 1) >> 2;
    if (!key_earlier(key, keys_[parent])) break;
    keys_[hole] = keys_[parent];
    payload_[hole] = payload_[parent];
    hole = parent;
  }
  keys_[hole] = key;
  payload_[hole] = payload;
}

}  // namespace ringent::sim
