// Tests for the kernel's pending-event set: FlatHeap4 ordering, payload
// round-trip, and pop-sequence equivalence against a test-local reference
// (an ordered std::set of (at, seq, node, tag)) under randomized workloads.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <tuple>

#include "common/require.hpp"
#include "common/rng.hpp"
#include "sim/event_queue.hpp"

using namespace ringent;
using sim::FlatHeap4;
using sim::QueuedEvent;

namespace {

QueuedEvent ev(std::int64_t fs, std::uint64_t seq) {
  return QueuedEvent{Time::from_fs(fs), seq, 0, 0};
}

/// The reference pending-event set: std::set orders the tuples by
/// (at, seq) first — the determinism contract — and (time, seq) keys are
/// unique, so node and tag never decide the order.
class ReferenceQueue {
 public:
  void push(const QueuedEvent& event) {
    events_.emplace(event.at.fs(), event.seq, event.node, event.tag);
  }
  QueuedEvent pop_min() {
    const QueuedEvent out = peek_min();
    events_.erase(events_.begin());
    return out;
  }
  QueuedEvent peek_min() const {
    const auto& [at, seq, node, tag] = *events_.begin();
    return QueuedEvent{Time::from_fs(at), seq, node, tag};
  }
  bool empty() const { return events_.empty(); }
  std::size_t size() const { return events_.size(); }
  void clear() { events_.clear(); }

 private:
  std::set<std::tuple<std::int64_t, std::uint64_t, std::uint32_t,
                      std::uint32_t>>
      events_;
};

/// Pops one event from each; success when both pop the same event.
testing::AssertionResult same_pop(FlatHeap4& flat, ReferenceQueue& reference) {
  if (flat.empty() || reference.empty()) {
    return testing::AssertionFailure()
           << "sizes differ: heap " << flat.size() << ", reference "
           << reference.size();
  }
  if (flat.min_at() != reference.peek_min().at) {
    return testing::AssertionFailure() << "min_at differs";
  }
  const QueuedEvent a = flat.pop_min();
  const QueuedEvent b = reference.pop_min();
  if (a.at != b.at || a.seq != b.seq || a.node != b.node || a.tag != b.tag) {
    return testing::AssertionFailure()
           << "heap popped (" << a.at.fs() << " fs, seq " << a.seq
           << "), reference (" << b.at.fs() << " fs, seq " << b.seq << ")";
  }
  return testing::AssertionSuccess();
}

}  // namespace

TEST(FlatHeap4Queue, OrderAndTieBreak) {
  FlatHeap4 queue;
  queue.push(ev(300, 0));
  queue.push(ev(100, 1));
  queue.push(ev(200, 2));
  EXPECT_EQ(queue.size(), 3u);
  EXPECT_EQ(queue.peek_min().at.fs(), 100);
  EXPECT_EQ(queue.pop_min().at.fs(), 100);
  EXPECT_EQ(queue.pop_min().at.fs(), 200);
  EXPECT_EQ(queue.pop_min().at.fs(), 300);
  EXPECT_TRUE(queue.empty());
  for (std::uint64_t seq = 0; seq < 20; ++seq) {
    queue.push(ev(5000, 19 - seq));
  }
  for (std::uint64_t seq = 0; seq < 20; ++seq) {
    EXPECT_EQ(queue.pop_min().seq, seq);
  }
  EXPECT_THROW(queue.pop_min(), PreconditionError);
}

TEST(FlatHeap4Queue, PreservesNodeAndTagPayload) {
  // The SoA layout packs (node, tag) into one word; round-trip both limits.
  FlatHeap4 queue;
  queue.push(QueuedEvent{Time::from_fs(10), 0, 0xFFFFFFFFu, 0u});
  queue.push(QueuedEvent{Time::from_fs(5), 1, 7u, 0xFFFFFFFFu});
  const QueuedEvent first = queue.pop_min();
  EXPECT_EQ(first.node, 7u);
  EXPECT_EQ(first.tag, 0xFFFFFFFFu);
  const QueuedEvent second = queue.pop_min();
  EXPECT_EQ(second.node, 0xFFFFFFFFu);
  EXPECT_EQ(second.tag, 0u);
}

TEST(EventQueues, ReserveDoesNotChangePopOrder) {
  // reserve() is a capacity hint only: a reserved heap must pop the exact
  // same (time, seq) sequence as an unreserved one and as the reference.
  FlatHeap4 plain, reserved;
  ReferenceQueue reference;
  reserved.reserve(4096);
  Xoshiro256 rng(23);
  std::uint64_t seq = 0;
  for (int i = 0; i < 4000; ++i) {
    const QueuedEvent event =
        ev(static_cast<std::int64_t>(rng.below(100000) * 50), seq++);
    plain.push(event);
    reserved.push(event);
    reference.push(event);
  }
  for (int step = 0; !reference.empty(); ++step) {
    ASSERT_EQ(plain.pop_min().seq, reference.peek_min().seq) << step;
    ASSERT_TRUE(same_pop(reserved, reference)) << "reserved " << step;
  }
  EXPECT_TRUE(plain.empty());
  EXPECT_TRUE(reserved.empty());
}

TEST(EventQueues, PopSequencesAreIdentical) {
  // Bulk push then drain, with clustered times so the seq tie-break decides
  // most pops; node and tag ride along and must come back with their event.
  FlatHeap4 flat;
  ReferenceQueue reference;
  Xoshiro256 rng(17);
  std::uint64_t seq = 0;
  for (int i = 0; i < 20000; ++i) {
    const auto t = static_cast<std::int64_t>(rng.below(5000) * 100);
    const QueuedEvent event{Time::from_fs(t), seq++,
                            static_cast<std::uint32_t>(rng.below(97)),
                            static_cast<std::uint32_t>(rng.next())};
    flat.push(event);
    reference.push(event);
  }
  for (int step = 0; !reference.empty(); ++step) {
    ASSERT_TRUE(same_pop(flat, reference)) << "drain " << step;
  }
  EXPECT_TRUE(flat.empty());
}

TEST(EventQueues, RandomizedWorkloadEquivalence) {
  // Property test: under an arbitrary interleaving of push / pop / clear /
  // reserve (the surface the kernel exercises), the heap and the reference
  // are observationally identical — same pop sequence, same sizes, same
  // emptiness. Fixed seeds keep the workloads reproducible.
  for (const std::uint64_t seed : {101u, 202u, 303u, 404u}) {
    FlatHeap4 flat;
    ReferenceQueue reference;
    Xoshiro256 rng(seed);
    std::uint64_t seq = 0;
    std::int64_t watermark = 0;  // kernel contract: never push before "now"
    for (int op = 0; op < 30000; ++op) {
      const std::uint64_t pick = rng.below(100);
      if (pick < 55) {
        // Push. Mostly clustered times (ties force the seq tie-break),
        // occasionally far ahead.
        const std::int64_t ahead =
            rng.below(10) == 0
                ? static_cast<std::int64_t>(rng.below(50'000'000))
                : static_cast<std::int64_t>(rng.below(500) * 100);
        const QueuedEvent event = ev(watermark + ahead, seq++);
        flat.push(event);
        reference.push(event);
      } else if (pick < 90) {
        ASSERT_EQ(flat.empty(), reference.empty());
        if (flat.empty()) continue;
        ASSERT_EQ(flat.peek_min().seq, reference.peek_min().seq);
        watermark = reference.peek_min().at.fs();
        ASSERT_TRUE(same_pop(flat, reference)) << "op " << op;
      } else if (pick < 96) {
        // Capacity hint mid-stream: must not disturb relative order.
        flat.reserve(1 + rng.below(5000));
      } else if (pick < 98) {
        flat.clear();
        reference.clear();
        ASSERT_TRUE(flat.empty());
        // Cleared queues restart from a fresh timeline (kernel reset_time).
        watermark = 0;
      } else {
        ASSERT_EQ(flat.size(), reference.size());
      }
    }
    // Drain whatever is left and compare to the end.
    for (int step = 0; !reference.empty(); ++step) {
      ASSERT_TRUE(same_pop(flat, reference)) << "tail " << step;
    }
    EXPECT_TRUE(flat.empty());
  }
}

TEST(EventQueues, HoldModelMatchesReference) {
  // Hold-model workloads — pop one event, push a few events at times >= the
  // popped time, how a simulated ring drives the queue — must pop the
  // reference's (time, seq) sequence, compared on every pop.
  for (const std::uint64_t seed : {11u, 222u, 3333u}) {
    FlatHeap4 flat;
    ReferenceQueue reference;
    Xoshiro256 rng(seed);
    std::uint64_t seq = 0;
    std::int64_t watermark = 0;
    const auto push_both = [&](std::int64_t fs) {
      const QueuedEvent event = ev(fs, seq++);
      flat.push(event);
      reference.push(event);
    };
    // Seed population: clustered times so ties force the seq tie-break.
    for (int i = 0; i < 512; ++i) {
      push_both(static_cast<std::int64_t>(rng.below(2000) * 100));
    }
    for (int round = 0; round < 20000; ++round) {
      ASSERT_EQ(flat.empty(), reference.empty());
      if (flat.empty()) break;
      ASSERT_GE(reference.peek_min().at.fs(), watermark);
      watermark = reference.peek_min().at.fs();
      ASSERT_TRUE(same_pop(flat, reference)) << "round " << round;
      // Hold model: reschedule 0-3 events at or after the popped time, with
      // occasional far-future jumps.
      const std::uint64_t pushes = rng.below(4);
      for (std::uint64_t p = 0; p < pushes; ++p) {
        const std::int64_t ahead =
            rng.below(20) == 0
                ? static_cast<std::int64_t>(rng.below(80'000'000))
                : static_cast<std::int64_t>(rng.below(900) * 50);
        push_both(watermark + ahead);
      }
    }
    // Drain to the end: the tails must agree too.
    for (int step = 0; !reference.empty(); ++step) {
      ASSERT_TRUE(same_pop(flat, reference)) << "tail " << step;
    }
    EXPECT_TRUE(flat.empty());
  }
}

TEST(EventQueues, ReserveMidstreamKeepsEquivalence) {
  // The reserve() path specifically: grow hints arriving while events are
  // pending (the heap reallocates both arrays) must preserve the pop order
  // against the reference.
  FlatHeap4 hinted;
  ReferenceQueue reference;
  Xoshiro256 rng(77);
  std::uint64_t seq = 0;
  for (int round = 0; round < 40; ++round) {
    for (int i = 0; i < 200; ++i) {
      const QueuedEvent event =
          ev(static_cast<std::int64_t>(rng.below(1'000'000)), seq++);
      hinted.push(event);
      reference.push(event);
    }
    // Escalating hints while half the events are still queued.
    hinted.reserve(static_cast<std::size_t>(round + 1) * 256);
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE(same_pop(hinted, reference)) << "round " << round;
    }
  }
  for (int step = 0; !reference.empty(); ++step) {
    ASSERT_TRUE(same_pop(hinted, reference)) << "tail " << step;
  }
  EXPECT_TRUE(hinted.empty());
}
