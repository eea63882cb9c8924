// Unit tests for sim/ (probes, VCD writer) and for the generic event kernel
// of the reference simulator (tests/reference_sim.hpp) that
// tests/test_ring_oracle.cpp holds the ring-owned event loops against: its
// ordering contract is what makes it a reference.
#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "common/require.hpp"
#include "reference_sim.hpp"
#include "sim/probe.hpp"
#include "sim/vcd.hpp"

using namespace ringent;
using namespace ringent::literals;
using reference::Kernel;
using sim::SignalTrace;

namespace {

/// Records (fire time, tag) pairs; optionally reschedules itself.
class Recorder final : public reference::Process {
 public:
  void fire(Kernel& kernel, std::uint32_t tag) override {
    log.emplace_back(kernel.now(), tag);
  }
  std::vector<std::pair<Time, std::uint32_t>> log;
};

}  // namespace

TEST(Kernel, FiresInTimeOrder) {
  Kernel kernel;
  Recorder rec;
  const auto id = kernel.add_process(&rec);
  kernel.schedule_in(30_ps, id, 3);
  kernel.schedule_in(10_ps, id, 1);
  kernel.schedule_in(20_ps, id, 2);
  kernel.run_until(1_ns);
  ASSERT_EQ(rec.log.size(), 3u);
  EXPECT_EQ(rec.log[0], std::make_pair(10_ps, 1u));
  EXPECT_EQ(rec.log[1], std::make_pair(20_ps, 2u));
  EXPECT_EQ(rec.log[2], std::make_pair(30_ps, 3u));
  EXPECT_EQ(kernel.events_fired(), 3u);
}

TEST(Kernel, TieBreaksInScheduleOrder) {
  Kernel kernel;
  Recorder rec;
  const auto id = kernel.add_process(&rec);
  for (std::uint32_t tag = 0; tag < 50; ++tag) {
    kernel.schedule_at(5_ps, id, tag);
  }
  kernel.run_until(5_ps);
  ASSERT_EQ(rec.log.size(), 50u);
  for (std::uint32_t tag = 0; tag < 50; ++tag) {
    EXPECT_EQ(rec.log[tag].second, tag);
  }
}

TEST(Kernel, RunUntilAdvancesClockToHorizon) {
  Kernel kernel;
  Recorder rec;
  const auto id = kernel.add_process(&rec);
  kernel.schedule_in(100_ps, id, 0);
  EXPECT_EQ(kernel.run_until(50_ps), 0u);
  EXPECT_EQ(kernel.now(), 50_ps);
  EXPECT_FALSE(kernel.idle());
  EXPECT_EQ(kernel.run_until(100_ps), 1u);  // events at the horizon fire
  EXPECT_TRUE(kernel.idle());
}

TEST(Kernel, RunEventsBounded) {
  Kernel kernel;
  Recorder rec;
  const auto id = kernel.add_process(&rec);
  for (int i = 1; i <= 10; ++i) kernel.schedule_in(Time::from_ps(i), id, i);
  EXPECT_EQ(kernel.run_events(4), 4u);
  EXPECT_EQ(rec.log.size(), 4u);
  EXPECT_EQ(kernel.run_events(100), 6u);
}

TEST(Kernel, ZeroDelaySelfScheduleRunsAfterPeers) {
  // A process that schedules a zero-delay event must not starve peers at the
  // same timestamp that were scheduled earlier.
  class Chainer final : public reference::Process {
   public:
    explicit Chainer(std::vector<int>& order) : order_(order) {}
    void fire(Kernel& kernel, std::uint32_t tag) override {
      order_.push_back(static_cast<int>(tag));
      if (tag == 0) kernel.schedule_in(0_fs, self, 99);
    }
    reference::NodeId self = reference::invalid_node;

   private:
    std::vector<int>& order_;
  };
  std::vector<int> order;
  Kernel kernel;
  Chainer chain(order);
  chain.self = kernel.add_process(&chain);
  kernel.schedule_at(1_ps, chain.self, 0);
  kernel.schedule_at(1_ps, chain.self, 1);
  kernel.run_until(2_ps);
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 0);
  EXPECT_EQ(order[1], 1);   // pre-existing same-time event first
  EXPECT_EQ(order[2], 99);  // zero-delay chained event after
}

TEST(Kernel, PreconditionsThrow) {
  Kernel kernel;
  Recorder rec;
  const auto id = kernel.add_process(&rec);
  EXPECT_THROW(kernel.add_process(nullptr), PreconditionError);
  EXPECT_THROW(kernel.schedule_in(-1_ps, id), PreconditionError);
  EXPECT_THROW(kernel.schedule_in(1_ps, id + 1), PreconditionError);
  kernel.schedule_in(10_ps, id);
  kernel.run_until(20_ps);
  EXPECT_THROW(kernel.schedule_at(5_ps, id), PreconditionError);
  EXPECT_THROW(kernel.schedule_in(Time::max(), id), PreconditionError);
  EXPECT_THROW(kernel.run_until(10_ps), PreconditionError);
}

TEST(Kernel, ResetTimeKeepsProcesses) {
  Kernel kernel;
  Recorder rec;
  const auto id = kernel.add_process(&rec);
  kernel.schedule_in(10_ps, id, 0);
  kernel.run_until(10_ps);
  kernel.reset_time();
  EXPECT_EQ(kernel.now(), Time::zero());
  EXPECT_TRUE(kernel.idle());
  kernel.schedule_in(5_ps, id, 7);  // same node id still valid
  kernel.run_until(5_ps);
  EXPECT_EQ(rec.log.back().second, 7u);
}

// --- SignalTrace ------------------------------------------------------------

TEST(SignalTrace, RecordsAndSplitsEdges) {
  SignalTrace trace("sig");
  trace.record(10_ps, true);
  trace.record(20_ps, false);
  trace.record(30_ps, true);
  trace.record(45_ps, false);
  EXPECT_EQ(trace.transitions().size(), 4u);
  EXPECT_EQ(trace.rising_edges(), (std::vector<Time>{10_ps, 30_ps}));
  EXPECT_EQ(trace.falling_edges(), (std::vector<Time>{20_ps, 45_ps}));
  EXPECT_EQ(trace.total_seen(), 4u);
}

TEST(SignalTrace, WarmupSkipsEarlyTransitions) {
  SignalTrace trace;
  trace.set_record_from(15_ps);
  trace.record(10_ps, true);
  trace.record(20_ps, false);
  EXPECT_EQ(trace.transitions().size(), 1u);
  EXPECT_EQ(trace.total_seen(), 2u);
}

TEST(SignalTrace, MaxRecordsCap) {
  SignalTrace trace;
  trace.set_max_records(3);
  for (int i = 1; i <= 10; ++i) {
    trace.record(Time::from_ps(i), i % 2 == 1);
  }
  EXPECT_EQ(trace.transitions().size(), 3u);
  EXPECT_TRUE(trace.full());
  EXPECT_EQ(trace.total_seen(), 10u);
}

TEST(SignalTrace, RejectsOutOfOrderTimestamps) {
  SignalTrace trace;
  trace.record(10_ps, true);
  EXPECT_THROW(trace.record(5_ps, false), PreconditionError);
  trace.record(10_ps, false);  // equal timestamps are allowed
}

TEST(SignalTrace, ClearResets) {
  SignalTrace trace;
  trace.record(10_ps, true);
  trace.clear();
  EXPECT_TRUE(trace.transitions().empty());
  EXPECT_EQ(trace.total_seen(), 0u);
  trace.record(5_ps, true);  // earlier timestamps fine after clear
}

TEST(EdgeIntervals, Differences) {
  EXPECT_TRUE(sim::edge_intervals({}).empty());
  EXPECT_TRUE(sim::edge_intervals({10_ps}).empty());
  EXPECT_EQ(sim::edge_intervals({10_ps, 30_ps, 60_ps}),
            (std::vector<Time>{20_ps, 30_ps}));
}

// --- VCD --------------------------------------------------------------------

TEST(Vcd, WritesWellFormedDump) {
  SignalTrace a("clk"), b("data");
  a.record(0_fs, true);
  a.record(500_fs, false);
  b.record(250_fs, true);
  sim::VcdWriter vcd("testbench");
  vcd.add_signal(a);
  vcd.add_signal(b);
  std::ostringstream os;
  vcd.write(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("$timescale 1fs $end"), std::string::npos);
  EXPECT_NE(out.find("$scope module testbench $end"), std::string::npos);
  EXPECT_NE(out.find("$var wire 1 ! clk $end"), std::string::npos);
  EXPECT_NE(out.find("$var wire 1 \" data $end"), std::string::npos);
  EXPECT_NE(out.find("#0\n1!"), std::string::npos);
  EXPECT_NE(out.find("#250\n1\""), std::string::npos);
  EXPECT_NE(out.find("#500\n0!"), std::string::npos);
  // Initial dumpvars marks both signals unknown.
  EXPECT_NE(out.find("x!"), std::string::npos);
  EXPECT_NE(out.find("x\""), std::string::npos);
}

TEST(Vcd, MergesSimultaneousChangesUnderOneTimestamp) {
  SignalTrace a("a"), b("b");
  a.record(100_fs, true);
  b.record(100_fs, true);
  sim::VcdWriter vcd;
  vcd.add_signal(a);
  vcd.add_signal(b);
  std::ostringstream os;
  vcd.write(os);
  const std::string out = os.str();
  // Only one "#100" header for both changes.
  const auto first = out.find("#100");
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(out.find("#100", first + 1), std::string::npos);
}
