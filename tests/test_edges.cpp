// Cross-module edge cases that the per-module suites do not reach:
// boundary values, odd sizes, and interface corners.
#include <gtest/gtest.h>

#include <sstream>

#include "analysis/histogram.hpp"
#include "analysis/periods.hpp"
#include "common/require.hpp"
#include "common/rng.hpp"
#include "common/time.hpp"
#include "measure/frequency.hpp"
#include "ring/analytic.hpp"
#include "ring/str.hpp"
#include "reference_sim.hpp"
#include "sim/vcd.hpp"
#include "sim/vcd_read.hpp"
#include "trng/postproc.hpp"

using namespace ringent;
using namespace ringent::literals;

TEST(TimeEdges, ScalingNegativeAndLargeValues) {
  EXPECT_EQ((-10_ps).scaled(0.5).fs(), -5000);
  EXPECT_EQ((10_ps).scaled(-1.0).fs(), -10000);
  // A 1 ms duration scaled by 1e3 stays exact in int64 femtoseconds.
  EXPECT_EQ(Time::from_ms(1.0).scaled(1000.0).fs(), 1'000'000'000'000'000);
  EXPECT_DOUBLE_EQ(Time::from_seconds(2.5e-3).seconds(), 2.5e-3);
}

TEST(HistogramEdges, AutoBinnedRejectsDegenerateData) {
  EXPECT_THROW(analysis::Histogram::auto_binned(std::vector<double>{}),
               PreconditionError);
  EXPECT_THROW(
      analysis::Histogram::auto_binned(std::vector<double>(100, 7.0)),
      PreconditionError);
  // Values exactly at the top edge land in overflow by the [lo, hi) rule.
  analysis::Histogram h(0.0, 10.0, 10);
  h.add(10.0);
  EXPECT_EQ(h.overflow(), 1u);
  h.add(std::nextafter(10.0, 0.0));
  EXPECT_EQ(h.count(9), 1u);
}

TEST(VcdEdges, ManySignalsUseMultiCharacterCodes) {
  // 100 signals exceed the 94 printable single-character codes; the writer
  // must emit two-character codes that the reader resolves.
  std::vector<sim::SignalTrace> traces;
  traces.reserve(100);
  for (int i = 0; i < 100; ++i) {
    traces.emplace_back("s" + std::to_string(i));
    traces.back().record(Time::from_ps(10.0 * (i + 1)), i % 2 == 0);
  }
  sim::VcdWriter writer("wide");
  for (const auto& trace : traces) writer.add_signal(trace);
  std::ostringstream out;
  writer.write(out);
  std::istringstream in(out.str());
  const auto doc = sim::read_vcd(in);
  ASSERT_EQ(doc.signals.size(), 100u);
  EXPECT_EQ(doc.signals[99].name, "s99");
  ASSERT_EQ(doc.signals[99].trace.transitions().size(), 1u);
  EXPECT_EQ(doc.signals[99].trace.transitions()[0].at.fs(), 1'000'000);
}

// KernelEdges: the reference simulator's event kernel (tests/reference_sim.hpp).
TEST(KernelEdges, EventsAtHorizonFireAndClockLandsOnHorizon) {
  class Counter final : public reference::Process {
   public:
    void fire(reference::Kernel&, std::uint32_t) override { ++count; }
    int count = 0;
  };
  reference::Kernel kernel;
  Counter counter;
  const auto id = kernel.add_process(&counter);
  kernel.schedule_at(100_ps, id);
  kernel.schedule_at(Time::from_fs(100'001), id);
  kernel.run_until(100_ps);
  EXPECT_EQ(counter.count, 1);       // exactly-at-horizon fires
  EXPECT_EQ(kernel.now(), 100_ps);   // clock parks on the horizon
  kernel.run_until(Time::from_ns(1.0));
  EXPECT_EQ(counter.count, 2);
}

TEST(KernelEdges, ResetAllowsFreshSchedules) {
  class Nop final : public reference::Process {
   public:
    void fire(reference::Kernel&, std::uint32_t) override {}
  };
  reference::Kernel kernel;
  Nop nop;
  const auto id = kernel.add_process(&nop);
  kernel.schedule_in(1_ns, id);
  kernel.run_until(2_ns);
  kernel.reset_time();
  kernel.schedule_in(1_ps, id);  // would be "in the past" without reset
  EXPECT_EQ(kernel.run_until(1_ps), 1u);
}

TEST(FrequencyEdges, GateWithNoEdgesReadsZero) {
  const std::vector<Time> edges = {1_ns, 2_ns, 3_ns};
  EXPECT_DOUBLE_EQ(
      measure::gated_frequency_mhz(edges, Time::from_us(1.0),
                                   Time::from_us(1.0)),
      0.0);
}

TEST(PostprocEdges, OddLengthInputsDropTheTail) {
  const std::vector<std::uint8_t> bits = {1, 0, 1};  // one pair + tail
  EXPECT_EQ(trng::von_neumann(bits), (std::vector<std::uint8_t>{1}));
  EXPECT_EQ(trng::peres(bits, 4).size(), trng::peres(bits, 4).size());
}

TEST(AnalyticEdges, RoutingCaseMatchesSimulationToo) {
  // The closed form with a routed stage (the sec5a configuration).
  const ring::CharlieParams params =
      ring::CharlieParams::symmetric(260_ps, 123_ps);
  const Time routing = Time::from_ps(206.0);
  const auto pred = ring::predict_steady_state(params, routing, 32, 10);
  ring::StrConfig config;
  config.stages = 32;
  config.charlie = params;
  config.routing_per_hop = routing;
  ring::Str str(config,
                ring::make_initial_state(32, 10,
                                         ring::TokenPlacement::evenly_spread),
                {});
  str.output().set_record_from(Time::from_ns(500.0));
  str.start();
  str.run_until(Time::from_us(6.0));
  const auto periods = analysis::periods_ps(str.output());
  ASSERT_GE(periods.size(), 50u);
  double mean = 0.0;
  for (double p : periods) mean += p;
  mean /= static_cast<double>(periods.size());
  EXPECT_NEAR(mean / pred.period.ps(), 1.0, 0.005);
}

TEST(RngEdges, BelowHandlesPowerAndNonPowerRanges) {
  Xoshiro256 rng(5);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.below(1), 1u);  // always 0
    EXPECT_LT(rng.below(3), 3u);
    EXPECT_LT(rng.below(1ULL << 63), 1ULL << 63);
  }
}
