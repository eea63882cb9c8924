// Tests for the VCD reader (round-trip with the writer) and the ASCII
// waveform renderer.
#include <gtest/gtest.h>

#include <sstream>

#include "common/require.hpp"
#include "ring/str.hpp"
#include "sim/ascii_wave.hpp"
#include "sim/probe.hpp"
#include "sim/vcd.hpp"
#include "sim/vcd_read.hpp"

using namespace ringent;
using namespace ringent::literals;

namespace {

sim::SignalTrace make_clock(const char* name, Time half, std::size_t edges) {
  sim::SignalTrace trace(name);
  bool value = true;
  Time t = Time::zero();
  for (std::size_t i = 0; i < edges; ++i) {
    trace.record(t, value);
    value = !value;
    t += half;
  }
  return trace;
}

}  // namespace

TEST(VcdRoundTrip, WriterOutputParsesBackExactly) {
  const auto clk = make_clock("clk", 500_ps, 40);
  const auto data = make_clock("data", 700_ps, 30);

  sim::VcdWriter writer("dut");
  writer.add_signal(clk);
  writer.add_signal(data);
  std::ostringstream out;
  writer.write(out);

  std::istringstream in(out.str());
  const auto doc = sim::read_vcd(in);
  EXPECT_EQ(doc.module_name, "dut");
  EXPECT_EQ(doc.timescale_fs, 1);
  ASSERT_EQ(doc.signals.size(), 2u);
  EXPECT_EQ(doc.signals[0].name, "clk");
  EXPECT_EQ(doc.signals[1].name, "data");

  const auto& parsed = doc.signals[0].trace.transitions();
  const auto& original = clk.transitions();
  ASSERT_EQ(parsed.size(), original.size());
  for (std::size_t i = 0; i < parsed.size(); ++i) {
    EXPECT_EQ(parsed[i].at.fs(), original[i].at.fs());
    EXPECT_EQ(parsed[i].value, original[i].value);
  }
}

TEST(VcdRoundTrip, RingWaveformRoundTrips) {
  ring::StrConfig config;
  config.stages = 8;
  config.charlie = ring::CharlieParams::symmetric(260_ps, 123_ps);
  config.trace_all_stages = true;
  ring::Str str(config,
                ring::make_initial_state(8, 4, ring::TokenPlacement::clustered),
                {});
  str.start();
  str.run_until(Time::from_ns(40.0));

  sim::VcdWriter writer("ring");
  for (const auto& trace : str.stage_traces()) writer.add_signal(trace);
  std::ostringstream out;
  writer.write(out);
  std::istringstream in(out.str());
  const auto doc = sim::read_vcd(in);
  ASSERT_EQ(doc.signals.size(), 8u);
  std::size_t total = 0;
  for (const auto& sig : doc.signals) {
    total += sig.trace.transitions().size();
  }
  EXPECT_EQ(total, str.events_fired());
}

TEST(VcdReader, ParsesForeignTimescalesAndSkipsMetadata) {
  const std::string vcd =
      "$date today $end\n"
      "$version some tool $end\n"
      "$timescale 10 ps $end\n"
      "$scope module top $end\n"
      "$var wire 1 ! sig $end\n"
      "$upscope $end\n"
      "$enddefinitions $end\n"
      "$dumpvars\nx!\n$end\n"
      "#0\n1!\n#5\n0!\n#12\n1!\n";
  std::istringstream in(vcd);
  const auto doc = sim::read_vcd(in);
  EXPECT_EQ(doc.timescale_fs, 10'000);
  ASSERT_EQ(doc.signals.size(), 1u);
  const auto& tr = doc.signals[0].trace.transitions();
  ASSERT_EQ(tr.size(), 3u);
  EXPECT_EQ(tr[1].at.fs(), 50'000);  // 5 units * 10 ps
  EXPECT_FALSE(tr[1].value);
}

TEST(VcdReader, RejectsVectorsAndGarbage) {
  const std::string vec =
      "$timescale 1fs $end\n$scope module m $end\n"
      "$var wire 8 ! bus $end\n$upscope $end\n$enddefinitions $end\n";
  std::istringstream in(vec);
  EXPECT_THROW(sim::read_vcd(in), Error);

  std::istringstream nonsense("hello world");
  EXPECT_THROW(sim::read_vcd(nonsense), Error);

  EXPECT_THROW(sim::read_vcd_file("/nonexistent/file.vcd"), Error);
}

TEST(AsciiWave, RendersLevelsAndEdges) {
  const auto clk = make_clock("clk", 500_ps, 8);  // high/low 500 ps each
  sim::AsciiWaveOptions options;
  options.from = Time::zero();
  options.to = Time::from_ps(4000.0);
  options.columns = 32;
  const std::string art = sim::ascii_wave(clk, options);
  // 8 columns per half period: levels and transitions both present.
  EXPECT_NE(art.find('-'), std::string::npos);
  EXPECT_NE(art.find('_'), std::string::npos);
  EXPECT_NE(art.find('\\'), std::string::npos);
  EXPECT_NE(art.find('/'), std::string::npos);
  EXPECT_NE(art.find("clk"), std::string::npos);
  EXPECT_NE(art.find("ns"), std::string::npos);  // time ruler
}

TEST(AsciiWave, MultipleSignalsAlignAndUnknownPrefixShows) {
  sim::SignalTrace late("late");
  late.record(Time::from_ps(2000.0), true);
  const auto clk = make_clock("c", 500_ps, 10);
  sim::AsciiWaveOptions options;
  options.from = Time::zero();
  options.to = Time::from_ps(4000.0);
  options.columns = 16;
  const std::string art = sim::ascii_waves({&clk, &late}, options);
  // The late signal is unknown ('?') for the first half of the window.
  EXPECT_NE(art.find('?'), std::string::npos);
  // Two signal rows + ruler.
  EXPECT_EQ(std::count(art.begin(), art.end(), '\n'), 3);
}

TEST(AsciiWave, Preconditions) {
  const auto clk = make_clock("c", 500_ps, 4);
  sim::AsciiWaveOptions bad;
  bad.columns = 2;
  EXPECT_THROW(sim::ascii_wave(clk, bad), PreconditionError);
  EXPECT_THROW(sim::ascii_waves({}, {}), PreconditionError);
}
