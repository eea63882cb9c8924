// Tests of the benchmark itself: its percentile and span self-time
// arithmetic, and that the correctness gate trips on a corrupted cell or
// stream byte. Run with `python3 e2ebench/run.py --selftest`.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "campaign/runner.hpp"
#include "gate.hpp"
#include "util.hpp"
#include "workloads.hpp"

namespace e2ebench {
namespace {

namespace fs = std::filesystem;

/// A scratch directory under $TMPDIR (run.py points it into the build
/// directory), removed afterwards; run manifests of executed cells land
/// inside it too.
class ScratchDir {
 public:
  ScratchDir()
      : path_(fs::temp_directory_path() /
              ("e2ebench-selftest-" + std::to_string(::getpid()))) {
    fs::remove_all(path_);
    fs::create_directories(path_ / "manifests");
    setenv("RINGENT_OUT_DIR", (path_ / "manifests").c_str(), 1);
  }
  ~ScratchDir() { fs::remove_all(path_); }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  std::string sub(const std::string& name) const {
    return (path_ / name).string();
  }

 private:
  fs::path path_;
};

TEST(Percentile, InterpolatesBetweenClosestRanks) {
  EXPECT_DOUBLE_EQ(percentile({4, 1, 3, 2}, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(percentile({4, 1, 3, 2}, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile({4, 1, 3, 2}, 1.0), 4.0);
  std::vector<double> ramp;
  for (int i = 1; i <= 11; ++i) ramp.push_back(i);
  EXPECT_DOUBLE_EQ(percentile(ramp, 0.9), 10.0);
  EXPECT_DOUBLE_EQ(percentile(ramp, 0.95), 10.5);
  EXPECT_DOUBLE_EQ(median({7.0}), 7.0);
  EXPECT_DOUBLE_EQ(median({1, 2, 3}), 2.0);
}

TEST(Percentile, RejectsEmptyAndOutOfRange) {
  EXPECT_THROW(percentile({}, 0.5), std::invalid_argument);
  EXPECT_THROW(percentile({1.0}, 1.5), std::invalid_argument);
  EXPECT_THROW(percentile({1.0}, -0.1), std::invalid_argument);
}

TEST(Percentile, CountsSamplesBeyondTheTail) {
  std::vector<double> values;
  for (int i = 0; i < 1000; ++i) values.push_back(i);
  EXPECT_EQ(samples_beyond(values, 0.99), 10u);
  EXPECT_EQ(samples_beyond(values, 0.90), 100u);
  EXPECT_EQ(samples_beyond({5, 5, 5}, 0.5), 0u);
}

TEST(Spans, SelfTimeSubtractsTheUnionOfChildren) {
  SpanRecorder spans;
  const int root = spans.add("root", -1, 0.0, 10.0);
  spans.add("a", root, 1.0, 3.0);
  const int b = spans.add("b", root, 2.0, 5.0);  // overlaps a
  spans.add("c", root, 7.0, 8.0);
  spans.add("b.child", b, 2.5, 4.0);  // does not touch root's self time
  const std::vector<double> self = spans.self_times_s();
  EXPECT_DOUBLE_EQ(self[0], 10.0 - 4.0 - 1.0);
  EXPECT_DOUBLE_EQ(self[1], 2.0);
  EXPECT_DOUBLE_EQ(self[2], 3.0 - 1.5);
  EXPECT_DOUBLE_EQ(self[3], 1.0);
  EXPECT_DOUBLE_EQ(self[4], 1.5);
}

TEST(Spans, SelfTimesOfATilingTreeAddUpToTheRoot) {
  SpanRecorder spans;
  const int root = spans.add("root", -1, 0.0, 10.0);
  const int a = spans.add("a", root, 0.0, 6.0);
  spans.add("a.1", a, 1.0, 2.0);
  spans.add("a.2", a, 2.0, 5.5);
  spans.add("b", root, 6.5, 10.0);
  double sum = 0.0;
  for (const double s : spans.self_times_s()) sum += s;
  EXPECT_DOUBLE_EQ(sum, 10.0);
  EXPECT_DOUBLE_EQ(spans.self_times_s()[0], 0.5);
}

TEST(Spans, ChildrenAreClippedToTheParent) {
  SpanRecorder spans;
  const int root = spans.add("root", -1, 0.0, 4.0);
  spans.add("late", root, 3.0, 9.0);
  spans.add("early", root, -2.0, 1.0);
  EXPECT_DOUBLE_EQ(spans.self_times_s()[0], 2.0);
}

TEST(Spans, ParentMustExist) {
  SpanRecorder spans;
  EXPECT_THROW(spans.add("orphan", 3, 0.0, 1.0), std::invalid_argument);
}

TEST(Gate, CorruptedCellTripsTheGate) {
  const ScratchDir scratch;
  const CampaignSetup setup = setup_campaign(probe_plan(5), scratch.sub("store"));
  const PassResult pass = run_pass(setup, 2);
  ASSERT_EQ(pass.executed, setup.cells.size());
  const CellTable clean = load_cell_table(setup.cells, *setup.store);
  ASSERT_EQ(clean.size(), setup.cells.size());

  Gate ok;
  EXPECT_EQ(ok.check_verify(
                ringent::campaign::verify_campaign(setup.plan, *setup.store),
                "clean"),
            0u);
  EXPECT_EQ(ok.check_cells(clean, clean, "clean"), 0u);
  EXPECT_TRUE(ok.ok());

  // A record whose counters moved but whose identity (and so its content
  // key) did not: the store still verifies, the pinned table must not.
  const std::string& key = setup.cells.front().key;
  ringent::campaign::CellRecord record = *setup.store->load(key);
  record.manifest.metrics.counters[static_cast<std::size_t>(
      ringent::sim::metrics::Counter::events_fired)] += 1;
  setup.store->put(record);
  Gate moved;
  EXPECT_EQ(moved.check_verify(
                ringent::campaign::verify_campaign(setup.plan, *setup.store),
                "moved"),
            0u);
  EXPECT_EQ(moved.check_cells(load_cell_table(setup.cells, *setup.store),
                              clean, "moved"),
            1u);
  EXPECT_FALSE(moved.ok());

  // One flipped byte in a cell file: the record becomes torn.
  const std::string path = setup.store->cell_path(setup.cells.back().key);
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  ASSERT_GT(bytes.size(), 40u);
  bytes[bytes.size() / 2] ^= 0x20;
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
  Gate torn;
  EXPECT_EQ(torn.check_verify(
                ringent::campaign::verify_campaign(setup.plan, *setup.store),
                "torn"),
            1u);
  EXPECT_GE(torn.check_cells(load_cell_table(setup.cells, *setup.store),
                             clean, "torn"),
            1u);
  EXPECT_FALSE(torn.ok());
}

TEST(Gate, CorruptedStreamByteTripsTheGate) {
  StreamConfig config;
  config.seed = 9;
  config.raw_bits_per_slot = 1u << 16;
  config.keep_bytes = true;
  const StreamRound round = drain_stream(config);
  Gate gate;
  EXPECT_EQ(check_round(round, gate), 0u);
  ASSERT_EQ(round.stream.size(), round.bytes);
  ASSERT_GT(round.bytes, 0u);
  EXPECT_EQ(fnv1a(round.stream), round.pin.fnv);

  config.workers = 1;
  const StreamRound reference = drain_stream(config);
  EXPECT_TRUE(gate.check_stream(round.pin, reference.pin, "1-worker"));
  EXPECT_TRUE(gate.ok());

  std::vector<std::uint8_t> corrupted = round.stream;
  corrupted[corrupted.size() / 3] ^= 0x01;
  const StreamPin bad{fnv1a(corrupted), corrupted.size()};
  EXPECT_FALSE(gate.check_stream(bad, reference.pin, "corrupted"));
  EXPECT_FALSE(gate.ok());
}

TEST(Pins, FragmentsRoundTripThroughTheFile) {
  const ScratchDir scratch;
  CellTable table;
  table["a"] = std::vector<std::uint64_t>(pinned_counters().size(), 3);
  table["b"] = std::vector<std::uint64_t>(pinned_counters().size(), 7);
  Json counters = Json::array();
  for (const auto counter : pinned_counters()) {
    counters.push_back(
        std::string(ringent::sim::metrics::counter_name(counter)));
  }
  Json by_seed = Json::object();
  by_seed.set("4", Pins::cells_fragment(table));
  Json stream_seed = Json::object();
  stream_seed.set("4", Pins::stream_fragment({0xfeedfacecafebeefull, 99}));
  Json doc = Json::object();
  doc.set("counters", counters);
  doc.set("campaign_sim", by_seed);
  doc.set("service_stream", stream_seed);
  const std::string path = scratch.sub("pins.json");
  std::ofstream(path) << doc.dump();

  const Pins pins = Pins::load(path);
  EXPECT_EQ(pins.cells("campaign_sim", 4), table);
  EXPECT_FALSE(pins.cells("campaign_sim", 5).has_value());
  EXPECT_FALSE(pins.cells("campaign_store", 4).has_value());
  EXPECT_EQ(pins.stream(4), (StreamPin{0xfeedfacecafebeefull, 99}));
  EXPECT_FALSE(pins.stream(1).has_value());
}

}  // namespace
}  // namespace e2ebench
