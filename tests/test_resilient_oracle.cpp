// Oracle for the chunked degradation machine: trng::ResilientGenerator,
// which advances quiet stretches of up to 64 raw bits at once, against the
// per-bit reference in tests/reference_resilient.hpp.
//
// Each scenario builds the same sources twice, drives both generators with
// the same random sequence of generate() and fill_bytes() calls (random
// output sizes and raw budgets, so call boundaries land everywhere) and
// compares what every call returned (bits, or bytes plus the carried
// partial-byte count), then the state, ResilientStats and the transition
// log. Each
// scenario runs three ways: with no observation scope (the chunked path),
// in a scope collecting metrics (chunked, counters compared) and in a scope
// collecting histograms with a StreamingEntropy attached (every bit stepped
// alone; histograms and stream stats compared).
//
// The word-at-a-time RCT/APT advance() is held to per-bit feed() on random
// words that cross window boundaries and alarm mid-word.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "reference_resilient.hpp"
#include "service/pool.hpp"
#include "sim/metrics.hpp"
#include "sim/observe.hpp"
#include "sim/telemetry.hpp"
#include "trng/health.hpp"
#include "trng/resilient.hpp"
#include "trng/telemetry.hpp"

using namespace ringent;
using namespace ringent::trng;

namespace {

namespace metrics = sim::metrics;
namespace histo = sim::telemetry;

/// Random bits with ones probability `p_one`; before each bit a run of
/// `run_min..run_max` copies of one random value starts with probability
/// `run_chance`, and raw-bit indices in [stuck_from, stuck_to) read 1.
/// restart() reseeds from the attempt but keeps the index running (a
/// power-cycle does not rewind a scripted fault).
struct Script {
  double p_one = 0.5;
  double run_chance = 0.0;
  std::uint32_t run_min = 0;
  std::uint32_t run_max = 0;
  std::uint64_t stuck_from = 0;
  std::uint64_t stuck_to = 0;
};

class ScriptedSource final : public BitSource {
 public:
  ScriptedSource(std::uint64_t seed, Script script)
      : seed_(seed), script_(script), rng_(seed) {}

  std::uint8_t next_bit() override {
    const std::uint64_t i = index_++;
    if (i >= script_.stuck_from && i < script_.stuck_to) return 1;
    if (run_left_ == 0 && script_.run_chance > 0.0 &&
        rng_.uniform01() < script_.run_chance) {
      run_left_ = script_.run_min +
                  static_cast<std::uint32_t>(
                      rng_.next() % (script_.run_max - script_.run_min + 1));
      run_bit_ = static_cast<std::uint8_t>(rng_.next() & 1u);
    }
    if (run_left_ > 0) {
      --run_left_;
      return run_bit_;
    }
    return static_cast<std::uint8_t>(rng_.uniform01() < script_.p_one);
  }

  void restart(std::uint64_t attempt) override {
    rng_ = Xoshiro256(derive_seed(seed_, "restart", attempt));
    run_left_ = 0;
  }

 private:
  std::uint64_t seed_;
  Script script_;
  Xoshiro256 rng_;
  std::uint64_t index_ = 0;
  std::uint32_t run_left_ = 0;
  std::uint8_t run_bit_ = 0;
};

class StuckSource final : public BitSource {
 public:
  std::uint8_t next_bit() override { return 1; }
};

struct Sources {
  std::unique_ptr<BitSource> primary;
  std::unique_ptr<BitSource> backup;
};

struct Scenario {
  std::string name;
  DegradationPolicy policy;
  std::function<Sources()> make;
  std::uint64_t raw_bits = 200'000;  ///< rough total pulled per run
};

enum class Mode { plain, metrics, histograms };

void expect_same_stats(const ResilientStats& a, const ResilientStats& b) {
  EXPECT_EQ(a.bits_in, b.bits_in);
  EXPECT_EQ(a.bits_out, b.bits_out);
  EXPECT_EQ(a.bits_muted, b.bits_muted);
  EXPECT_EQ(a.rct_alarms, b.rct_alarms);
  EXPECT_EQ(a.apt_alarms, b.apt_alarms);
  EXPECT_EQ(a.relock_attempts, b.relock_attempts);
  EXPECT_EQ(a.failovers, b.failovers);
  EXPECT_EQ(a.strikes, b.strikes);
  EXPECT_EQ(a.alarmed, b.alarmed);
  EXPECT_EQ(a.first_alarm_bit, b.first_alarm_bit);
  EXPECT_EQ(a.recovered, b.recovered);
  EXPECT_EQ(a.recovered_bit, b.recovered_bit);
}

void expect_same_transitions(const std::vector<StateTransition>& a,
                             const std::vector<StateTransition>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].from, b[i].from) << "edge " << i;
    EXPECT_EQ(a[i].to, b[i].to) << "edge " << i;
    EXPECT_EQ(a[i].at_bit, b[i].at_bit) << "edge " << i;
    EXPECT_EQ(a[i].reason, b[i].reason) << "edge " << i;
  }
}

struct Outcome {
  ResilientStats stats;
  std::vector<StateTransition> transitions;
  metrics::Snapshot counters;
  histo::Snapshot histograms;
  std::uint64_t stream_bits = 0;
  double stream_bias = 0.0;
  double stream_markov = 0.0;
};

/// Drive both generators through the same random call sequence and compare
/// every call's output; returns what each observed.
std::pair<Outcome, Outcome> drive(const Scenario& scenario, Mode mode,
                                  std::uint64_t seed) {
  Sources chunked_sources = scenario.make();
  Sources reference_sources = scenario.make();
  ResilientGenerator chunked(*chunked_sources.primary,
                             chunked_sources.backup.get(), scenario.policy);
  reference::ResilientGenerator ref(*reference_sources.primary,
                                    reference_sources.backup.get(),
                                    scenario.policy);
  telemetry::StreamingEntropy chunked_stream, reference_stream;
  if (mode == Mode::histograms) {
    chunked.attach_telemetry(&chunked_stream);
    ref.attach_telemetry(&reference_stream);
  }
  const sim::Collect collect{.metrics = mode != Mode::plain,
                             .histograms = mode == Mode::histograms};

  Xoshiro256 rng(seed);
  auto run = [&](auto& gen, std::vector<std::vector<std::uint8_t>>& log) {
    // Replays the call sequence below from the same rng state.
    Xoshiro256 calls = rng;
    std::uint64_t pulled = 0;
    while (pulled < scenario.raw_bits) {
      const std::uint64_t before = gen.stats().bits_in;
      if (calls.next() % 3 == 0) {
        const std::size_t raw = calls.next() % 3000;
        log.push_back(gen.generate(raw));
      } else {
        std::vector<std::uint8_t> out(calls.next() % 300);
        const std::size_t raw = calls.next() % 6000;
        out.resize(gen.fill_bytes(out, raw));
        out.push_back(static_cast<std::uint8_t>(gen.pending_bits()));
        log.push_back(std::move(out));
      }
      // A latched generator pulls nothing more: count the call anyway.
      pulled += std::max<std::uint64_t>(gen.stats().bits_in - before, 500);
    }
  };

  std::vector<std::vector<std::uint8_t>> chunked_log, reference_log;
  Outcome a, b;
  {
    const sim::Scope scope(collect, nullptr);
    run(chunked, chunked_log);
    a.counters = scope.metrics();
    a.histograms = scope.histograms();
  }
  {
    const sim::Scope scope(collect, nullptr);
    run(ref, reference_log);
    b.counters = scope.metrics();
    b.histograms = scope.histograms();
  }
  EXPECT_EQ(chunked_log.size(), reference_log.size());
  const auto mismatch = std::mismatch(
      chunked_log.begin(), chunked_log.end(), reference_log.begin(),
      reference_log.end());
  EXPECT_TRUE(mismatch.first == chunked_log.end())
      << "first differing call " << (mismatch.first - chunked_log.begin());
  EXPECT_EQ(chunked.state(), ref.state());
  EXPECT_EQ(chunked.using_backup(), ref.using_backup());
  a.stats = chunked.stats();
  b.stats = ref.stats();
  a.transitions = chunked.transitions();
  b.transitions = ref.transitions();
  a.stream_bits = chunked_stream.bits();
  b.stream_bits = reference_stream.bits();
  a.stream_bias = chunked_stream.bias();
  b.stream_bias = reference_stream.bias();
  a.stream_markov = chunked_stream.markov_min_entropy();
  b.stream_markov = reference_stream.markov_min_entropy();
  return {a, b};
}

void check(const Scenario& scenario) {
  for (const Mode mode : {Mode::plain, Mode::metrics, Mode::histograms}) {
    for (std::uint64_t seed : {1u, 2u, 3u}) {
      SCOPED_TRACE(scenario.name + " mode " +
                   std::to_string(static_cast<int>(mode)) + " seed " +
                   std::to_string(seed));
      const auto [chunked, ref] = drive(scenario, mode, seed);
      expect_same_stats(chunked.stats, ref.stats);
      expect_same_transitions(chunked.transitions, ref.transitions);
      EXPECT_EQ(chunked.counters.counters, ref.counters.counters);
      for (std::size_t i = 0; i < histo::histogram_count; ++i) {
        const auto h = static_cast<histo::Histogram>(i);
        EXPECT_EQ(chunked.histograms.counts[i], ref.histograms.counts[i])
            << histo::histogram_name(h);
        EXPECT_EQ(chunked.histograms.sums[i], ref.histograms.sums[i])
            << histo::histogram_name(h);
        EXPECT_EQ(chunked.histograms.buckets[i], ref.histograms.buckets[i])
            << histo::histogram_name(h);
      }
      EXPECT_EQ(chunked.stream_bits, ref.stream_bits);
      EXPECT_EQ(chunked.stream_bias, ref.stream_bias);
      EXPECT_EQ(chunked.stream_markov, ref.stream_markov);
    }
  }
}

Sources scripted(std::uint64_t seed, Script script) {
  Sources sources;
  sources.primary = std::make_unique<ScriptedSource>(seed, script);
  return sources;
}

}  // namespace

TEST(ResilientOracle, HealthyWordSourceMatchesPerBit) {
  // service::PrngBitSource overrides next_bits(); with the default policy
  // nearly every chunk is a full 64-bit word.
  Scenario s{"prng", {}, [] {
               Sources sources;
               sources.primary = std::make_unique<service::PrngBitSource>(7);
               sources.backup = std::make_unique<service::PrngBitSource>(8);
               return sources;
             }};
  s.raw_bits = 400'000;
  check(s);
}

TEST(ResilientOracle, StuckSourceMatchesPerBit) {
  Scenario s{"stuck", {}, [] {
               Sources sources;
               sources.primary = std::make_unique<StuckSource>();
               return sources;
             }};
  s.policy.claimed_min_entropy = 0.3;
  s.raw_bits = 50'000;
  check(s);
}

TEST(ResilientOracle, BiasedSourceTripsTheAptAsPerBit) {
  // Ones at 0.97 against a claim of 0.5: the APT alarms mid-window.
  Scenario s{"biased", {}, [] { return scripted(11, Script{.p_one = 0.97}); }};
  s.policy.claimed_min_entropy = 0.5;
  s.policy.suspect_fraction = 1.0;
  s.policy.max_strikes = 8;
  check(s);
}

TEST(ResilientOracle, NearThresholdRunsCrossTheSuspectEdgesAsPerBit) {
  // Runs of 20..40 against an RCT cutoff of 41 (claim 0.5) at suspect
  // fraction 0.7 (level 28.7): some runs reach the suspect level, some
  // stop one short of it, some alarm at the cutoff. Ones at 0.57 keep the
  // APT reference count hovering around its own suspect level too.
  Scenario s{"near-threshold", {}, [] {
               return scripted(21, Script{.p_one = 0.57,
                                          .run_chance = 0.01,
                                          .run_min = 20,
                                          .run_max = 41});
             }};
  s.policy.claimed_min_entropy = 0.5;
  s.policy.suspect_fraction = 0.7;
  s.policy.max_strikes = 1000;
  s.policy.backoff_bits = 37;
  s.policy.probation_bits = 300;
  ASSERT_EQ(rct_cutoff(0.5), 41u);
  check(s);
}

TEST(ResilientOracle, TransientFaultsRecoverThroughProbationAsPerBit) {
  // A dead stretch mid-stream, plus occasional alarming runs during
  // probation (a strike while relocking).
  Scenario s{"transient", {}, [] {
               return scripted(31, Script{.run_chance = 0.0005,
                                          .run_min = 30,
                                          .run_max = 60,
                                          .stuck_from = 5'000,
                                          .stuck_to = 5'500});
             }};
  s.policy.claimed_min_entropy = 0.5;
  s.policy.max_strikes = 1000;
  s.policy.backoff_bits = 100;
  s.policy.probation_bits = 700;
  check(s);
}

TEST(ResilientOracle, FailoverToTheBackupMatchesPerBit) {
  Scenario s{"failover", {}, [] {
               Sources sources;
               sources.primary = std::make_unique<StuckSource>();
               sources.backup =
                   std::make_unique<ScriptedSource>(41, Script{});
               return sources;
             }};
  s.policy.claimed_min_entropy = 0.3;
  s.policy.max_strikes = 6;
  s.policy.probation_bits = 0;  // probation ends on the first clean bit
  check(s);
}

TEST(ResilientOracle, SaturatedBackoffBurnsBitsAsPerBit) {
  // Strike 3 of a 2^62 base saturates at UINT64_MAX: the generator stays
  // muted and burns every later bit.
  Scenario s{"saturated", {}, [] {
               Sources sources;
               sources.primary = std::make_unique<StuckSource>();
               return sources;
             }};
  s.policy.claimed_min_entropy = 0.3;
  s.policy.backoff_bits = std::uint64_t{1} << 62;
  s.policy.max_strikes = 10;
  s.raw_bits = 100'000;
  check(s);
}

TEST(ResilientOracle, FailedGeneratorStopsAsPerBit) {
  // A biased source under a strict claim latches `failed` after two
  // strikes; every later call pulls nothing.
  Scenario s{"failed", {}, [] { return scripted(51, Script{.p_one = 0.8}); }};
  s.policy.claimed_min_entropy = 0.9;
  s.policy.max_strikes = 2;
  s.policy.backoff_bits = 1;
  s.raw_bits = 30'000;
  check(s);
}

namespace {

/// Random `count`-bit words with ones probability `p_one` per bit.
std::uint64_t random_word(Xoshiro256& rng, unsigned count, double p_one) {
  std::uint64_t word = 0;
  for (unsigned i = 0; i < count; ++i) {
    if (rng.uniform01() < p_one) word |= std::uint64_t{1} << i;
  }
  // Bits above `count` must be ignored: fill them with noise.
  if (count < 64) word |= rng.next() << count;
  return word;
}

}  // namespace

TEST(HealthAdvance, RctAdvanceMatchesPerBitFeed) {
  Xoshiro256 rng(0xACE);
  for (const std::uint32_t cutoff : {2u, 5u, 21u, 64u, 70u, 201u}) {
    for (const double p_one : {0.5, 0.9, 0.99}) {
      RepetitionCountTest word_test(cutoff), bit_test(cutoff);
      for (int call = 0; call < 4000; ++call) {
        const auto count = static_cast<unsigned>(1 + rng.next() % 64);
        const std::uint64_t word = random_word(rng, count, p_one);
        bool bit_ok = !bit_test.alarmed();
        for (unsigned i = 0; i < count && bit_ok; ++i) {
          bit_ok = bit_test.feed(static_cast<std::uint8_t>((word >> i) & 1));
        }
        ASSERT_EQ(word_test.advance(word, count), bit_ok)
            << "cutoff " << cutoff << " call " << call;
        ASSERT_EQ(word_test.alarmed(), bit_test.alarmed());
        ASSERT_EQ(word_test.current_run(), bit_test.current_run());
        if (bit_test.alarmed() && rng.next() % 2 == 0) {
          word_test.reset();
          bit_test.reset();
        }
      }
    }
  }
}

TEST(HealthAdvance, AptAdvanceMatchesPerBitFeed) {
  Xoshiro256 rng(0xA9);
  struct Config {
    std::size_t window;
    std::uint32_t cutoff;
  };
  for (const Config config :
       {Config{64, 32}, Config{64, 40}, Config{100, 70}, Config{1024, 600},
        Config{1024, 995}, Config{64, 64}}) {
    for (const double p_one : {0.5, 0.7, 0.95}) {
      AdaptiveProportionTest word_test(config.cutoff, config.window);
      AdaptiveProportionTest bit_test(config.cutoff, config.window);
      for (int call = 0; call < 4000; ++call) {
        const auto count = static_cast<unsigned>(1 + rng.next() % 64);
        const std::uint64_t word = random_word(rng, count, p_one);
        bool bit_ok = !bit_test.alarmed();
        for (unsigned i = 0; i < count && bit_ok; ++i) {
          bit_ok = bit_test.feed(static_cast<std::uint8_t>((word >> i) & 1));
        }
        ASSERT_EQ(word_test.advance(word, count), bit_ok)
            << "window " << config.window << " call " << call;
        ASSERT_EQ(word_test.alarmed(), bit_test.alarmed());
        ASSERT_EQ(word_test.current_count(), bit_test.current_count());
        ASSERT_EQ(word_test.window_index(), bit_test.window_index());
        if (bit_test.alarmed() && rng.next() % 2 == 0) {
          word_test.reset();
          bit_test.reset();
        }
      }
    }
  }
}

TEST(HealthAdvance, PrngWordsMatchPerBitDraws) {
  // next_bits(k) slices the same xoshiro words next_bit() walks through,
  // across word boundaries and a restart.
  service::PrngBitSource words(99), bits(99);
  Xoshiro256 rng(5);
  for (int call = 0; call < 5000; ++call) {
    if (call == 2500) {
      words.restart(1);
      bits.restart(1);
    }
    const auto count = static_cast<unsigned>(1 + rng.next() % 64);
    std::uint64_t expected = 0;
    for (unsigned i = 0; i < count; ++i) {
      expected |= std::uint64_t{bits.next_bit()} << i;
    }
    ASSERT_EQ(words.next_bits(count), expected) << "call " << call;
  }
}
