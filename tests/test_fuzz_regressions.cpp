// Regression tests for the bugs surfaced by the fuzz harnesses (fuzz/).
//
// Every fixed bug has a pinned input under fuzz/regressions/<target>/ —
// the same bytes the tier2 fuzz_<target>_replay drivers run — and this
// suite asserts the *specific* post-fix behaviour (which exception type,
// which fallback value), plus adversarial JSON/VCD cases that must keep
// failing cleanly. Pre-fix, these inputs crashed (stack overflow, ~2^64
// thread spawn) or leaked std:: exception types past the module boundary.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/json.hpp"
#include "common/require.hpp"
#include "core/export.hpp"
#include "sim/observe.hpp"
#include "sim/parallel.hpp"
#include "sim/vcd_read.hpp"

#ifndef RINGENT_FUZZ_DIR
#error "RINGENT_FUZZ_DIR must point at the fuzz/ source directory"
#endif

namespace ringent {
namespace {

std::string regression(const std::string& name) {
  const std::string path = std::string(RINGENT_FUZZ_DIR "/regressions/") + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing pinned regression input " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

sim::VcdDocument read_vcd_string(const std::string& text) {
  std::istringstream in(text);
  return sim::read_vcd(in);
}

// --- Json::parse ------------------------------------------------------------

TEST(FuzzRegressionJson, DeepNestingThrowsInsteadOfOverflowingTheStack) {
  const std::string bomb = regression("json/deep_nesting");
  ASSERT_EQ(bomb.size(), 100000u);
  EXPECT_THROW(Json::parse(bomb), Error);
}

TEST(FuzzRegressionJson, DepthLimitBoundary) {
  // Exactly max_parse_depth levels parse; one more is rejected.
  const std::string at_limit = regression("json/at_depth_limit");
  EXPECT_EQ(at_limit,
            std::string(Json::max_parse_depth, '[') +
                std::string(Json::max_parse_depth, ']'));
  const Json parsed = Json::parse(at_limit);
  EXPECT_TRUE(parsed.is_array());

  const std::string over = std::string(Json::max_parse_depth + 1, '[') +
                           std::string(Json::max_parse_depth + 1, ']');
  EXPECT_THROW(Json::parse(over), Error);
  // Objects count against the same limit.
  std::string objects;
  for (int i = 0; i <= Json::max_parse_depth; ++i) objects += "{\"k\":";
  objects += "null";
  for (int i = 0; i <= Json::max_parse_depth; ++i) objects += "}";
  EXPECT_THROW(Json::parse(objects), Error);
}

TEST(FuzzRegressionJson, NumbersBeyondDoubleRangeAreRejected) {
  // Pre-fix: "1e999" parsed to +inf and dump() threw afterwards.
  EXPECT_THROW(Json::parse(regression("json/inf_overflow")), Error);
  EXPECT_THROW(Json::parse("1e999"), Error);
  EXPECT_THROW(Json::parse("-1e999"), Error);
  EXPECT_NO_THROW(Json::parse("1e308"));
  EXPECT_NO_THROW(Json::parse("1e-999"));  // underflows to 0.0, finite
}

TEST(FuzzRegressionJson, NegativeZeroDumpParseDumpFixpoint) {
  // Pre-fix: -0.0 dumped as "-0", which reparsed as integer 0.
  const Json value = Json::parse(regression("json/neg_zero"));
  const std::string dumped = value.dump();
  EXPECT_EQ(dumped, "-0");
  EXPECT_EQ(Json::parse(dumped).dump(), dumped);
}

TEST(FuzzRegressionJson, AdversarialDocumentsFailCleanly) {
  EXPECT_THROW(Json::parse(regression("json/unterminated_string")), Error);
  for (const char* bad :
       {"nan", "NaN", "Infinity", "-Infinity", "inf", "{\"a\":1",
        "[1,2", "\"\\u12", "\"\\q\"", "{'a':1}", "01x", "", "  ", "[,]"}) {
    EXPECT_THROW(Json::parse(bad), Error) << "input: " << bad;
  }
  // Duplicate keys: last value wins, no duplicate entry survives.
  const Json dup = Json::parse("{\"a\":1,\"a\":2}");
  EXPECT_EQ(dup.size(), 1u);
  EXPECT_EQ(dup.at("a").as_integer(), 2);
}

// --- sim::read_vcd ----------------------------------------------------------

TEST(FuzzRegressionVcd, OversizedTimestampThrowsModuleError) {
  // Pre-fix: std::stoll leaked std::out_of_range (not a ringent::Error).
  try {
    read_vcd_string(regression("vcd/timestamp_overflow"));
    FAIL() << "expected ringent::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("VCD: bad timestamp"),
              std::string::npos)
        << e.what();
  }
}

TEST(FuzzRegressionVcd, BareHashThrowsModuleError) {
  // Pre-fix: std::stoll("") leaked std::invalid_argument.
  EXPECT_THROW(read_vcd_string(regression("vcd/bare_hash")), Error);
}

TEST(FuzzRegressionVcd, TimescaleOverflowThrowsModuleError) {
  EXPECT_THROW(read_vcd_string(regression("vcd/timescale_overflow")), Error);
  // Magnitude * unit products beyond int64 femtoseconds are caught too.
  EXPECT_THROW(read_vcd_string(regression("vcd/timescale_mul_overflow")),
               Error);
}

TEST(FuzzRegressionVcd, AdversarialChangeStreamsFailCleanly) {
  EXPECT_THROW(read_vcd_string(regression("vcd/negative_timestamp")), Error);
  EXPECT_THROW(read_vcd_string(regression("vcd/non_monotonic")), Error);
  EXPECT_THROW(read_vcd_string(regression("vcd/dup_var_code")), Error);
}

TEST(FuzzRegressionVcd, TimestampTimesTimescaleOverflowIsCaught) {
  // 10^6 units at 1 s/unit = 10^21 fs: past int64, must throw (pre-fix this
  // was silent signed-overflow UB).
  EXPECT_THROW(
      read_vcd_string("$timescale 1s $end\n$enddefinitions $end\n#1000000\n"),
      Error);
}

TEST(FuzzRegressionVcd, FileErrorsCarryThePath) {
  const std::string path = testing::TempDir() + "bad_regression.vcd.txt";
  {
    std::ofstream out(path);
    out << regression("vcd/timestamp_overflow");
  }
  try {
    sim::read_vcd_file(path);
    FAIL() << "expected ringent::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos) << e.what();
  }
  std::remove(path.c_str());
}

// --- jobs parsing / clamping and the --observe grammar ----------------------

namespace {

/// The (flag, value) pairs of a pinned cli regression (newline-separated
/// argv tokens), read the way a front end reads argv: "--flag value" or
/// "--flag=value"; a flag with nothing after it has no value.
std::vector<std::pair<std::string, std::optional<std::string>>> flag_values(
    const std::string& name) {
  std::vector<std::string> tokens;
  std::istringstream in(regression(name));
  for (std::string token; std::getline(in, token);) tokens.push_back(token);
  std::vector<std::pair<std::string, std::optional<std::string>>> flags;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const std::string& token = tokens[i];
    const auto eq = token.find('=');
    if (eq != std::string::npos) {
      flags.emplace_back(token.substr(0, eq), token.substr(eq + 1));
    } else if (i + 1 < tokens.size()) {
      flags.emplace_back(token, tokens[++i]);
    } else {
      flags.emplace_back(token, std::nullopt);
    }
  }
  return flags;
}

}  // namespace

TEST(FuzzRegressionCli, JobsOverflowIsRejectedNotWrapped) {
  // Pre-fix: strtoull saturated to ULLONG_MAX unchecked and ThreadPool tried
  // to spawn ~2^64 threads; a negative count wrapped the same way.
  const std::string arg = regression("cli/jobs_overflow");
  ASSERT_EQ(arg, "--jobs=99999999999999999999");
  for (const char* name : {"cli/jobs_overflow", "cli/jobs_negative"}) {
    const auto flags = flag_values(name);
    ASSERT_EQ(flags.size(), 1u) << name;
    EXPECT_EQ(flags[0].first, "--jobs") << name;
    ASSERT_TRUE(flags[0].second.has_value()) << name;
    std::size_t out = 7;
    EXPECT_FALSE(sim::parse_jobs_value(flags[0].second->c_str(), out))
        << name;
    EXPECT_EQ(out, 7u) << name;  // untouched
  }

  std::size_t out = 0;
  EXPECT_FALSE(sim::parse_jobs_value("99999999999999999999", out));
  EXPECT_FALSE(sim::parse_jobs_value("-3", out));
  EXPECT_FALSE(sim::parse_jobs_value("", out));
  EXPECT_FALSE(sim::parse_jobs_value(nullptr, out));
  EXPECT_FALSE(sim::parse_jobs_value("4x", out));
  EXPECT_TRUE(sim::parse_jobs_value("0", out));
  EXPECT_EQ(out, 0u);
  EXPECT_TRUE(sim::parse_jobs_value("6", out));
  EXPECT_EQ(out, 6u);
}

TEST(FuzzRegressionCli, ResolveJobsClampsToTheCeiling) {
  EXPECT_GE(sim::max_jobs(), 8u);
  EXPECT_EQ(sim::resolve_jobs(sim::max_jobs()), sim::max_jobs());
  EXPECT_EQ(sim::resolve_jobs(sim::max_jobs() + 1), sim::max_jobs());
  EXPECT_EQ(sim::resolve_jobs(std::numeric_limits<std::size_t>::max()),
            sim::max_jobs());
  // The pool construction path is covered too: this must not try to spawn
  // an absurd number of threads.
  sim::ThreadPool pool(std::numeric_limits<std::size_t>::max());
  EXPECT_EQ(pool.jobs(), sim::max_jobs());
}

TEST(FuzzRegressionCli, ParseJobsValueRejectsUnusableValues) {
  // Digits only: a blank or a sign in front used to slip through strtoull
  // (" -3" wrapped to 2^64 - 3).
  for (const char* text : {"banana", "-1", " -3", " 4", "+4", "4 ", "1e3",
                           "0x10", "4x"}) {
    std::size_t out = 7;
    EXPECT_FALSE(sim::parse_jobs_value(text, out)) << text;
    EXPECT_EQ(out, 7u) << text;
  }
  std::vector<std::string> errors;
  EXPECT_EQ(sim::parse_observe("trace=", &errors), sim::ObserveSpec{});
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors[0].find("'trace' needs a file"), std::string::npos)
      << errors[0];
}

TEST(FuzzRegressionCli, ObserveRegressionsKeepTheirFailureClass) {
  // cli/trace_trailing (a trailing --observe with no value) is a command
  // line, not a value: the ringent_cli_usage_trailing_observe ctest case
  // replays its tokens through ringent_cli and expects a usage error.

  // Unusable values: a non-numeric --jobs and an empty trace file.
  const auto unusable = flag_values("cli/unusable_values");
  ASSERT_EQ(unusable.size(), 2u);
  std::size_t jobs = 0;
  EXPECT_EQ(unusable[0].first, "--jobs");
  EXPECT_FALSE(sim::parse_jobs_value(unusable[0].second->c_str(), jobs));
  EXPECT_EQ(unusable[1].first, "--observe");
  std::vector<std::string> errors;
  EXPECT_EQ(sim::parse_observe(*unusable[1].second, &errors),
            sim::ObserveSpec{});
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors[0].find("'trace' needs a file"), std::string::npos)
      << errors[0];
}

TEST(FuzzRegressionCli, SilentModeStaysSilentAndSafe) {
  // With no error sink, parse_observe drops what it cannot use without
  // throwing, and a rejected --jobs leaves the default, which resolves
  // inside the ceiling.
  EXPECT_EQ(sim::parse_observe("trace=,telemetry,bogus"), sim::ObserveSpec{});
  std::size_t jobs = 0;
  EXPECT_FALSE(sim::parse_jobs_value("99999999999999999999", jobs));
  EXPECT_LE(sim::resolve_jobs(jobs), sim::max_jobs());
  EXPECT_GE(sim::resolve_jobs(jobs), 1u);
}

// --- RunManifest::from_json -------------------------------------------------

TEST(FuzzRegressionManifest, NegativeIntegersAreRejectedAtLoadTime) {
  // Pre-fix: "seed": -1 survived from_json and made to_json throw later.
  EXPECT_THROW(core::RunManifest::from_json(
                   Json::parse(regression("manifest/negative_seed"))),
               Error);
  EXPECT_THROW(core::RunManifest::from_json(
                   Json::parse(regression("manifest/seed_float"))),
               Error);
}

TEST(FuzzRegressionManifest, SchemaViolationsAreRejected) {
  EXPECT_THROW(core::RunManifest::from_json(
                   Json::parse(regression("manifest/wrong_schema"))),
               Error);
  EXPECT_THROW(core::RunManifest::from_json(
                   Json::parse(regression("manifest/not_an_object"))),
               Error);
}

}  // namespace
}  // namespace ringent
