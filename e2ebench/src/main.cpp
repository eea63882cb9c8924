// e2ebench: ringent's end-to-end benchmark driver binary.
//
//   e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            --work-dir DIR [--pins FILE] [--spans FILE] [--pin-out FILE]
//
// Prints a human-readable report (named metrics, sample counts, host
// fingerprint, layer table) and, as the last line of stdout, one JSON object
// {"correct", "attempted", "failed", "metrics"}. Normally launched through
// e2ebench/run.py, which builds it first.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include <unistd.h>

#include "probes.hpp"
#include "workloads.hpp"

namespace {

using e2ebench::Json;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "e2ebench: %s\nusage: e2ebench --workload NAME --seed N "
               "--seconds S --trace 0|1 --work-dir DIR [--pins FILE] "
               "[--spans FILE] [--pin-out FILE]\n",
               why);
  std::exit(2);
}

std::uint64_t parse_uint(const std::string& text, const char* what) {
  std::size_t used = 0;
  unsigned long long value = 0;
  try {
    value = std::stoull(text, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used != text.size() || text.empty() || text[0] == '-') usage(what);
  return value;
}

}  // namespace

int main(int argc, char** argv) {
  e2ebench::RunConfig config;
  std::string pins_path;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      config.seed = parse_uint(value, "--seed must be a whole number");
      // Cell seeds are seed * 1000 + i; keep them exact in JSON.
      if (config.seed >= (1ull << 40)) usage("--seed must be below 2^40");
    } else if (flag == "--seconds") {
      config.seconds = static_cast<double>(
          parse_uint(value, "--seconds must be a whole number"));
      if (config.seconds < 1) usage("--seconds must be at least 1");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace must be 0 or 1");
      config.trace = value == "1";
    } else if (flag == "--work-dir") {
      config.work_dir = value;
    } else if (flag == "--pins") {
      pins_path = value;
    } else if (flag == "--spans") {
      config.span_path = value;
    } else if (flag == "--pin-out") {
      config.pin_out = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  bool known = false;
  for (const auto& name : e2ebench::workload_names()) {
    known = known || name == config.workload;
  }
  if (!have_workload || !known) usage("unknown or missing --workload");
  if (config.work_dir.empty()) usage("--work-dir is required");

  try {
    namespace fs = std::filesystem;
    fs::remove_all(config.work_dir);
    fs::create_directories(fs::path(config.work_dir) / "manifests");
    // run_spec writes one manifest file per executed cell; keep them in the
    // benchmark's scratch space.
    const std::string out_dir =
        (fs::path(config.work_dir) / "manifests").string();
    setenv("RINGENT_OUT_DIR", out_dir.c_str(), 1);
    if (!pins_path.empty()) config.pins = e2ebench::Pins::load(pins_path);
    config.workers = e2ebench::bench_workers();

    e2ebench::RunResult result = e2ebench::run_workload(config);
    // Stores are kept until the workload ends (workloads.cpp fresh_dir);
    // flush their deletion before exiting so the next run starts clean.
    fs::remove_all(config.work_dir);
    ::sync();

    if (config.trace) {
      for (const auto& [name, unit] : e2ebench::per_layer_metrics()) {
        if (!result.metrics.contains(name)) {
          throw std::logic_error("traced run did not measure " + name);
        }
      }
    }
    for (const std::string& error : result.gate.errors()) {
      std::printf("# gate: %s\n", error.c_str());
    }
    if (!result.gate.ok() && result.failed == 0) result.failed = 1;
    std::printf("# report %s\n", result.report.dump().c_str());
    Json line = Json::object();
    line.set("correct", result.gate.ok() && result.failed == 0);
    line.set("attempted", result.attempted);
    line.set("failed", result.failed);
    line.set("metrics", result.metrics);
    std::printf("%s\n", line.dump().c_str());
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "e2ebench: %s\n", error.what());
    return 1;
  }
}
