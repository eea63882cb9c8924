// record_bench: fold google-benchmark JSON reports into BENCH_kernel.json.
//
// Usage:
//   perf_kernel --benchmark_format=json --benchmark_out=perf.json ...
//   record_bench perf.json [more.json ...] BENCH_kernel.json
//       --sha <git-sha> --date <iso-date> [--baseline parent.json ...]
//
// BENCH_kernel.json is the committed performance trajectory of the event
// kernel: one entry per recorded run, newest last, each mapping benchmark
// name -> {ns_per_event, events_per_sec}. Only benchmarks that report an
// items-per-second counter are recorded (for perf_kernel, "items" are
// simulated events). The sha and date are passed in explicitly so this tool
// stays a pure JSON transformer — no git or clock dependency, and reruns are
// reproducible. See docs/architecture.md §Kernel performance for how the
// numbers are meant to be (re)generated and read.
//
// Several reports (repeated runs of one build) fold into one entry: each
// benchmark's ns_per_event is the median over the reports, with min_ns,
// max_ns and spread_pct = (max - min) / median beside it. --baseline
// reports (the parent build's runs, interleaved with these) fold the same
// way into the entry's "baseline" block. The entry's "host" is copied from
// the reports' "context" block (cpu_model, affinity, sha_ni, num_cpus,
// mhz_per_cpu, as perf_kernel writes them); reports from different hosts
// are refused.
//
// --telemetry <file> additionally folds the newest "ringent.telemetry/1"
// snapshot from that JSONL sink (as written by `--observe telemetry=FILE`
// runs) into the recorded entry as quantile summaries, so the committed
// trajectory can carry distribution shape next to the throughput numbers.
#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <iterator>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/json.hpp"
#include "common/require.hpp"
#include "core/export.hpp"

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw ringent::Error("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

int usage() {
  std::cerr << "usage: record_bench <benchmark.json>... <BENCH_kernel.json> "
               "--sha <sha> --date <YYYY-MM-DD> [--note <text>] "
               "[--baseline <benchmark.json>]... "
               "[--telemetry <snapshots.jsonl>]\n";
  return 2;
}

/// Benchmark name -> ns per item of one report's plain runs, in report
/// order.
std::vector<std::pair<std::string, double>> report_ns(
    const ringent::Json& report, const std::string& path) {
  const ringent::Json* benchmarks = report.find("benchmarks");
  if (benchmarks == nullptr || !benchmarks->is_array()) {
    throw ringent::Error(path +
                         ": not a google-benchmark JSON report "
                         "(missing \"benchmarks\" array)");
  }
  std::vector<std::pair<std::string, double>> out;
  for (std::size_t i = 0; i < benchmarks->size(); ++i) {
    const ringent::Json& row = benchmarks->at(i);
    const ringent::Json* name = row.find("name");
    const ringent::Json* items = row.find("items_per_second");
    if (name == nullptr || !name->is_string()) continue;
    if (items == nullptr || !items->is_number()) continue;
    // Skip repetition aggregates (mean/median/stddev rows); plain runs
    // have run_type "iteration" or no run_type at all (older versions).
    const ringent::Json* run_type = row.find("run_type");
    if (run_type != nullptr && run_type->is_string() &&
        run_type->as_string() != "iteration") {
      continue;
    }
    const double events_per_sec = items->as_number();
    if (events_per_sec <= 0.0) continue;
    out.emplace_back(name->as_string(), 1e9 / events_per_sec);
  }
  if (out.empty()) {
    throw ringent::Error(path + ": no benchmarks with items_per_second");
  }
  return out;
}

/// The host keys of a report's "context" block; an empty object when the
/// report carries none of them.
ringent::Json report_host(const ringent::Json& report) {
  ringent::Json host = ringent::Json::object();
  const ringent::Json* context = report.find("context");
  if (context == nullptr) return host;
  for (const char* key :
       {"cpu_model", "affinity", "sha_ni", "num_cpus", "mhz_per_cpu"}) {
    if (const ringent::Json* value = context->find(key)) host.set(key, *value);
  }
  return host;
}

/// One report: name -> {ns_per_event, events_per_sec}. Several: the
/// median ns_per_event over the reports plus min_ns, max_ns, spread_pct.
/// A benchmark missing from some report is summarized over the others.
ringent::Json fold_reports(const std::vector<ringent::Json>& reports,
                           const std::vector<std::string>& paths) {
  std::vector<std::pair<std::string, std::vector<double>>> samples;
  for (std::size_t r = 0; r < reports.size(); ++r) {
    for (const auto& [name, ns] : report_ns(reports[r], paths[r])) {
      auto it = std::find_if(samples.begin(), samples.end(),
                             [&](const auto& s) { return s.first == name; });
      if (it == samples.end()) {
        samples.emplace_back(name, std::vector<double>{});
        it = std::prev(samples.end());
      }
      it->second.push_back(ns);
    }
  }
  ringent::Json results = ringent::Json::object();
  for (auto& [name, values] : samples) {
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    const double median = n % 2 == 1
                              ? values[n / 2]
                              : 0.5 * (values[n / 2 - 1] + values[n / 2]);
    ringent::Json entry = ringent::Json::object();
    entry.set("ns_per_event", median);
    entry.set("events_per_sec", 1e9 / median);
    if (reports.size() > 1) {
      entry.set("min_ns", values.front());
      entry.set("max_ns", values.back());
      entry.set("spread_pct",
                std::round(1000.0 * (values.back() - values.front()) /
                           median) /
                    10.0);
    }
    results.set(name, std::move(entry));
  }
  return results;
}

/// Quantile summaries of the newest snapshot in a telemetry JSONL sink,
/// ready to embed in the trajectory entry. Throws on malformed snapshots.
ringent::Json telemetry_summaries(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw ringent::Error("cannot open " + path);
  std::string line, last;
  while (std::getline(in, line)) {
    if (!line.empty()) last = line;
  }
  RINGENT_REQUIRE(!last.empty(), path + ": no telemetry snapshots");
  const auto snapshot =
      ringent::core::TelemetrySnapshot::from_json(ringent::Json::parse(last));
  ringent::Json out = ringent::Json::array();
  for (const auto& summary : snapshot.summaries()) {
    ringent::Json entry = ringent::Json::object();
    entry.set("name", summary.name);
    entry.set("count", summary.count);
    entry.set("mean", summary.mean);
    entry.set("p50", summary.p50);
    entry.set("p90", summary.p90);
    entry.set("p99", summary.p99);
    entry.set("p999", summary.p999);
    out.push_back(std::move(entry));
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string sha, date, note, telemetry_path;
  std::vector<std::string> positional, baseline_paths;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--sha" && i + 1 < argc) {
      sha = argv[++i];
    } else if (arg == "--date" && i + 1 < argc) {
      date = argv[++i];
    } else if (arg == "--note" && i + 1 < argc) {
      note = argv[++i];
    } else if (arg == "--baseline" && i + 1 < argc) {
      baseline_paths.push_back(argv[++i]);
    } else if (arg == "--telemetry" && i + 1 < argc) {
      telemetry_path = argv[++i];
    } else if (arg.rfind("--", 0) == 0) {
      std::cerr << "unknown flag: " << arg << "\n";
      return usage();
    } else {
      positional.push_back(arg);
    }
  }
  if (positional.size() < 2 || sha.empty() || date.empty()) return usage();
  const std::string out_path = positional.back();
  positional.pop_back();

  try {
    const auto load = [](const std::vector<std::string>& paths) {
      std::vector<ringent::Json> reports;
      for (const auto& path : paths) {
        reports.push_back(ringent::Json::parse(read_file(path)));
      }
      return reports;
    };
    const std::vector<ringent::Json> reports = load(positional);
    const std::vector<ringent::Json> baseline = load(baseline_paths);

    const ringent::Json host = report_host(reports.front());
    const auto require_host = [&](const std::vector<ringent::Json>& set,
                                  const std::vector<std::string>& paths) {
      for (std::size_t r = 0; r < set.size(); ++r) {
        if (report_host(set[r]).dump() != host.dump()) {
          throw ringent::Error(paths[r] + " ran on another host than " +
                               positional.front());
        }
      }
    };
    require_host(reports, positional);
    require_host(baseline, baseline_paths);

    ringent::Json record = ringent::Json::object();
    record.set("date", date);
    record.set("sha", sha);
    if (!note.empty()) record.set("note", note);
    if (host.size() > 0) record.set("host", host);
    if (reports.size() > 1) {
      record.set("repetitions", reports.size());
      record.set("statistic",
                 "median of the runs; spread_pct = (max - min) / median");
    }
    record.set("benchmarks", fold_reports(reports, positional));
    if (!baseline.empty()) {
      record.set("baseline", fold_reports(baseline, baseline_paths));
    }
    if (!telemetry_path.empty()) {
      record.set("telemetry", telemetry_summaries(telemetry_path));
    }

    // Append to the existing trajectory (or start one).
    ringent::Json trajectory = ringent::Json::object();
    {
      std::ifstream existing(out_path, std::ios::binary);
      if (existing) {
        std::ostringstream buffer;
        buffer << existing.rdbuf();
        trajectory = ringent::Json::parse(buffer.str());
      }
    }
    if (trajectory.find("runs") == nullptr) {
      trajectory = ringent::Json::object();
      trajectory.set("runs", ringent::Json::array());
    }
    ringent::Json runs = *trajectory.find("runs");
    runs.push_back(std::move(record));
    trajectory.set("runs", std::move(runs));

    std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
    if (!out) throw ringent::Error("cannot write " + out_path);
    out << trajectory.dump(2) << "\n";
    std::cout << "recorded " << date << " @ " << sha << " -> " << out_path
              << "\n";
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "record_bench: " << error.what() << "\n";
    return 1;
  }
}
