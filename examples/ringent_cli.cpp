// ringent_cli — command-line front end over the characterization library.
//
//   ringent_cli characterize str 96 [--periods 20000] [--board 0] [--seed S]
//   ringent_cli predict 32 10            (analytic steady state, no sim)
//   ringent_cli trng str 24 [--rate-mhz 4] [--bits 16384] [--board B]
//   ringent_cli vcd str 16 --out ring.vcd [--tokens 4] [--clustered]
//   ringent_cli serve-bench [--slots 4] [--max-workers 4] [--conditioner lfsr]
//   ringent_cli --list                   (enumerate registered experiments)
//   ringent_cli run <experiment> [--spec FILE] [--seed S] [--jobs N]
//   ringent_cli run <plan.json> [--jobs N]
//   ringent_cli campaign run <plan.json> [--dir DIR] [--shard i/N]
//               [--jobs N] [--max-cells N]
//   ringent_cli campaign status <plan.json> [--dir DIR]
//   ringent_cli campaign verify <plan.json> [--dir DIR]
//
// Every command takes `--observe SPEC` (sim::parse_observe): a
// comma-separated list of `metrics`, `trace=FILE` (Chrome trace of
// driver/axis/pool spans) and
// `telemetry=FILE` (one "ringent.telemetry/1" snapshot per driver run; a
// .prom FILE selects the Prometheus text format). An unusable SPEC is a
// usage error, as is a numeric flag that is not a plain number (`--jobs
// banana`, `--seed 12abc`) and any flag the command does not read. A flag
// takes its value as `--key value` or `--key=value`.
//
// `trng` samples the ring into raw bits and scores them with the SP 800-90B
// battery (analysis/entropy90b.hpp); it exits 1 when the 90B min-entropy
// falls below the claim the jitter model derives for the sampling rate.
//
// `run` dispatches through core::experiment_registry(): it executes the
// named driver's small default spec — or, with --spec FILE, the JSON spec
// document in FILE (unknown/missing keys are rejected with the experiment's
// schema name) — with metrics on, prints the driver's rendered result
// (core/render.hpp: a table plus its headline fits), then the run manifest
// the driver built. With RINGENT_OUT_DIR set, the manifest and the table
// (as CSV) are also written there, both named after the experiment slug.
// Given a campaign plan instead of a name, `run` expands it
// (campaign::expand_plan) and does the same for every cell in plan order,
// with no store, naming cell i's files <plan-stem>-<i>-<experiment>:
// examples/plans/figures/ holds one plan per paper table or figure built
// from registered experiments. With `--observe
// metrics` it additionally prints the full counter/phase/histogram
// breakdown as a human-readable table on stderr (stdout keeps the stable
// manifest summary, so scripts scraping it are unaffected).
//
// `campaign run` expands the plan into content-addressed cells and executes
// only the ones the store (DIR, default <plan-stem>.campaign) has no valid
// record for — re-running after an interruption (even SIGKILL) resumes
// where it died; re-running a complete campaign is a pure cache scan.
// `--shard i/N` makes this process responsible for every N-th cell, for
// multi-process fan-out over a shared store. `status` reports cache
// coverage without running anything; `verify` recomputes every planned key
// and checks record integrity, orphans and the index.
//
// Exit code 0 on success, 2 on usage errors, 1 on runtime errors.
#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/autocorr.hpp"
#include "analysis/bitstream.hpp"
#include "analysis/entropy90b.hpp"
#include "campaign/plan.hpp"
#include "campaign/runner.hpp"
#include "campaign/store.hpp"
#include "analysis/entropy.hpp"
#include "analysis/jitter.hpp"
#include "analysis/normality.hpp"
#include "analysis/periods.hpp"
#include "common/require.hpp"
#include "core/experiments.hpp"
#include "core/oscillator.hpp"
#include "core/registry.hpp"
#include "core/report.hpp"
#include "sim/metrics.hpp"
#include "sim/observe.hpp"
#include "sim/parallel.hpp"
#include "measure/frequency.hpp"
#include "ring/analytic.hpp"
#include "ring/mode.hpp"
#include "ring/str_logic.hpp"
#include "sim/vcd.hpp"
#include "sim/vcd_read.hpp"
#include "trng/elementary.hpp"
#include "trng/entropy_model.hpp"
#include "trng/health.hpp"

using namespace ringent;
using namespace ringent::core;

namespace {

/// A command-line value no command can use; main() prints it and exits 2.
struct UsageError : Error {
  using Error::Error;
};

/// Plain decimal digits that fit in 64 bits (no sign, no blanks).
bool parse_unsigned(const std::string& text, std::uint64_t& out) {
  if (text.empty() ||
      text.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  errno = 0;
  const unsigned long long value = std::strtoull(text.c_str(), nullptr, 10);
  if (errno == ERANGE) return false;
  out = value;
  return true;
}

/// Minimal option parser: positional args plus --key value, --key=value
/// and --flag. Numeric values are strict: an unusable one throws UsageError
/// naming the flag and the value.
class Args {
 public:
  Args(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--", 0) == 0) {
        const std::string key = arg.substr(2);
        const auto equals = key.find('=');
        if (equals != std::string::npos) {
          options_[key.substr(0, equals)] = key.substr(equals + 1);
        } else if (i + 1 < argc && argv[i + 1][0] != '-') {
          options_[key] = argv[++i];
        } else {
          options_[key] = "";
        }
      } else {
        positional_.push_back(arg);
      }
    }
  }

  const std::vector<std::string>& positional() const { return positional_; }

  /// Throw UsageError on the first flag that is neither in `reads` nor
  /// --observe, before `command` does any work.
  void accept(const std::string& command,
              std::initializer_list<const char*> reads) const {
    for (const auto& [key, value] : options_) {
      if (key == "observe" ||
          std::find(reads.begin(), reads.end(), key) != reads.end()) {
        continue;
      }
      std::string known;
      for (const char* flag : reads) known += std::string(" --") + flag;
      throw UsageError("unknown flag --" + key + " for '" + command +
                       "' (it reads" + known + " --observe)");
    }
  }

  double number(const std::string& key, double fallback) const {
    const auto it = options_.find(key);
    if (it == options_.end()) return fallback;
    char* end = nullptr;
    const double value = std::strtod(it->second.c_str(), &end);
    if (it->second.empty() || *end != '\0' || !std::isfinite(value)) {
      unusable(key, "a number");
    }
    return value;
  }
  std::uint64_t integer(const std::string& key, std::uint64_t fallback) const {
    const auto it = options_.find(key);
    std::uint64_t value = fallback;
    if (it != options_.end() && !parse_unsigned(it->second, value)) {
      unusable(key, "a non-negative integer");
    }
    return value;
  }
  /// --jobs through sim::parse_jobs_value; absent = 0 (the default).
  std::size_t jobs() const {
    const auto it = options_.find("jobs");
    std::size_t jobs = 0;
    if (it != options_.end() &&
        !sim::parse_jobs_value(it->second.c_str(), jobs)) {
      unusable("jobs", "a non-negative integer");
    }
    return jobs;
  }
  std::string text(const std::string& key, std::string fallback) const {
    const auto it = options_.find(key);
    return it == options_.end() ? std::move(fallback) : it->second;
  }
  bool flag(const std::string& key) const { return options_.count(key) != 0; }

 private:
  [[noreturn]] void unusable(const std::string& key, const char* want) const {
    throw UsageError("--" + key + " wants " + want + ", got '" +
                     options_.at(key) + "'");
  }

  std::vector<std::string> positional_;
  std::map<std::string, std::string> options_;
};

/// A positional count (stages, tokens), as strict as a numeric flag.
std::size_t count_arg(const std::string& text, const char* what) {
  std::uint64_t value = 0;
  if (!parse_unsigned(text, value)) {
    throw UsageError(std::string(what) +
                     " wants a non-negative integer, got '" + text + "'");
  }
  return static_cast<std::size_t>(value);
}

RingSpec parse_spec(const std::string& kind, const std::string& stages,
                    const Args& args) {
  const std::size_t n = count_arg(stages, "<stages>");
  if (kind == "iro") return RingSpec::iro(n);
  if (kind == "str") {
    const auto tokens = static_cast<std::size_t>(args.integer("tokens", 0));
    const auto placement = args.flag("clustered")
                               ? ring::TokenPlacement::clustered
                               : ring::TokenPlacement::evenly_spread;
    return RingSpec::str(n, tokens, placement);
  }
  throw PreconditionError("ring kind must be 'iro' or 'str'");
}

BuildOptions build_options(const Args& args, const fpga::Board** board_out,
                           std::optional<fpga::Board>& board_storage) {
  BuildOptions build;
  build.noise_seed = args.integer("seed", 20120312);
  if (args.flag("board")) {
    board_storage.emplace(build.noise_seed,
                          static_cast<unsigned>(args.integer("board", 0)),
                          cyclone_iii().process);
    build.board = &*board_storage;
    *board_out = build.board;
  }
  return build;
}

int cmd_characterize(const Args& args) {
  args.accept("characterize", {"periods", "board", "seed", "tokens",
                               "clustered"});
  const RingSpec spec =
      parse_spec(args.positional().at(0), args.positional().at(1), args);
  std::optional<fpga::Board> board;
  const fpga::Board* bp = nullptr;
  BuildOptions build = build_options(args, &bp, board);
  Oscillator osc = Oscillator::build(spec, cyclone_iii(), build);
  const auto periods_wanted =
      static_cast<std::size_t>(args.integer("periods", 20000));
  osc.run_periods(periods_wanted);

  const auto periods = analysis::periods_ps(osc.output());
  const auto jitter = analysis::summarize_jitter(periods);
  const auto jb = analysis::jarque_bera(periods);

  std::printf("%s on the calibrated Cyclone III model%s\n",
              spec.name().c_str(), bp != nullptr ? " (with board mismatch)" :
                                                    "");
  std::printf("  frequency       : %s\n",
              fmt_mhz(measure::mean_frequency_mhz(osc.output())).c_str());
  std::printf("  mean period     : %s\n",
              fmt_ps(jitter.mean_period_ps, 1).c_str());
  std::printf("  period jitter   : %s\n",
              fmt_ps(jitter.period_jitter_ps).c_str());
  std::printf("  c2c jitter      : %s\n",
              fmt_ps(jitter.cycle_to_cycle_jitter_ps).c_str());
  std::printf("  lag-1 autocorr  : %+.3f\n",
              analysis::autocorrelation(periods, 1));
  std::printf("  gaussianity (JB): p = %.3f (%s)\n", jb.p_value,
              jb.gaussian ? "accept" : "reject");
  std::printf("  samples         : %zu periods\n", jitter.samples);
  return 0;
}

int cmd_predict(const Args& args) {
  args.accept("predict", {});
  const std::size_t stages = count_arg(args.positional().at(0), "<stages>");
  const std::size_t tokens = count_arg(args.positional().at(1), "<tokens>");
  if (!ring::can_oscillate(stages, tokens)) {
    throw UsageError("an STR with " + std::to_string(stages) +
                     " stages and " + std::to_string(tokens) +
                     " tokens cannot oscillate: it needs at least 3 stages "
                     "and an even, positive token count below the stage "
                     "count");
  }
  const auto& cal = cyclone_iii();
  const auto pred = ring::predict_steady_state(
      ring::CharlieParams::symmetric(cal.str_d_static, cal.str_d_charlie),
      cal.str_routing.per_hop_delay(stages), stages, tokens);
  std::printf("analytic steady state, STR %zuC with NT = %zu:\n", stages,
              tokens);
  std::printf("  period          : %s  (%.2f MHz)\n",
              fmt_ps(pred.period.ps(), 1).c_str(), pred.frequency_mhz);
  std::printf("  forward hop d_f : %s\n",
              fmt_ps(pred.forward_hop.ps(), 1).c_str());
  std::printf("  reverse hop d_r : %s\n",
              fmt_ps(pred.reverse_hop.ps(), 1).c_str());
  std::printf("  separation s    : %s\n",
              fmt_ps(pred.separation.ps(), 1).c_str());
  std::printf("  locking margin  : %.3f\n", pred.locking_margin);
  std::printf("  ideal NT (Eq. 1): %.1f\n",
              ring::ideal_token_count(
                  ring::CharlieParams::symmetric(cal.str_d_static,
                                                 cal.str_d_charlie),
                  stages));
  return 0;
}

int cmd_trng(const Args& args) {
  args.accept("trng",
              {"rate-mhz", "bits", "board", "seed", "tokens", "clustered"});
  const RingSpec spec =
      parse_spec(args.positional().at(0), args.positional().at(1), args);
  const Time fs = Time::from_ns(1e3 / args.number("rate-mhz", 4.0));
  const auto bits_wanted =
      static_cast<std::size_t>(args.integer("bits", 16384));
  // The 8-bit block entropy below needs at least 4 blocks' worth of bits.
  if (bits_wanted < 32) {
    throw UsageError("--bits wants at least 32, got " +
                     std::to_string(bits_wanted));
  }

  std::optional<fpga::Board> board;
  const fpga::Board* bp = nullptr;
  BuildOptions build = build_options(args, &bp, board);
  build.warmup_periods = 128;
  Oscillator osc = Oscillator::build(spec, cyclone_iii(), build);
  osc.run_periods(static_cast<std::size_t>(
      fs.ps() / osc.nominal_period().ps() * (bits_wanted + 2.0) + 256));

  trng::ElementaryTrngConfig config;
  config.sampling_period = fs;
  config.start = osc.output().transitions().front().at;
  const auto bits = trng::elementary_trng_bits(osc.output(), config,
                                               bits_wanted);

  std::printf("%s sampled at %.2f MHz, %zu bits\n", spec.name().c_str(),
              1e6 / fs.ps(), bits.size());
  std::printf("  bias = %.4f   H1 = %.4f   H8 = %.4f\n",
              analysis::bit_bias(bits),
              analysis::shannon_entropy_per_bit(bits),
              analysis::block_entropy_per_bit(bits, 8));
  // The entropy claim derived from the measured jitter, checked off-line
  // by the SP 800-90B battery and on-line by the health tests.
  const auto periods = analysis::periods_ps(osc.output());
  const auto jitter = analysis::summarize_jitter(periods);
  const double claim = std::max(
      0.05, trng::entropy_lower_bound(jitter.period_jitter_ps,
                                      jitter.mean_period_ps, fs));
  const auto h90b =
      analysis::estimate_entropy90b(analysis::BitStream::from_bits(bits));
  const std::pair<const char*, double> estimators[] = {
      {"mcv", h90b.h_mcv},         {"collision", h90b.h_collision},
      {"markov", h90b.h_markov},   {"compression", h90b.h_compression},
      {"t-tuple", h90b.h_t_tuple}, {"lrs", h90b.h_lrs}};
  for (const auto& [name, h] : estimators) {
    if (h < 0.0) {
      std::printf("  90B %-12s skipped\n", name);
    } else {
      std::printf("  90B %-12s H = %.4f\n", name, h);
    }
  }
  const bool supported = h90b.min_entropy >= claim;
  std::printf("  90B min-entropy  H = %.4f  (claim H >= %.3f: %s)\n",
              h90b.min_entropy, claim, supported ? "supported" : "FAIL");
  const auto health = trng::run_health_tests(bits, claim);
  std::printf("  health (claim H >= %.3f): RCT %s (C=%u), APT %s (C=%u)\n",
              claim, health.rct_pass ? "ok" : "ALARM", health.rct_cutoff_used,
              health.apt_pass ? "ok" : "ALARM", health.apt_cutoff_used);
  return supported ? 0 : 1;
}

int cmd_analyze_vcd(const Args& args) {
  args.accept("analyze-vcd", {});
  const auto doc = sim::read_vcd_file(args.positional().at(0));
  std::printf("%s: module '%s', %zu signals, timescale %lld fs\n",
              args.positional().at(0).c_str(), doc.module_name.c_str(),
              doc.signals.size(),
              static_cast<long long>(doc.timescale_fs));
  for (const auto& sig : doc.signals) {
    const auto& trace = sig.trace;
    if (trace.transitions().size() < 4) {
      std::printf("  %-12s %zu transitions (too few to analyze)\n",
                  sig.name.c_str(), trace.transitions().size());
      continue;
    }
    const auto periods = analysis::periods_ps(trace);
    std::vector<Time> times;
    for (const auto& tr : trace.transitions()) times.push_back(tr.at);
    const auto mode = ring::classify_mode(times);
    if (periods.size() >= 3) {
      const auto jitter = analysis::summarize_jitter(periods);
      std::printf("  %-12s %6zu transitions  F = %8.2f MHz  sigma_p = %6.2f "
                  "ps  mode: %s\n",
                  sig.name.c_str(), trace.transitions().size(),
                  1e6 / jitter.mean_period_ps, jitter.period_jitter_ps,
                  ring::to_string(mode.mode));
    } else {
      std::printf("  %-12s %6zu transitions  mode: %s\n", sig.name.c_str(),
                  trace.transitions().size(), ring::to_string(mode.mode));
    }
  }
  return 0;
}

int cmd_vcd(const Args& args) {
  args.accept("vcd", {"out", "tokens", "clustered", "periods", "sigma-g"});
  const RingSpec spec =
      parse_spec(args.positional().at(0), args.positional().at(1), args);
  if (spec.kind != RingKind::str) {
    throw UsageError("vcd dumps STR stage waves; an IRO has none");
  }
  const std::string out = args.text("out", "ring.vcd");

  BuildOptions build;
  build.trace_all_stages = true;
  build.warmup_periods = 0;
  build.sigma_g_ps = args.number("sigma-g", -1.0);
  Oscillator osc = Oscillator::build(spec, cyclone_iii(), build);
  osc.run_periods(static_cast<std::size_t>(args.integer("periods", 64)));

  sim::VcdWriter vcd("ringent");
  for (const auto& trace : osc.str()->stage_traces()) vcd.add_signal(trace);
  vcd.write_file(out);
  std::printf("wrote %s (%zu stages)\n", out.c_str(), spec.stages);
  return 0;
}

int cmd_list(const Args& args) {
  args.accept("list", {});
  Table table({"experiment", "summary", "source"});
  for (const auto& entry : experiment_registry()) {
    table.add_row({entry.name, entry.summary, entry.source});
  }
  std::printf("%s%zu experiments; run one with: ringent_cli run <name>\n",
              table.str().c_str(), experiment_registry().size());
  return 0;
}

/// The `--observe metrics` table: every non-zero counter, every phase timer and every
/// histogram summary of the run, on `out` (stderr — stdout keeps the stable
/// manifest summary).
void print_metrics_table(const RunManifest& manifest, std::FILE* out) {
  std::fprintf(out, "== metrics: %s ==\n", manifest.experiment.c_str());
  std::fprintf(out, "-- counters --\n");
  for (std::size_t i = 0; i < sim::metrics::counter_count; ++i) {
    const auto counter = static_cast<sim::metrics::Counter>(i);
    const std::uint64_t value = manifest.metrics.counter(counter);
    if (value == 0) continue;
    std::fprintf(out, "  %-26s %14llu\n",
                 std::string(sim::metrics::counter_name(counter)).c_str(),
                 static_cast<unsigned long long>(value));
  }
  if (!manifest.metrics.phases.empty()) {
    std::fprintf(out, "-- phases --\n");
    std::fprintf(out, "  %-26s %10s %10s %8s\n", "name", "wall ms", "cpu ms",
                 "calls");
    for (const auto& phase : manifest.metrics.phases) {
      std::fprintf(out, "  %-26s %10.2f %10.2f %8llu\n", phase.name.c_str(),
                   phase.wall_ms, phase.cpu_ms,
                   static_cast<unsigned long long>(phase.calls));
    }
  }
  if (!manifest.telemetry.empty()) {
    std::fprintf(out, "-- histograms --\n");
    std::fprintf(out, "  %-26s %10s %12s %10s %10s %10s %10s\n", "name",
                 "count", "mean", "p50", "p90", "p99", "p99.9");
    for (const auto& h : manifest.telemetry) {
      std::fprintf(out,
                   "  %-26s %10llu %12.1f %10llu %10llu %10llu %10llu\n",
                   h.name.c_str(), static_cast<unsigned long long>(h.count),
                   h.mean, static_cast<unsigned long long>(h.p50),
                   static_cast<unsigned long long>(h.p90),
                   static_cast<unsigned long long>(h.p99),
                   static_cast<unsigned long long>(h.p999));
    }
  }
}

/// Run `exp` on `spec` through its render route and print, in order: the
/// entry's heading, the rendered table and headlines, and the manifest
/// summary. With RINGENT_OUT_DIR set the table is also written there as
/// <artifact>.csv, next to <artifact>.manifest.json, where the artifact
/// name is options.artifact or else the experiment slug; a table that
/// cannot be written is reported and the run carries on, as a manifest is.
void print_run(const std::string& heading, const ExperimentDescriptor& exp,
               const Json& spec, const Calibration& calibration,
               const ExperimentOptions& options) {
  const RenderedRun run = exp.render(spec, calibration, options);
  const RunManifest& manifest = run.manifest;
  std::printf("%s%s — %s (%s)\n", heading.c_str(), exp.name.c_str(),
              exp.summary.c_str(), exp.source.c_str());
  std::printf("%s", run.rendering.text().c_str());
  const std::string artifact =
      options.artifact.empty() ? manifest.experiment : options.artifact;
  try {
    write_artifact(artifact, run.rendering.table, manifest.spec);
  } catch (const Error& error) {
    std::fprintf(stderr, "ringent: dropping table artifact: %s\n",
                 error.what());
  }
  std::printf("  spec    : %s\n", manifest.spec.c_str());
  std::printf("  seed    : %llu\n",
              static_cast<unsigned long long>(manifest.seed));
  std::printf("  tasks   : %zu across %zu workers\n", manifest.tasks,
              manifest.jobs);
  std::printf("  wall    : %.1f ms (cpu %.1f ms)\n", manifest.wall_ms,
              manifest.cpu_ms);
  std::printf("  version : %s\n", manifest.version.c_str());
  std::printf("  counters (non-zero):\n");
  for (std::size_t i = 0; i < sim::metrics::counter_count; ++i) {
    const auto counter = static_cast<sim::metrics::Counter>(i);
    const std::uint64_t value = manifest.metrics.counter(counter);
    if (value != 0) {
      const std::string label(sim::metrics::counter_name(counter));
      std::printf("    %-24s %llu\n", label.c_str(),
                  static_cast<unsigned long long>(value));
    }
  }
  const auto dir = artifact_dir();
  std::printf("  manifest: %s\n",
              dir ? (*dir + "/" + artifact + ".manifest.json").c_str()
                  : "not written (set RINGENT_OUT_DIR to keep it)");
  const sim::Scope& scope = *sim::Scope::current();
  if (const auto& sink = scope.collects().telemetry) {
    std::printf("  telemetry: %s\n", sink->path.c_str());
  }
  if (scope.collects().metrics) print_metrics_table(manifest, stderr);
}

/// `run <plan.json>`: every cell of the expanded plan, in plan order, with
/// the cell's own seed and the plan's device. Nothing is cached. Cell i
/// (from 1) of plan file <stem>.json keeps its artifacts under the name
/// <stem>-<i>-<experiment>, so no cell overwrites another's.
int run_plan(const std::string& path, const Args& args) {
  if (args.flag("spec") || args.flag("seed")) {
    throw UsageError("--spec and --seed do not apply to a plan: its cells "
                     "carry their own spec and seed");
  }
  const campaign::CampaignPlan plan = campaign::load_plan(path);
  const Calibration& calibration = find_device_profile(plan.device);
  const std::vector<campaign::CampaignCell> cells =
      campaign::expand_plan(plan);
  // The plan file's stem, made a filesystem-safe slug.
  std::string stem = std::filesystem::path(path).stem().string();
  for (char& c : stem) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '-') c = '_';
  }
  ExperimentOptions options;
  options.jobs = args.jobs();
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i != 0) std::printf("\n");
    options.seed = cells[i].seed;
    options.artifact = stem + "-" + std::to_string(i + 1) + "-" +
                       cells[i].experiment;
    print_run("[" + std::to_string(i + 1) + "/" +
                  std::to_string(cells.size()) + "] ",
              *find_experiment(cells[i].experiment), cells[i].spec,
              calibration, options);
  }
  return 0;
}

int cmd_run(const Args& args) {
  args.accept("run", {"spec", "seed", "jobs"});
  const std::string& name = args.positional().at(0);
  const ExperimentDescriptor* exp = find_experiment(name);
  const std::string suffix = ".json";
  if (exp == nullptr && name.size() > suffix.size() &&
      name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0) {
    return run_plan(name, args);
  }
  if (exp == nullptr) {
    std::fprintf(stderr, "error: unknown experiment '%s' (see --list)\n",
                 name.c_str());
    return 2;
  }
  ExperimentOptions options;
  options.seed = args.integer("seed", 20120312);
  options.jobs = args.jobs();

  const std::string spec_path = args.text("spec", "");
  Json spec = exp->default_spec();
  if (!spec_path.empty()) {
    std::ifstream in(spec_path, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "error: cannot open spec file '%s'\n",
                   spec_path.c_str());
      return 1;
    }
    std::ostringstream text;
    text << in.rdbuf();
    // A bad spec throws ringent::Error naming the schema and the offending
    // key (the spec's field list, common/fields.hpp); main() prints it and
    // exits 1.
    spec = Json::parse(text.str());
  }
  print_run("", *exp, spec, cyclone_iii(), options);
  return 0;
}

/// Store directory for a plan: --dir when given, else the plan path with
/// its .json extension swapped for .campaign (grand_sweep.json ->
/// grand_sweep.campaign, next to the plan).
std::string campaign_dir(const Args& args, const std::string& plan_path) {
  const std::string dir = args.text("dir", "");
  if (!dir.empty()) return dir;
  std::string stem = plan_path;
  const std::string ext = ".json";
  if (stem.size() > ext.size() &&
      stem.compare(stem.size() - ext.size(), ext.size(), ext) == 0) {
    stem.resize(stem.size() - ext.size());
  }
  return stem + ".campaign";
}

int cmd_campaign(const Args& args) {
  const std::string& action = args.positional().at(0);
  const std::string& plan_path = args.positional().at(1);
  if (action == "run") {
    args.accept("campaign run", {"dir", "shard", "jobs", "max-cells"});
  } else {
    args.accept("campaign " + action, {"dir"});
  }
  const campaign::CampaignPlan plan = campaign::load_plan(plan_path);
  const campaign::ResultStore store(campaign_dir(args, plan_path));

  if (action == "run") {
    campaign::CampaignRunOptions options;
    options.jobs = args.jobs();
    options.max_cells =
        static_cast<std::size_t>(args.integer("max-cells", 0));
    if (args.flag("shard")) {
      const std::string shard = args.text("shard", "");
      std::uint64_t index = 0, count = 0;
      const auto slash = shard.find('/');
      if (slash == std::string::npos ||
          !parse_unsigned(shard.substr(0, slash), index) ||
          !parse_unsigned(shard.substr(slash + 1), count) || count == 0 ||
          index >= count) {
        throw UsageError("--shard wants i/N with 0 <= i < N, got '" + shard +
                         "'");
      }
      options.shard_index = index;
      options.shard_count = count;
    }
    options.progress = [](const std::string& line) {
      std::printf("  %s\n", line.c_str());
    };
    std::printf("campaign '%s' -> %s\n", plan.name.c_str(),
                store.dir().c_str());
    const campaign::CampaignReport report =
        campaign::run_campaign(plan, store, options);
    std::printf("planned %zu cells (%zu in shard): %zu cached, %zu executed, "
                "%zu remaining\n",
                report.planned, report.in_shard, report.cached,
                report.executed, report.remaining);
    return report.complete() ? 0 : 1;
  }

  if (action == "status") {
    const campaign::CampaignReport report =
        campaign::campaign_status(plan, store);
    std::printf("campaign '%s' at %s: %zu/%zu cells cached, %zu to run\n",
                plan.name.c_str(), store.dir().c_str(), report.cached,
                report.planned, report.remaining);
    return report.complete() ? 0 : 1;
  }

  if (action == "verify") {
    const campaign::VerifyReport report =
        campaign::verify_campaign(plan, store);
    std::printf("campaign '%s' at %s:\n", plan.name.c_str(),
                store.dir().c_str());
    std::printf("  planned %zu: %zu valid, %zu missing, %zu torn; "
                "%zu orphan cells; index %s\n",
                report.planned, report.valid, report.missing, report.torn,
                report.orphans,
                report.index_consistent ? "consistent" : "INCONSISTENT");
    std::printf("verify: %s\n", report.ok() ? "PASS" : "FAIL");
    return report.ok() ? 0 : 1;
  }

  std::fprintf(stderr,
               "error: campaign action must be run|status|verify, got '%s'\n",
               action.c_str());
  return 2;
}

int cmd_serve_bench(const Args& args) {
  // Sweep the entropy service's worker count and report throughput; then
  // verify that the delivered stream is bit-identical at every worker count
  // (the service's central determinism contract).
  args.accept("serve-bench", {"slots", "bits-per-slot", "conditioner",
                              "ratio", "real-rings", "max-workers", "seed"});
  EntropyServiceSpec spec;
  spec.slots = static_cast<std::size_t>(args.integer("slots", 4));
  spec.raw_bits_per_slot = args.integer("bits-per-slot", 1 << 18);
  spec.conditioner =
      service::parse_conditioner_kind(args.text("conditioner", "lfsr"));
  spec.conditioner_ratio =
      static_cast<std::size_t>(args.integer("ratio", 2));
  spec.synthetic = !args.flag("real-rings");
  if (spec.synthetic) {
    // Real ring slots are simulation-rate-limited; keep their budget small.
  } else if (!args.flag("bits-per-slot")) {
    spec.raw_bits_per_slot = 1 << 14;
  }
  const std::size_t max_workers =
      static_cast<std::size_t>(args.integer("max-workers", 4));
  ExperimentOptions options;
  options.seed = args.integer("seed", 20120312);

  std::printf("entropy service saturation bench (%s sources, %zu slots, "
              "%llu raw bits/slot, %s conditioner /%zu)\n",
              spec.synthetic ? "synthetic" : spec.ring.name().c_str(),
              spec.slots,
              static_cast<unsigned long long>(spec.raw_bits_per_slot),
              service::conditioner_kind_name(spec.conditioner),
              spec.conditioner_ratio);
  std::printf("  %-8s %-12s %-14s %-14s %-10s\n", "workers", "bytes",
              "bytes/sec", "requests/sec", "stream-fnv");

  std::uint64_t reference_fnv = 0;
  std::uint64_t reference_bytes = 0;
  bool identical = true;
  for (std::size_t workers = 1; workers <= max_workers; workers *= 2) {
    options.jobs = workers;
    const EntropyServiceResult result =
        run_entropy_service(spec, cyclone_iii(), options);
    std::printf("  %-8zu %-12llu %-14.3e %-14.3e %016llx\n", result.workers,
                static_cast<unsigned long long>(result.bytes_delivered),
                result.bytes_per_sec, result.requests_per_sec,
                static_cast<unsigned long long>(result.stream_fnv));
    if (workers == 1) {
      reference_fnv = result.stream_fnv;
      reference_bytes = result.bytes_delivered;
    } else if (result.stream_fnv != reference_fnv ||
               result.bytes_delivered != reference_bytes) {
      identical = false;
    }
  }
  std::printf("cross-worker bit-identity: %s\n",
              identical ? "PASS" : "FAIL");
  return identical ? 0 : 1;
}

int usage() {
  std::fprintf(
      stderr,
      "usage: ringent_cli <command> ...\n"
      "  characterize <iro|str> <stages> [--periods N] [--board B] [--seed S]\n"
      "  predict <stages> <tokens>\n"
      "  trng <iro|str> <stages> [--rate-mhz F] [--bits N] [--board B]\n"
      "  analyze-vcd <file>\n"
      "  vcd str <stages> [--out FILE] [--tokens N] [--clustered] "
      "[--periods N]\n"
      "  serve-bench [--slots N] [--bits-per-slot N] [--conditioner "
      "lfsr|hash]\n"
      "              [--ratio N] [--max-workers N] [--real-rings] [--seed S]\n"
      "  --list | list                (registered experiments)\n"
      "  run <experiment> [--spec FILE] [--seed S] [--jobs N]\n"
      "  run <plan.json> [--jobs N]     (e.g. examples/plans/figures/*.json)\n"
      "  campaign run <plan.json> [--dir DIR] [--shard i/N] [--jobs N]\n"
      "               [--max-cells N]\n"
      "  campaign status <plan.json> [--dir DIR]\n"
      "  campaign verify <plan.json> [--dir DIR]\n"
      "every command: [--observe metrics,trace=FILE,telemetry=FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  const Args args(argc, argv, 2);
  std::vector<std::string> errors;
  const sim::ObserveSpec observe =
      sim::parse_observe(args.text("observe", ""), &errors);
  if (args.flag("observe") && args.text("observe", "").empty()) {
    errors.push_back("--observe needs a value");
  }
  for (const auto& error : errors) {
    std::fprintf(stderr, "error: --observe: %s\n", error.c_str());
  }
  if (!errors.empty()) return 2;
  try {
    // Everything the command runs is observed by this one scope.
    const sim::Scope scope(sim::Collect::from(observe), nullptr);
    if (command == "characterize" && args.positional().size() >= 2)
      return cmd_characterize(args);
    if (command == "predict" && args.positional().size() >= 2)
      return cmd_predict(args);
    if (command == "trng" && args.positional().size() >= 2)
      return cmd_trng(args);
    if (command == "analyze-vcd" && args.positional().size() >= 1)
      return cmd_analyze_vcd(args);
    if (command == "vcd" && args.positional().size() >= 2)
      return cmd_vcd(args);
    if (command == "serve-bench") return cmd_serve_bench(args);
    if (command == "--list" || command == "list") return cmd_list(args);
    if (command == "run" && args.positional().size() >= 1)
      return cmd_run(args);
    if (command == "campaign" && args.positional().size() >= 2)
      return cmd_campaign(args);
    return usage();
  } catch (const UsageError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  } catch (const std::out_of_range&) {
    return usage();
  }
}
