#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <stdexcept>

#include <unistd.h>

#include "campaign/runner.hpp"
#include "core/calibration.hpp"
#include "core/registry.hpp"
#include "probes.hpp"
#include "service/frontend.hpp"
#include "service/pool.hpp"

namespace e2ebench {

namespace fs = std::filesystem;
using ringent::campaign::CampaignPlan;
using ringent::campaign::ResultStore;

namespace {

constexpr std::size_t kStoreCells = 120;
constexpr std::size_t kWarmPasses = 3;
constexpr std::size_t kMinSetups = 101;
constexpr std::size_t kServiceSlots = 4;
constexpr std::size_t kRequestBytes = 256;
/// The default seed; its outputs are pinned (pins.json) and re-checked by
/// every run, whatever that run's own seed.
constexpr std::uint64_t kReferenceSeed = 1;

/// Cell seeds are a pure function of the workload seed; small integers keep
/// them exact in JSON and make keys differ across workload seeds.
std::uint64_t cell_seed(std::uint64_t seed, std::uint64_t i) {
  return seed * 1000 + i;
}

std::string seed_list(std::uint64_t seed, std::uint64_t first,
                      std::uint64_t count) {
  std::string out = "[";
  for (std::uint64_t i = 0; i < count; ++i) {
    if (i) out += ',';
    out += std::to_string(cell_seed(seed, first + i));
  }
  return out + "]";
}

/// A new directory name under the run's scratch root. Stores are not
/// deleted until the run ends (main.cpp): deleting files mid-run queues
/// block discards ahead of the next pass's writes.
std::string fresh_dir(const std::string& root, const std::string& name) {
  static std::size_t serial = 0;
  return (fs::path(root) / (name + "-" + std::to_string(serial++))).string();
}

double ms(double seconds) { return seconds * 1e3; }

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "campaign_sim", "campaign_store", "service_stream"};
  return names;
}

// --- plans -----------------------------------------------------------------

Json campaign_sim_plan(std::uint64_t seed) {
  // Single-kind entropy_map cells: two ring lengths and two seeds per kind,
  // four near-equal sampling periods inside each cell so its driver keeps
  // four workers busy.
  const std::string map_spec =
      R"("sampling_periods_fs": [250000000, 260000000, 270000000, 280000000],
         "bits_per_cell": 512, "restart_rows": 4, "restart_cols": 32)";
  const std::string two_seeds = seed_list(seed, 1, 2);
  return Json::parse(R"({
    "schema": "ringent.campaign-plan/1",
    "name": "e2ebench-campaign-sim",
    "device": "cyclone-iii",
    "seeds": )" + seed_list(seed, 1, 1) + R"(,
    "entries": [
      {"experiment": "entropy_map",
       "spec": {"kinds": ["iro"], )" + map_spec + R"(},
       "grid": {"stage_counts": [[5], [7]]},
       "seeds": )" + two_seeds + R"(},
      {"experiment": "entropy_map",
       "spec": {"kinds": ["str"], )" + map_spec + R"(},
       "grid": {"stage_counts": [[5], [7]]},
       "seeds": )" + two_seeds + R"(},
      {"experiment": "attack_resilience",
       "spec": {"total_bits": 6000}},
      {"experiment": "mode_map",
       "spec": {"stages": 16, "token_counts": [2, 4, 6, 8],
                "periods": 23000},
       "grid": {"placement": ["clustered", "evenly_spread"]}},
      {"experiment": "jitter_vs_stages",
       "spec": {"kind": "str", "mes_periods": 1800},
       "grid": {"stage_counts": [[4, 8, 12, 16], [6, 10, 14, 18]]}}
    ]})");
}

Json campaign_store_plan(std::uint64_t seed) {
  return Json::parse(R"({
    "schema": "ringent.campaign-plan/1",
    "name": "e2ebench-campaign-store",
    "device": "cyclone-iii",
    "seeds": )" + seed_list(seed, 0, kStoreCells) + R"(,
    "entries": [{"experiment": "voltage_sweep"}]})");
}

Json probe_plan(std::uint64_t seed) {
  const std::string map_spec =
      R"("stage_counts": [5], "sampling_periods_fs": [250000000],
         "bits_per_cell": 256, "restart_rows": 0, "restart_cols": 0)";
  return Json::parse(R"({
    "schema": "ringent.campaign-plan/1",
    "name": "e2ebench-probe",
    "device": "cyclone-iii",
    "seeds": )" + seed_list(seed, 900, 2) + R"(,
    "entries": [
      {"experiment": "entropy_map", "spec": {"kinds": ["iro"], )" +
                     map_spec + R"(}},
      {"experiment": "entropy_map", "spec": {"kinds": ["str"], )" +
                     map_spec + R"(}},
      {"experiment": "voltage_sweep"}
    ]})");
}

// --- campaign building blocks ----------------------------------------------

CampaignSetup setup_campaign(const Json& plan_json, const std::string& dir) {
  CampaignSetup setup;
  setup.start_s = now_s();
  ringent::core::experiment_registry();
  setup.plan = CampaignPlan::from_json(plan_json);
  ringent::core::find_device_profile(setup.plan.device);
  setup.expand_start_s = now_s();
  setup.cells = ringent::campaign::expand_plan(setup.plan);
  setup.expand_end_s = now_s();
  setup.store = std::make_unique<ResultStore>(dir);
  setup.end_s = now_s();
  return setup;
}

PassResult run_pass(const CampaignSetup& setup, std::size_t jobs) {
  PassResult pass;
  ringent::campaign::CampaignRunOptions options;
  options.jobs = jobs;
  double previous = 0.0;
  std::size_t next_index = 0;
  options.progress = [&](const std::string& line) {
    const double t = now_s();
    const bool executed = line.rfind("executed ", 0) == 0;
    // The runner reports cells in expanded order (one shard), so the
    // callback count is the plan index; the key prefix confirms it.
    const std::size_t index = next_index++;
    if (index >= setup.cells.size() ||
        line.compare(9, 12, setup.cells[index].key, 0, 12) != 0) {
      throw std::runtime_error("progress line out of plan order: " + line);
    }
    if (executed) {
      const auto manifest = ringent::core::last_run_manifest();
      if (!manifest) throw std::runtime_error("executed cell left no manifest");
      pass.cells.push_back({index, previous, t, *manifest});
    }
    previous = t;
  };
  const double cpu_start = process_cpu_s();
  pass.start_s = now_s();
  previous = pass.start_s;
  const auto report = run_campaign(setup.plan, *setup.store, options);
  pass.end_s = now_s();
  pass.cpu_s = process_cpu_s() - cpu_start;
  pass.executed = report.executed;
  pass.cached = report.cached;
  return pass;
}

PhaseWalls attribute_phases(const ringent::core::RunManifest& manifest,
                            double driver_s) {
  double phase_cpu = 0.0;
  for (const auto& phase : manifest.metrics.phases) phase_cpu += phase.cpu_ms;
  const double denom = std::max(phase_cpu, manifest.cpu_ms);
  PhaseWalls walls;
  if (denom <= 0.0) return walls;
  for (const auto& phase : manifest.metrics.phases) {
    const double share = driver_s * phase.cpu_ms / denom;
    if (phase.name == "build") walls.build_s = share;
    if (phase.name == "run") walls.run_s = share;
    if (phase.name == "analyze") walls.analyze_s = share;
  }
  return walls;
}

// --- service building blocks -----------------------------------------------

StreamRound drain_stream(const StreamConfig& config) {
  using namespace ringent::service;
  StreamRound round;
  const double setup_start = now_s();
  PoolConfig pool_config;
  pool_config.slots = kServiceSlots;
  pool_config.workers = config.workers;
  pool_config.seed = config.seed;
  pool_config.raw_bits_per_slot = config.raw_bits_per_slot;
  pool_config.conditioner = ConditionerKind::hash;
  pool_config.conditioner_ratio = 2;
  const SourceFactory factory = [](std::size_t, std::uint64_t seed) {
    SlotSources sources;
    sources.primary = std::make_unique<PrngBitSource>(seed);
    sources.backup = std::make_unique<PrngBitSource>(
        ringent::derive_seed(seed, "backup"));
    return sources;
  };
  GeneratorPool pool(pool_config, factory);
  EntropyService service(pool);
  round.setup_s = now_s() - setup_start;

  std::vector<std::uint8_t> request(kRequestBytes);
  round.acquire_s.reserve(1u << 13);
  round.acquire_start_s.reserve(1u << 13);
  std::uint64_t fnv = kFnvBasis;
  const double cpu_start = process_cpu_s();
  round.start_s = now_s();
  pool.start();
  for (;;) {
    const double t0 = now_s();
    std::size_t got = 0;
    try {
      got = service.acquire(std::span<std::uint8_t>(request));
    } catch (const StarvationError&) {
      if (service.live_slots() != 0) ++round.early_starvations;
      break;
    }
    const double t1 = now_s();
    round.acquire_start_s.push_back(t0);
    round.acquire_s.push_back(t1 - t0);
    const std::span<const std::uint8_t> delivered(request.data(), got);
    fnv = fnv1a(delivered, fnv);
    if (config.keep_bytes) {
      round.stream.insert(round.stream.end(), delivered.begin(),
                          delivered.end());
    }
    if (got < request.size() && service.live_slots() != 0) {
      ++round.short_failures;
    }
  }
  round.drain_end_s = now_s();
  round.cpu_s = process_cpu_s() - cpu_start;
  pool.stop();
  round.stop_end_s = now_s();

  const FrontendStats& fstats = service.stats();
  const PoolStats pstats = pool.stats();
  round.requests = fstats.requests;
  round.bytes = fstats.bytes_delivered;
  round.waits = fstats.waits;
  round.raw_bits_in = pstats.raw_bits_in;
  round.conditioned_bytes = pstats.conditioned_bytes;
  for (std::size_t i = 0; i < pool.slot_count(); ++i) {
    round.bits_muted += pool.generator(i).stats().bits_muted;
    round.transitions += pool.generator(i).transitions().size();
  }
  round.pin = {fnv, round.bytes};
  return round;
}

std::uint64_t check_round(const StreamRound& round, Gate& gate) {
  std::uint64_t failures = round.early_starvations + round.short_failures;
  if (failures) {
    gate.fail("service: " + std::to_string(round.early_starvations) +
              " starvations and " + std::to_string(round.short_failures) +
              " short reads before the budget was spent");
  }
  if (round.bytes != round.conditioned_bytes) {
    gate.fail("service: delivered " + std::to_string(round.bytes) +
              " bytes but the pool conditioned " +
              std::to_string(round.conditioned_bytes));
    ++failures;
  }
  return failures;
}

// --- workload drivers --------------------------------------------------------

namespace {

/// Layer table of the traced iterations: self time per span name summed
/// over them, their total wall, and the residual (root self time, i.e. time
/// no named layer covers).
struct LayerTable {
  Json rows = Json::object();  ///< span name -> self time (ms)
  std::size_t iterations = 0;  ///< traced iterations (roots)
  double wall_s = 0.0;         ///< summed over the traced iterations
  double named_s = 0.0;        ///< sum of the named rows
  double residual_s = 0.0;
};

LayerTable layer_table(const SpanRecorder& spans, const std::vector<int>& roots) {
  LayerTable table;
  const std::vector<double> self = spans.self_times_s();
  std::vector<std::pair<std::string, double>> rows;
  for (std::size_t i = 0; i < spans.spans().size(); ++i) {
    const Span& span = spans.spans()[i];
    if (span.parent < 0) {
      table.wall_s += span.duration_s();
      table.residual_s += self[i];
      continue;
    }
    auto it = std::find_if(rows.begin(), rows.end(),
                           [&](const auto& r) { return r.first == span.name; });
    if (it == rows.end()) {
      rows.emplace_back(span.name, self[i]);
    } else {
      it->second += self[i];
    }
  }
  for (const auto& [name, s] : rows) {
    table.rows.set(name, ms(s));
    table.named_s += s;
  }
  table.iterations = roots.size();
  return table;
}

/// Residual the layer table may leave uncovered, and how far its named rows
/// may sit from the untraced wall (both as a share of that wall). The second
/// bound compares different iterations, whose walls differ by up to ~20% on
/// a shared host; alternating traced and untraced iterations and comparing
/// their means keeps that comparison within it.
constexpr double kResidualBound = 0.01;
constexpr double kUntracedBound = 0.25;

/// Traced iterations of a traced run, each followed by an untraced one (and
/// one more untraced iteration first): one for the multi-second
/// campaign_sim iterations, more for the sub-second ones of the others.
std::size_t traced_iterations(const std::string& workload) {
  return workload == "campaign_sim" ? 1 : 6;
}

/// `untraced_wall_s`: mean wall of the untraced iterations.
void check_layer_table(const LayerTable& table, double untraced_wall_s,
                       Gate& gate, Json& report, Json& metrics) {
  const double n = static_cast<double>(table.iterations);
  const double residual_frac = table.residual_s / table.wall_s;
  const double vs_untraced =
      (table.named_s / n - untraced_wall_s) / untraced_wall_s;
  const double overhead_ms = ms(table.wall_s / n - untraced_wall_s);
  metrics.set("bench.trace_overhead_ms", metric(overhead_ms, "ms"));
  metrics.set("bench.layer_residual_frac", metric(residual_frac, "ratio"));
  metrics.set("bench.sum_vs_untraced_frac", metric(vs_untraced, "ratio"));
  Json out = Json::object();
  out.set("rows_ms", table.rows);
  out.set("traced_iterations", table.iterations);
  out.set("traced_wall_ms", ms(table.wall_s));
  out.set("untraced_wall_ms_mean", ms(untraced_wall_s));
  out.set("named_rows_ms", ms(table.named_s));
  out.set("residual_ms", ms(table.residual_s));
  out.set("residual_frac", residual_frac);
  out.set("residual_bound", kResidualBound);
  out.set("sum_vs_untraced_frac", vs_untraced);
  out.set("sum_vs_untraced_bound", kUntracedBound);
  out.set("trace_overhead_ms", overhead_ms);
  report.set("layer_table", out);
  if (residual_frac > kResidualBound) {
    gate.fail("layer table leaves " + std::to_string(residual_frac * 100) +
              "% of the traced wall uncovered");
  }
  if (std::fabs(vs_untraced) > kUntracedBound) {
    gate.fail("layer table sums to " + std::to_string(vs_untraced * 100) +
              "% off the untraced wall");
  }
}

/// Sample counts of a traced run. Direct-call probes take the median of 3 to
/// 5 repetitions (probes.cpp).
void trace_samples(Json& report, std::size_t traced, std::size_t untraced,
                   const char* unit_name, std::size_t units) {
  Json samples = Json::object();
  samples.set("traced_iterations", traced);
  samples.set("untraced_iterations", untraced);
  samples.set(unit_name, units);
  report.set("samples", samples);
}

struct Collected {
  RunResult result;
  std::vector<double> setup_s;
  std::vector<double> ops_per_s;
  std::vector<double> cpu_s_per_op;
};

/// The tail latency of a workload, with the samples it rests on and how
/// many of them lie beyond it.
struct Tail {
  const char* is;  ///< which percentile, and of what
  double value_s = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;
};

void finish_end_to_end(Collected& c, const Tail& tail) {
  Json& metrics = c.result.metrics;
  metrics.set("setup_s", metric(median(c.setup_s), "s"));
  metrics.set("ops_per_s", metric(median(c.ops_per_s), "1/s"));
  metrics.set("op_ms_tail", metric(ms(tail.value_s), "ms"));
  metrics.set("cpu_ms_per_op", metric(ms(median(c.cpu_s_per_op)), "ms"));
  metrics.set("peak_rss_mb", metric(peak_rss_mb(), "MB"));
  Json samples = Json::object();
  samples.set("setup_s", c.setup_s.size());
  samples.set("ops_per_s", c.ops_per_s.size());
  samples.set("op_ms_tail", tail.samples);
  samples.set("op_ms_tail_beyond", tail.beyond);
  samples.set("op_ms_tail_is", std::string(tail.is));
  samples.set("peak_rss_mb", 1);
  Json per_iteration = Json::array();
  for (const double v : c.ops_per_s) per_iteration.push_back(v);
  samples.set("ops_per_s_values", per_iteration);
  c.result.report.set("samples", samples);
}

/// The gate of one finished campaign pass: a complete, verifiable store
/// whose cell counters repeat the first pass (and the pins), and whose
/// stored counters match the manifests the drivers emitted.
std::size_t gate_campaign_pass(const CampaignSetup& setup,
                               const PassResult& pass, const CellTable* first,
                               const std::optional<CellTable>& pinned,
                               const std::string& what, Gate& gate,
                               CellTable* table_out) {
  std::size_t bad = gate.check_verify(
      ringent::campaign::verify_campaign(setup.plan, *setup.store), what);
  const CellTable table = load_cell_table(setup.cells, *setup.store);
  if (pass.executed + pass.cached != setup.cells.size()) {
    gate.fail(what + ": pass covered " +
              std::to_string(pass.executed + pass.cached) + " of " +
              std::to_string(setup.cells.size()) + " cells");
    ++bad;
  }
  for (const CellSample& cell : pass.cells) {
    const auto it = table.find(setup.cells[cell.index].key);
    if (it != table.end() &&
        it->second != pinned_values(cell.manifest.metrics)) {
      gate.fail(what + ": stored counters differ from the driver manifest");
      ++bad;
    }
  }
  if (first) bad += gate.check_cells(table, *first, what + " vs first pass");
  if (pinned) bad += gate.check_cells(table, *pinned, what + " vs pins");
  if (table_out) *table_out = table;
  return bad;
}

/// Write this run's pins as a pins.json fragment (run.py --make-pins).
void write_pin_fragment(const RunConfig& config, Json entry) {
  if (config.pin_out.empty()) return;
  Json counters = Json::array();
  for (const auto counter : pinned_counters()) {
    counters.push_back(
        std::string(ringent::sim::metrics::counter_name(counter)));
  }
  Json by_seed = Json::object();
  by_seed.set(std::to_string(config.seed), std::move(entry));
  Json doc = Json::object();
  doc.set("counters", std::move(counters));
  doc.set(config.workload, std::move(by_seed));
  std::FILE* f = std::fopen(config.pin_out.c_str(), "w");
  if (!f) throw std::runtime_error("cannot write " + config.pin_out);
  std::fprintf(f, "%s\n", doc.dump().c_str());
  std::fclose(f);
}

/// One campaign iteration: set-up, cold pass, the store workload's warm
/// passes and verify, and the final index rebuild.
struct CampaignIteration {
  CampaignSetup setup;
  PassResult cold;
  std::vector<PassResult> warm;
  double verify_s = 0.0;
  double rebuild_s = 0.0;
  double start_s = 0.0;
  double end_s = 0.0;
};

CampaignIteration campaign_iteration(const RunConfig& config,
                                     const Json& plan, const std::string& dir,
                                     std::size_t warm_passes) {
  // Start every iteration with no dirty pages from the previous one, so its
  // writes do not queue behind their writeback.
  ::sync();
  CampaignIteration it;
  it.start_s = now_s();
  it.setup = setup_campaign(plan, dir);
  it.cold = run_pass(it.setup, config.workers);
  for (std::size_t w = 0; w < warm_passes; ++w) {
    it.warm.push_back(run_pass(it.setup, config.workers));
  }
  if (warm_passes) {
    const double t = now_s();
    ringent::campaign::verify_campaign(it.setup.plan, *it.setup.store);
    it.verify_s = now_s() - t;
  }
  const double t = now_s();
  it.setup.store->rebuild_index();
  it.rebuild_s = now_s() - t;
  it.end_s = now_s();
  return it;
}

/// The span tree of one traced campaign iteration (README.md "Traced
/// runs"); returns the root.
int add_iteration_spans(SpanRecorder& spans, const CampaignIteration& it,
                        const std::string& workload) {
  const CampaignSetup& setup = it.setup;
  const int root = spans.add("bench." + workload, -1, it.start_s, it.end_s);
  const int s = spans.add("bench.setup", root, setup.start_s, setup.end_s);
  spans.add("campaign.expand_plan", s, setup.expand_start_s,
            setup.expand_end_s);
  const int p =
      spans.add("campaign.cold_pass", root, it.cold.start_s, it.cold.end_s);
  for (const CellSample& cell : it.cold.cells) {
    const auto& m = cell.manifest;
    Json attrs = Json::object();
    attrs.set("key", setup.cells[cell.index].key);
    attrs.set("experiment", setup.cells[cell.index].experiment);
    attrs.set("driver_wall_ms", m.wall_ms);
    attrs.set("driver_cpu_ms", m.cpu_ms);
    Json phases = Json::object();
    for (const auto& phase : m.metrics.phases) {
      Json entry = Json::object();
      entry.set("wall_ms", phase.wall_ms);
      entry.set("cpu_ms", phase.cpu_ms);
      entry.set("calls", phase.calls);
      phases.set(phase.name, entry);
    }
    attrs.set("phases", phases);
    attrs.set("events_fired",
              m.metrics.counter(ringent::sim::metrics::Counter::events_fired));
    const int c = spans.add("campaign.cell", p, cell.start_s, cell.end_s,
                            attrs);
    const double driver_s = cell.driver_s();
    const int d = spans.add("core.driver", c, cell.start_s,
                            cell.start_s + driver_s);
    const PhaseWalls walls = attribute_phases(m, driver_s);
    double t = cell.start_s;
    for (const auto& [name, len] : {std::pair{"build", walls.build_s},
                                    std::pair{"run", walls.run_s},
                                    std::pair{"analyze", walls.analyze_s}}) {
      spans.add(std::string("core.phase.") + name, d, t, t + len);
      t += len;
    }
  }
  for (const PassResult& warm : it.warm) {
    spans.add("campaign.warm_pass", root, warm.start_s, warm.end_s);
  }
  if (!it.warm.empty()) {
    const double t = it.warm.back().end_s;
    spans.add("campaign.verify", root, t, t + it.verify_s);
  }
  spans.add("campaign.rebuild_index", root, it.end_s - it.rebuild_s, it.end_s);
  return root;
}

Json plan_for(const std::string& workload, std::uint64_t seed) {
  return workload == "campaign_store" ? campaign_store_plan(seed)
                                      : campaign_sim_plan(seed);
}

/// Pins bind only the seeds they were made for. So that every run checks
/// pinned output, run the first cell of each experiment in the reference
/// seed's plan straight through run_spec and compare its counters with the
/// pins. Skipped when the run's own seed is the reference seed (its cells
/// were already checked) or when no pins are loaded. Returns the failures.
std::uint64_t check_reference_cells(const RunConfig& config,
                                    const Json& reference_plan, Gate& gate,
                                    std::uint64_t& attempted) {
  const std::optional<CellTable> pinned =
      config.pins.cells(config.workload, kReferenceSeed);
  if (!pinned || config.seed == kReferenceSeed) return 0;
  const CampaignPlan plan = CampaignPlan::from_json(reference_plan);
  const auto& calibration = ringent::core::find_device_profile(plan.device);
  std::vector<std::string> seen;
  std::uint64_t bad = 0;
  for (const auto& cell : ringent::campaign::expand_plan(plan)) {
    if (std::find(seen.begin(), seen.end(), cell.experiment) != seen.end()) {
      continue;
    }
    seen.push_back(cell.experiment);
    ringent::core::ExperimentOptions options;
    options.seed = cell.seed;
    options.jobs = config.workers;
    const ringent::core::RunManifest manifest =
        ringent::core::find_experiment(cell.experiment)
            ->run_spec(cell.spec, calibration, options);
    const auto want = pinned->find(cell.key);
    CellTable expected;
    if (want != pinned->end()) expected.insert(*want);
    ++attempted;
    bad += gate.check_cells({{cell.key, pinned_values(manifest.metrics)}},
                            expected, "reference seed cell");
  }
  return bad;
}

RunResult run_campaign_workload(const RunConfig& config) {
  const bool store_workload = config.workload == "campaign_store";
  const Json plan = plan_for(config.workload, config.seed);
  const std::size_t warm = store_workload ? kWarmPasses : 0;
  const std::optional<CellTable> pinned =
      config.pins.cells(config.workload, config.seed);
  Collected c;
  Gate& gate = c.result.gate;
  CellTable first;
  std::vector<double> cell_s;  ///< cold-pass cell intervals, pooled
  std::vector<double> events_per_s, rescan_per_s, verify_ms;
  std::uint64_t executed_total = 0;
  std::size_t iteration = 0;

  auto gate_iteration = [&](const CampaignIteration& it) {
    const std::string what = "iteration " + std::to_string(iteration);
    const std::size_t bad = gate_campaign_pass(
        it.setup, it.cold, iteration ? &first : nullptr, pinned, what, gate,
        iteration ? nullptr : &first);
    c.result.attempted += it.setup.cells.size();
    c.result.failed += std::min(bad, it.setup.cells.size());
    for (const PassResult& w : it.warm) {
      if (w.cached != it.setup.cells.size()) {
        gate.fail(what + ": warm pass re-executed cells");
        ++c.result.failed;
      }
    }
    ++iteration;
  };

  if (!config.trace) {
    const double budget_start = now_s();
    double measured = 0.0;
    // Set-up is cheap next to a pass; take more samples of it alone so its
    // median is steady. They are spread over the run, between iterations,
    // so that the median covers the same stretch of host time as the passes.
    auto sample_setups = [&](double share) {
      while (static_cast<double>(c.setup_s.size()) < kMinSetups * share) {
        const std::string dir = fresh_dir(config.work_dir, "setup");
        const CampaignSetup s = setup_campaign(plan, dir);
        c.setup_s.push_back(s.end_s - s.start_s);
      }
    };
    // At least 100 cell intervals, so the p90 has 10 samples beyond it.
    while (iteration < 2 || cell_s.size() < 100 ||
           measured < config.seconds) {
      const std::string dir =
          fresh_dir(config.work_dir, "store");
      const CampaignIteration it =
          campaign_iteration(config, plan, dir, warm);
      measured += it.end_s - it.start_s;
      c.setup_s.push_back(it.setup.end_s - it.setup.start_s);
      c.cpu_s_per_op.push_back(it.cold.cpu_s /
                               static_cast<double>(it.cold.executed));
      c.ops_per_s.push_back(static_cast<double>(it.cold.executed) /
                            it.cold.wall_s());
      std::uint64_t events = 0;
      for (const CellSample& cell : it.cold.cells) {
        cell_s.push_back(cell.end_s - cell.start_s);
        events += cell.manifest.metrics.counter(
            ringent::sim::metrics::Counter::events_fired);
      }
      events_per_s.push_back(static_cast<double>(events) / it.cold.wall_s());
      executed_total += it.cold.executed;
      for (const PassResult& w : it.warm) {
        rescan_per_s.push_back(static_cast<double>(w.cached) / w.wall_s());
      }
      if (!it.warm.empty()) verify_ms.push_back(ms(it.verify_s));
      gate_iteration(it);
      sample_setups(std::min(1.0, measured / config.seconds));
      if (now_s() - budget_start > 150.0) break;  // hard cap on a slow host
    }
    sample_setups(1.0);
    finish_end_to_end(c, {"p90 of cell intervals, pooled over cold passes",
                          percentile(cell_s, 0.90), cell_s.size(),
                          samples_beyond(cell_s, 0.90)});
    Json named = Json::object();
    named.set("cells_per_s", median(c.ops_per_s));
    named.set("sim_events_per_s", median(events_per_s));
    named.set("cell_ms_p50", ms(median(cell_s)));
    named.set("cell_ms_p90", ms(percentile(cell_s, 0.90)));
    if (!rescan_per_s.empty()) {
      named.set("rescan_cells_per_s", median(rescan_per_s));
      named.set("verify_ms", median(verify_ms));
    }
    named.set("failed_frac", static_cast<double>(c.result.failed) /
                                 static_cast<double>(c.result.attempted));
    named.set("cold_passes", c.ops_per_s.size());
    named.set("cells_executed", executed_total);
    c.result.report.set("named", named);
  } else {
    // Traced run: traced iterations alternate with untraced ones; the mean
    // untraced wall is the reference for the layer table.
    SpanRecorder spans;
    std::vector<int> roots;
    std::vector<double> untraced_walls;
    auto untraced_iteration = [&] {
      const std::string dir = fresh_dir(config.work_dir, "store-untraced");
      const CampaignIteration it = campaign_iteration(config, plan, dir, warm);
      untraced_walls.push_back(it.end_s - it.start_s);
      gate_iteration(it);
    };
    untraced_iteration();
    CampaignIteration traced;
    for (std::size_t k = 0; k < traced_iterations(config.workload); ++k) {
      traced = campaign_iteration(
          config, plan, fresh_dir(config.work_dir, "store-traced"), warm);
      gate_iteration(traced);
      roots.push_back(add_iteration_spans(spans, traced, config.workload));
      untraced_iteration();
    }
    const double untraced = mean(untraced_walls);
    const LayerTable table = layer_table(spans, roots);
    Json& m = c.result.metrics;
    check_layer_table(table, untraced, gate, c.result.report, m);
    campaign_layer_metrics(traced.setup, traced.cold, m);
    trace_samples(c.result.report, roots.size(), untraced_walls.size(),
                  "cells_in_last_traced_pass", traced.cold.cells.size());
    if (store_workload) {
      std::vector<double> rescans;
      for (const PassResult& w : traced.warm) {
        rescans.push_back(static_cast<double>(w.cached) / w.wall_s());
      }
      c.result.report.set("rescan_cells_per_s", median(rescans));
    }
    layer_probes(config, m);
    if (!config.span_path.empty()) spans.write_jsonl(config.span_path);
  }
  c.result.failed += check_reference_cells(config, plan_for(config.workload,
                                                            kReferenceSeed),
                                           gate, c.result.attempted);
  write_pin_fragment(config, Pins::cells_fragment(first));
  return std::move(c.result);
}

RunResult run_service_workload(const RunConfig& config) {
  StreamConfig stream;
  stream.seed = config.seed;
  stream.workers = std::min<std::size_t>(2, config.workers);
  const std::optional<StreamPin> pinned = config.pins.stream(config.seed);
  Collected c;
  Gate& gate = c.result.gate;
  std::optional<StreamPin> first;
  std::vector<double> mb_per_s;
  // Acquire latency percentiles per round (4096 acquires). Pooling every
  // acquire instead would make the process's memory grow with the rounds a
  // run manages. The tail in the result line is the p90: a third or more of
  // the acquires wait, and a wait sleep-polls in steps of about 0.1 ms, so
  // the p99 jumps between one and two steps as the share of two-step waits
  // crosses 1%.
  std::vector<double> round_p50_s, round_p90_s, round_p99_s;
  std::size_t acquires = 0, p90_beyond = 0;

  auto gate_round = [&](const StreamRound& round) {
    std::uint64_t bad = check_round(round, gate);
    if (!first) {
      first = round.pin;
    } else if (!gate.check_stream(round.pin, *first, "service vs round 0")) {
      ++bad;
    }
    if (pinned && !gate.check_stream(round.pin, *pinned, "service vs pins")) {
      ++bad;
    }
    c.result.attempted += round.requests;
    c.result.failed += std::min<std::uint64_t>(bad, round.requests);
  };

  if (!config.trace) {
    double measured = 0.0;
    const double budget_start = now_s();
    while (c.ops_per_s.size() < 2 || measured < config.seconds) {
      const StreamRound round = drain_stream(stream);
      measured += round.stop_end_s - round.start_s + round.setup_s;
      c.setup_s.push_back(round.setup_s);
      c.cpu_s_per_op.push_back(round.cpu_s /
                               static_cast<double>(round.requests));
      c.ops_per_s.push_back(static_cast<double>(round.requests) /
                            round.drain_s());
      mb_per_s.push_back(static_cast<double>(round.bytes) / 1e6 /
                         round.drain_s());
      round_p50_s.push_back(median(round.acquire_s));
      round_p90_s.push_back(percentile(round.acquire_s, 0.90));
      round_p99_s.push_back(percentile(round.acquire_s, 0.99));
      const std::size_t beyond = samples_beyond(round.acquire_s, 0.90);
      p90_beyond = acquires ? std::min(p90_beyond, beyond) : beyond;
      acquires += round.acquire_s.size();
      gate_round(round);
      if (now_s() - budget_start > 150.0) break;
    }
    finish_end_to_end(c, {"p90 of acquire latency, median over rounds",
                          median(round_p90_s), acquires, p90_beyond});
    Json named = Json::object();
    named.set("mb_per_s", median(mb_per_s));
    named.set("acquire_us_p50", median(round_p50_s) * 1e6);
    named.set("acquire_us_p90", median(round_p90_s) * 1e6);
    named.set("acquire_us_p99", median(round_p99_s) * 1e6);
    named.set("failed_frac", static_cast<double>(c.result.failed) /
                                 static_cast<double>(c.result.attempted));
    named.set("rounds", c.ops_per_s.size());
    named.set("bytes_per_round", first ? first->bytes : 0);
    c.result.report.set("named", named);
  } else {
    SpanRecorder spans;
    std::vector<int> roots;
    std::vector<double> untraced_walls;
    auto untraced_round = [&] {
      const StreamRound round = drain_stream(stream);
      untraced_walls.push_back(round.stop_end_s - round.start_s +
                               round.setup_s);
      gate_round(round);
    };
    untraced_round();
    StreamRound traced;
    for (std::size_t k = 0; k < traced_iterations(config.workload); ++k) {
      traced = drain_stream(stream);
      gate_round(traced);
      const double begin = traced.start_s - traced.setup_s;
      const int root =
          spans.add("bench.service_stream", -1, begin, traced.stop_end_s);
      spans.add("bench.setup", root, begin, traced.start_s);
      const int drain = spans.add("service.drain", root, traced.start_s,
                                  traced.drain_end_s);
      for (std::size_t i = 0; i < traced.acquire_s.size(); ++i) {
        spans.add("service.frontend.acquire", drain,
                  traced.acquire_start_s[i],
                  traced.acquire_start_s[i] + traced.acquire_s[i]);
      }
      spans.add("service.pool.stop", root, traced.drain_end_s,
                traced.stop_end_s);
      roots.push_back(root);
      untraced_round();
    }
    const double untraced = mean(untraced_walls);
    const LayerTable table = layer_table(spans, roots);
    Json& m = c.result.metrics;
    check_layer_table(table, untraced, gate, c.result.report, m);
    trace_samples(c.result.report, roots.size(), untraced_walls.size(),
                  "acquires_in_last_traced_round", traced.acquire_s.size());
    stream_layer_metrics(traced, m);
    layer_probes(config, m);
    if (!config.span_path.empty()) spans.write_jsonl(config.span_path);
  }

  // Reference: the same stream from a single worker must be identical (the
  // service's any-worker-count determinism contract); checked once, after
  // the timed rounds.
  StreamConfig reference = stream;
  reference.workers = 1;
  const StreamRound ref = drain_stream(reference);
  check_round(ref, gate);
  if (first && !gate.check_stream(*first, ref.pin, "service vs 1-worker")) {
    ++c.result.failed;
  }
  // Pins bind only their own seeds: every run also drains the reference
  // seed's stream and checks it against its pin.
  const std::optional<StreamPin> reference_pin =
      config.pins.stream(kReferenceSeed);
  if (reference_pin && config.seed != kReferenceSeed) {
    StreamConfig pinned_stream = stream;
    pinned_stream.seed = kReferenceSeed;
    const StreamRound round = drain_stream(pinned_stream);
    c.result.failed += check_round(round, gate);
    ++c.result.attempted;
    if (!gate.check_stream(round.pin, *reference_pin, "reference seed")) {
      ++c.result.failed;
    }
  }
  if (first) write_pin_fragment(config, Pins::stream_fragment(*first));
  return std::move(c.result);
}

}  // namespace

RunResult run_workload(const RunConfig& config) {
  RunResult result = config.workload == "service_stream"
                         ? run_service_workload(config)
                         : run_campaign_workload(config);
  if (config.trace) {
    result.metrics.set(
        "failed_frac",
        metric(static_cast<double>(result.failed) /
                   static_cast<double>(std::max<std::uint64_t>(
                       1, result.attempted)),
               "ratio"));
  }
  result.report.set("host", host_fingerprint(config.workers));
  return result;
}

}  // namespace e2ebench
