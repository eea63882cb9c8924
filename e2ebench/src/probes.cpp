#include "probes.hpp"

#include <algorithm>
#include <filesystem>

#include "campaign/key.hpp"
#include "common/rng.hpp"
#include "service/conditioner.hpp"
#include "service/pool.hpp"
#include "service/ring_buffer.hpp"
#include "trng/resilient.hpp"

namespace e2ebench {

namespace fs = std::filesystem;
using ringent::sim::metrics::Counter;

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"campaign.plan.expand_ms", "ms"},
      {"campaign.key.us_per_cell", "us"},
      {"campaign.store.overhead_ms_per_cell", "ms"},
      {"campaign.store.rebuild_index_ms", "ms"},
      {"campaign.store.cell_bytes", "bytes"},
      {"campaign.overhead_share", "ratio"},
      {"campaign.store.load_us_per_cell", "us"},
      {"core.driver_ms", "ms"},
      {"core.cpu_util", "ratio"},
      {"core.phase.build_ms", "ms"},
      {"core.phase.run_ms", "ms"},
      {"core.phase.analyze_ms", "ms"},
      {"sim.ns_per_event", "ns"},
      {"ring.iro.ns_per_event", "ns"},
      {"ring.str.ns_per_event", "ns"},
      {"sim.events_fired", "count"},
      {"sim.events_scheduled", "count"},
      {"ring.charlie_evaluations", "count"},
      {"sim.heap_pushes", "count"},
      {"sim.calendar_pushes", "count"},
      {"trng.health.bits_muted", "count"},
      {"trng.health.transitions", "count"},
      {"service.pool.raw_bits_in", "count"},
      {"service.pool.conditioned_bytes", "count"},
      {"trng.resilient.mbit_per_s", "Mbit/s"},
      {"service.conditioner.mb_per_s", "MB/s"},
      {"service.pool.producer_mbit_per_s", "Mbit/s"},
      {"service.ring_buffer.ns_per_byte", "ns"},
      {"service.frontend.wait_frac", "ratio"},
      {"service.frontend.consumer_busy_frac", "ratio"},
      {"bench.trace_overhead_ms", "ms"},
      {"bench.layer_residual_frac", "ratio"},
      {"bench.sum_vs_untraced_frac", "ratio"},
      {"failed_frac", "ratio"},
  };
  return names;
}

namespace {

void put(Json& metrics, const std::string& name, double value) {
  for (const auto& [known, unit] : per_layer_metrics()) {
    if (known == name) {
      metrics.set(name, metric(value, unit));
      return;
    }
  }
  throw std::logic_error("unknown per-layer metric " + name);
}

/// Median wall time of `reps` calls of `fn`.
template <typename Fn>
double median_time_s(int reps, Fn&& fn) {
  std::vector<double> times;
  for (int i = 0; i < reps; ++i) {
    const double t = now_s();
    fn();
    times.push_back(now_s() - t);
  }
  return median(times);
}

bool single_kind_map(const ringent::campaign::CampaignCell& cell,
                     const char* kind) {
  if (cell.experiment != "entropy_map") return false;
  const Json* kinds = cell.spec.find("kinds");
  return kinds && kinds->size() == 1 && kinds->at(0).as_string() == kind;
}

double run_phase_cpu_ms(const ringent::core::RunManifest& m) {
  for (const auto& phase : m.metrics.phases) {
    if (phase.name == "run") return phase.cpu_ms;
  }
  return 0.0;
}

}  // namespace

void campaign_layer_metrics(const CampaignSetup& setup, const PassResult& cold,
                            Json& m) {
  const auto& store = *setup.store;
  const double n = static_cast<double>(setup.cells.size());

  put(m, "campaign.plan.expand_ms",
      1e3 * median_time_s(5, [&] { ringent::campaign::expand_plan(setup.plan); }));
  put(m, "campaign.key.us_per_cell", 1e6 / n * median_time_s(5, [&] {
        for (const auto& cell : setup.cells) {
          ringent::campaign::content_key({cell.experiment, cell.schema,
                                          cell.spec, cell.seed, cell.device});
        }
      }));
  put(m, "campaign.store.load_us_per_cell", 1e6 / n * median_time_s(3, [&] {
        for (const auto& cell : setup.cells) {
          if (!store.has_valid(cell.key)) {
            throw std::runtime_error("store lost a cell record");
          }
        }
      }));
  put(m, "campaign.store.rebuild_index_ms",
      1e3 * median_time_s(3, [&] { store.rebuild_index(); }));
  double bytes = 0.0;
  for (const auto& cell : setup.cells) {
    bytes += static_cast<double>(fs::file_size(store.cell_path(cell.key)));
  }
  put(m, "campaign.store.cell_bytes", bytes / n);

  double overhead_s = 0.0, wall_ms = 0.0, cpu_ms = 0.0;
  double build_ms = 0.0, run_ms = 0.0, analyze_ms = 0.0;
  double run_cpu_all = 0.0, events_all = 0.0;
  double run_cpu_kind[2] = {0.0, 0.0}, events_kind[2] = {0.0, 0.0};
  const std::pair<Counter, const char*> counted[] = {
      {Counter::events_fired, "sim.events_fired"},
      {Counter::events_scheduled, "sim.events_scheduled"},
      {Counter::charlie_evaluations, "ring.charlie_evaluations"},
      {Counter::heap_pushes, "sim.heap_pushes"},
      {Counter::calendar_pushes, "sim.calendar_pushes"},
      {Counter::health_bits_muted, "trng.health.bits_muted"},
      {Counter::health_transitions, "trng.health.transitions"}};
  std::vector<std::uint64_t> counts(std::size(counted), 0);
  for (const CellSample& cell : cold.cells) {
    const auto& man = cell.manifest;
    const double driver_s = cell.driver_s();
    overhead_s += (cell.end_s - cell.start_s) - driver_s;
    wall_ms += man.wall_ms;
    cpu_ms += man.cpu_ms;
    const PhaseWalls walls = attribute_phases(man, driver_s);
    build_ms += walls.build_s * 1e3;
    run_ms += walls.run_s * 1e3;
    analyze_ms += walls.analyze_s * 1e3;
    const double run_cpu = run_phase_cpu_ms(man);
    const double events =
        static_cast<double>(man.metrics.counter(Counter::events_fired));
    run_cpu_all += run_cpu;
    events_all += events;
    const auto& planned = setup.cells[cell.index];
    for (int k = 0; k < 2; ++k) {
      if (single_kind_map(planned, k == 0 ? "iro" : "str")) {
        run_cpu_kind[k] += run_cpu;
        events_kind[k] += events;
      }
    }
    for (std::size_t k = 0; k < counts.size(); ++k) {
      counts[k] += man.metrics.counter(counted[k].first);
    }
  }
  const double cells = std::max<double>(1.0, cold.cells.size());
  put(m, "campaign.store.overhead_ms_per_cell", overhead_s * 1e3 / cells);
  put(m, "campaign.overhead_share", overhead_s / cold.wall_s());
  put(m, "core.driver_ms", wall_ms / cells);
  put(m, "core.cpu_util", wall_ms > 0.0 ? cpu_ms / wall_ms : 0.0);
  put(m, "core.phase.build_ms", build_ms);
  put(m, "core.phase.run_ms", run_ms);
  put(m, "core.phase.analyze_ms", analyze_ms);
  if (events_all > 0.0) {
    put(m, "sim.ns_per_event", run_cpu_all * 1e6 / events_all);
  }
  if (events_kind[0] > 0.0) {
    put(m, "ring.iro.ns_per_event", run_cpu_kind[0] * 1e6 / events_kind[0]);
  }
  if (events_kind[1] > 0.0) {
    put(m, "ring.str.ns_per_event", run_cpu_kind[1] * 1e6 / events_kind[1]);
  }
  for (std::size_t k = 0; k < counts.size(); ++k) {
    put(m, counted[k].second, static_cast<double>(counts[k]));
  }
}

void stream_layer_metrics(const StreamRound& round, Json& m) {
  double in_acquire = 0.0;
  for (const double s : round.acquire_s) in_acquire += s;
  put(m, "service.pool.producer_mbit_per_s",
      static_cast<double>(round.raw_bits_in) / 1e6 / round.drain_s());
  put(m, "service.frontend.wait_frac",
      static_cast<double>(round.waits) /
          static_cast<double>(std::max<std::uint64_t>(1, round.requests)));
  put(m, "service.frontend.consumer_busy_frac",
      1.0 - in_acquire / round.drain_s());
  put(m, "service.pool.raw_bits_in", static_cast<double>(round.raw_bits_in));
  put(m, "service.pool.conditioned_bytes",
      static_cast<double>(round.conditioned_bytes));
  put(m, "trng.health.bits_muted", static_cast<double>(round.bits_muted));
  put(m, "trng.health.transitions", static_cast<double>(round.transitions));
}

namespace {

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  ringent::Xoshiro256 rng(seed);
  std::vector<std::uint8_t> out(n);
  for (std::size_t i = 0; i < n; i += 8) {
    const std::uint64_t word = rng.next();
    for (std::size_t b = 0; b < 8 && i + b < n; ++b) {
      out[i + b] = static_cast<std::uint8_t>(word >> (8 * b));
    }
  }
  return out;
}

void direct_probes(std::uint64_t seed, Json& m) {
  using namespace ringent;
  {
    constexpr std::size_t raw_bits = 1u << 23;
    std::vector<std::uint8_t> out(raw_bits / 8);
    const double s = median_time_s(3, [&] {
      service::PrngBitSource primary(derive_seed(seed, "probe-primary"));
      service::PrngBitSource backup(derive_seed(seed, "probe-backup"));
      trng::ResilientGenerator generator(primary, &backup);
      generator.fill_bytes(std::span<std::uint8_t>(out), raw_bits);
    });
    put(m, "trng.resilient.mbit_per_s", raw_bits / 1e6 / s);
  }
  {
    const std::vector<std::uint8_t> raw = random_bytes(1u << 20, seed);
    std::vector<std::uint8_t> out;
    out.reserve(raw.size());
    const double s = median_time_s(5, [&] {
      service::HashConditioner conditioner(2);
      out.clear();
      conditioner.process(raw, out);
    });
    put(m, "service.conditioner.mb_per_s", raw.size() / 1e6 / s);
  }
  {
    constexpr std::size_t total = 32u << 20, chunk = 256;
    const std::vector<std::uint8_t> in = random_bytes(chunk, seed);
    std::vector<std::uint8_t> out(chunk);
    std::uint64_t sink = 0;
    const double s = median_time_s(3, [&] {
      service::SpscRing ring(4096);
      for (std::size_t done = 0; done < total; done += chunk) {
        ring.try_push(in);
        sink += ring.try_pop(out);
      }
    });
    if (sink == 0) throw std::runtime_error("ring buffer probe moved nothing");
    put(m, "service.ring_buffer.ns_per_byte", s * 1e9 / total);
  }
}

}  // namespace

void layer_probes(const RunConfig& config, Json& m) {
  direct_probes(config.seed, m);

  auto missing = [&](const std::string& name) { return !m.contains(name); };
  // Counts belong to the workload alone: a bypassed layer counted nothing.
  for (const auto& [name, unit] : per_layer_metrics()) {
    if (unit == "count" && missing(name)) put(m, name, 0.0);
  }
  auto merge = [&](const Json& probe) {
    for (const auto& [name, value] : probe.items()) {
      if (missing(name)) m.set(name, value);
    }
  };
  if (missing("campaign.plan.expand_ms") || missing("ring.iro.ns_per_event") ||
      missing("ring.str.ns_per_event")) {
    const std::string dir = (fs::path(config.work_dir) / "probe-store").string();
    const CampaignSetup setup = setup_campaign(probe_plan(config.seed), dir);
    const PassResult pass = run_pass(setup, config.workers);
    Json probe = Json::object();
    campaign_layer_metrics(setup, pass, probe);
    merge(probe);
  }
  if (missing("service.pool.producer_mbit_per_s")) {
    StreamConfig stream;
    stream.seed = config.seed;
    stream.workers = std::min<std::size_t>(2, config.workers);
    stream.raw_bits_per_slot = 1u << 20;
    Json probe = Json::object();
    stream_layer_metrics(drain_stream(stream), probe);
    merge(probe);
  }
}

}  // namespace e2ebench
