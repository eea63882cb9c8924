// google-benchmark microbenchmarks for the simulation substrate: full ring
// models (events/second, each ring running its own event loop), the STR's
// pending-event set, and the Charlie arithmetic.
//
// The report's "context" block carries the host next to google-benchmark's
// num_cpus and mhz_per_cpu: cpu_model (from /proc/cpuinfo), affinity (the
// CPUs this process may run on) and sha_ni (whether Sha256 compresses with
// the SHA extensions). record_bench copies it into the ledger entry.
#include <benchmark/benchmark.h>
#include <sched.h>

#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "analysis/entropy90b.hpp"
#include "common/rng.hpp"
#include "core/calibration.hpp"
#include "core/experiments.hpp"
#include "core/oscillator.hpp"
#include "fpga/supply.hpp"
#include "noise/jitter.hpp"
#include "service/conditioner.hpp"
#include "service/pool.hpp"
#include "service/sha256.hpp"
#include "service/sha256_impl.hpp"
#include "ring/charlie.hpp"
#include "sim/event_queue.hpp"
#include "sim/observe.hpp"
#include "sim/parallel.hpp"
#include "trng/resilient.hpp"

using namespace ringent;
using namespace ringent::literals;

namespace {

/// Events per second of a ring built by Oscillator::build and run in 1 us
/// slices of simulated time.
void run_ring(benchmark::State& state, core::Oscillator& osc) {
  std::uint64_t events = 0;
  for (auto _ : state) {
    const std::uint64_t before = osc.events_fired();
    osc.run_for(Time::from_us(1.0));
    events += osc.events_fired() - before;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}

core::RingSpec ring_spec(core::RingKind kind, std::int64_t stages) {
  const auto n = static_cast<std::size_t>(stages);
  return kind == core::RingKind::iro ? core::RingSpec::iro(n)
                                     : core::RingSpec::str(n);
}

/// A ring at the fixed nominal operating point (no Supply).
void ring_simulation(benchmark::State& state, core::RingKind kind) {
  core::Oscillator osc = core::Oscillator::build(
      ring_spec(kind, state.range(0)), core::cyclone_iii(), {});
  run_ring(state, osc);
}

/// A ring built through a nominal Supply, as core::RingBitSource builds the
/// rings of the entropy_map and attack_resilience cells: the campaign's
/// path.
void ring_simulation_supply(benchmark::State& state, core::RingKind kind) {
  fpga::Supply supply(1.2);
  core::BuildOptions options;
  options.supply = &supply;
  core::Oscillator osc = core::Oscillator::build(
      ring_spec(kind, state.range(0)), core::cyclone_iii(), options);
  run_ring(state, osc);
}

void BM_CharlieFireTime(benchmark::State& state) {
  const ring::CharlieModel model(
      ring::CharlieParams::symmetric(260_ps, 120_ps));
  Time tf = 1_ns, tr = Time::from_ps(1100.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.fire_time(tf, tr, 0_fs, 1.5));
    tf += 1_ps;
    tr += 1_ps;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CharlieFireTime);

void BM_IroSimulation(benchmark::State& state) {
  ring_simulation(state, core::RingKind::iro);
}
BENCHMARK(BM_IroSimulation)->Arg(5)->Arg(80);

void BM_StrSimulation(benchmark::State& state) {
  ring_simulation(state, core::RingKind::str);
}
BENCHMARK(BM_StrSimulation)->Arg(8)->Arg(96);

void BM_IroSimulationSupply(benchmark::State& state) {
  ring_simulation_supply(state, core::RingKind::iro);
}
BENCHMARK(BM_IroSimulationSupply)->Arg(5);

void BM_StrSimulationSupply(benchmark::State& state) {
  ring_simulation_supply(state, core::RingKind::str);
}
BENCHMARK(BM_StrSimulationSupply)->Arg(5);

/// BM_IroSimulation/5 under an observation scope that collects metrics:
/// the ring counts in plain members and publishes once per run call, so the
/// delta against BM_IroSimulation/5 (no scope at all) is the whole price of
/// the counters on the hottest path and should sit within noise.
void BM_IroSimulationMetrics(benchmark::State& state) {
  const sim::Scope scope(sim::Collect{.metrics = true}, nullptr);
  ring_simulation(state, core::RingKind::iro);
}
BENCHMARK(BM_IroSimulationMetrics)->Arg(5);

/// BM_IroSimulation/5 under a scope that collects histograms: the delta
/// prices the distribution layer per event (a log-linear bucket_index plus
/// two adds for each of the event-gap and queue-depth histograms). With no
/// scope each probe is one thread-local load and a predicted branch.
void BM_IroSimulationTelemetry(benchmark::State& state) {
  const sim::Scope scope(sim::Collect{.histograms = true}, nullptr);
  ring_simulation(state, core::RingKind::iro);
}
BENCHMARK(BM_IroSimulationTelemetry)->Arg(5);

/// Raw queue throughput: a self-similar hold-model workload (each pop pushes
/// one event a random delay ahead) at a steady population — the classic
/// priority-queue benchmark — on FlatHeap4, the STR's pending-event set.
/// Arg: population.
void BM_EventQueueHoldModel(benchmark::State& state) {
  sim::FlatHeap4 queue;
  Xoshiro256 rng(5);
  std::uint64_t seq = 0;
  for (int i = 0; i < state.range(0); ++i) {
    queue.push({Time::from_fs(static_cast<std::int64_t>(rng.below(100000))),
                seq++, 0});
  }
  for (auto _ : state) {
    const auto event = queue.pop_min();
    queue.push({event.at + Time::from_fs(
                               static_cast<std::int64_t>(1 + rng.below(200000))),
                seq++, 0});
    benchmark::DoNotOptimize(queue.size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueHoldModel)->Arg(64)->Arg(4096)->Arg(65536);

/// The parallel sweep engine on a real experiment driver: the full Fig. 11
/// IRO stage list through run_jitter_vs_stages at 1/2/4/8 jobs. Tasks are
/// independent simulations sharded by index, so the result is bit-identical
/// at every arg; only the wall clock should move (UseRealTime).
void BM_ParallelSweep(benchmark::State& state) {
  const auto& cal = core::cyclone_iii();
  const std::vector<std::size_t> stages = {3, 5, 9, 15, 25, 40, 60, 80};
  core::ExperimentOptions options;
  options.board_index = 0;
  options.jobs = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    const auto points = core::run_jitter_vs_stages(
        core::JitterSweepSpec{core::RingKind::iro, stages}, cal, options);
    benchmark::DoNotOptimize(points.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(stages.size()));
}
BENCHMARK(BM_ParallelSweep)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// BM_ParallelSweep under a scope that collects metrics (a child scope per
/// pool task, a run manifest built per iteration and written when
/// RINGENT_OUT_DIR is set). Compare against BM_ParallelSweep at the same
/// arg to price the enabled observability layer on a real driver.
void BM_ParallelSweepMetrics(benchmark::State& state) {
  const sim::Scope scope(sim::Collect{.metrics = true}, nullptr);
  const auto& cal = core::cyclone_iii();
  const std::vector<std::size_t> stages = {3, 5, 9, 15, 25, 40, 60, 80};
  core::ExperimentOptions options;
  options.board_index = 0;
  options.jobs = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    const auto points = core::run_jitter_vs_stages(
        core::JitterSweepSpec{core::RingKind::iro, stages}, cal, options);
    benchmark::DoNotOptimize(points.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(stages.size()));
}
BENCHMARK(BM_ParallelSweepMetrics)
    ->Arg(1)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// BM_ParallelSweep under a scope that collects histograms (event gaps,
/// queue depths, Charlie delays and pool-task durations recorded in each
/// task's child scope). Compare against BM_ParallelSweep at the same arg to
/// price the enabled distribution layer on a real driver.
void BM_ParallelSweepTelemetry(benchmark::State& state) {
  const sim::Scope scope(sim::Collect{.histograms = true}, nullptr);
  const auto& cal = core::cyclone_iii();
  const std::vector<std::size_t> stages = {3, 5, 9, 15, 25, 40, 60, 80};
  core::ExperimentOptions options;
  options.board_index = 0;
  options.jobs = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    const auto points = core::run_jitter_vs_stages(
        core::JitterSweepSpec{core::RingKind::iro, stages}, cal, options);
    benchmark::DoNotOptimize(points.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(stages.size()));
}
BENCHMARK(BM_ParallelSweepTelemetry)
    ->Arg(1)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// Same engine on the restart-technique population (64 restarts + control).
void BM_ParallelRestart(benchmark::State& state) {
  const auto& cal = core::cyclone_iii();
  const core::RingSpec spec = core::RingSpec::iro(9);
  core::ExperimentOptions options;
  options.jobs = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    const auto result = core::run_restart_experiment(
        core::RestartSpec{spec, 64, 256}, cal, options);
    benchmark::DoNotOptimize(result.points.data());
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_ParallelRestart)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_GaussianNoise(benchmark::State& state) {
  noise::GaussianNoise source(2.0, 42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(source.sample_ps());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GaussianNoise);

/// Full SP 800-90B battery (all six estimators + lag-8 autocorrelation)
/// over a balanced pseudo-random stream. Arg = stream length in bits; 4096
/// is the entropy_map per-cell default, 65536 stresses the suffix-array
/// t-tuple/LRS path (O(L log L)) and the compression bisection. "Items"
/// are input bits, so events_per_sec reads as bits assessed per second.
void BM_Entropy90B(benchmark::State& state) {
  const std::size_t bits = static_cast<std::size_t>(state.range(0));
  Xoshiro256 rng(0x90B);
  analysis::BitStream stream;
  stream.reserve(bits);
  for (std::size_t i = 0; i < bits; ++i) stream.append((rng.next() & 1) != 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::estimate_entropy90b(stream));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(bits));
}
BENCHMARK(BM_Entropy90B)->Arg(4096)->Arg(65536);

/// Health-monitored raw-bit production: ResilientGenerator::fill_bytes
/// over a service::PrngBitSource under the default policy, 256-byte calls
/// as GeneratorPool pumps them. "Items" are raw bits, so events_per_sec
/// reads as raw bits/sec through the RCT/APT and the degradation machine.
void BM_ResilientFillBytes(benchmark::State& state) {
  service::PrngBitSource source(1);
  trng::ResilientGenerator generator(source, nullptr);
  std::uint8_t out[256];
  for (auto _ : state) {
    benchmark::DoNotOptimize(generator.fill_bytes(out, 4096));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(generator.stats().bits_in));
}
BENCHMARK(BM_ResilientFillBytes);

/// The chained SHA-256 conditioner (ratio 2) on 256-byte pumps. "Items"
/// are raw bytes absorbed.
void BM_HashConditioner(benchmark::State& state) {
  service::HashConditioner conditioner(2);
  std::uint8_t raw[256];
  Xoshiro256 rng(0x5A);
  for (auto& byte : raw) byte = static_cast<std::uint8_t>(rng.next());
  std::vector<std::uint8_t> out;
  out.reserve(256);
  for (auto _ : state) {
    out.clear();
    conditioner.process(raw, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(sizeof raw));
}
BENCHMARK(BM_HashConditioner);

/// SHA-256 over one 64 KiB update(), the multi-block path, plus its
/// finish(). "Items" are bytes hashed.
void BM_Sha256Update(benchmark::State& state) {
  std::vector<std::uint8_t> message(64 * 1024);
  Xoshiro256 rng(0x5B);
  for (auto& byte : message) byte = static_cast<std::uint8_t>(rng.next());
  service::Sha256 hash;
  for (auto _ : state) {
    hash.reset();
    hash.update(message);
    benchmark::DoNotOptimize(hash.finish());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(message.size()));
}
BENCHMARK(BM_Sha256Update);

/// Entropy-service saturation: a full pool -> SPSC ring -> conditioner ->
/// front-end drain with synthetic PRNG-backed slot sources (real ring
/// sources would measure the oscillator simulation, not the service
/// layer). Arg = pool worker threads. "Items" are conditioned bytes
/// delivered through acquire(), so events_per_sec reads as service
/// bytes/sec; the per-run stream is bit-identical across Arg values.
void BM_ServiceThroughput(benchmark::State& state) {
  const std::size_t workers = static_cast<std::size_t>(state.range(0));
  core::EntropyServiceSpec spec;
  spec.slots = 4;
  spec.raw_bits_per_slot = 1u << 18;
  std::int64_t bytes = 0;
  for (auto _ : state) {
    core::ExperimentOptions options;
    options.jobs = workers;
    const core::EntropyServiceResult result =
        core::run_entropy_service(spec, core::cyclone_iii(), options);
    benchmark::DoNotOptimize(result.stream_fnv);
    bytes += static_cast<std::int64_t>(result.bytes_delivered);
  }
  state.SetItemsProcessed(bytes);
}
BENCHMARK(BM_ServiceThroughput)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) break;
    return line.substr(line.find_first_not_of(' ', colon + 1));
  }
  return "unknown";
}

/// The CPUs this process may run on, as "0,1,2,3".
std::string affinity() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return "unknown";
  std::string out;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &set)) continue;
    if (!out.empty()) out += ',';
    out += std::to_string(cpu);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::AddCustomContext("cpu_model", cpu_model());
  benchmark::AddCustomContext("affinity", affinity());
  benchmark::AddCustomContext(
      "sha_ni", service::detail::cpu_has_sha_ni() ? "yes" : "no");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
