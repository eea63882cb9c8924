// The benchmark's workloads. Each one drives the library only through its
// public entry points (campaign::expand_plan / run_campaign /
// verify_campaign / ResultStore, core::last_run_manifest,
// service::GeneratorPool / EntropyService::acquire), times what a user
// waits for, and runs the correctness gate (gate.hpp) on what it produced.
//
//   campaign_sim    cold campaigns over ~a dozen simulation-heavy cells
//   campaign_store  cold + warm campaigns over >= 100 near-free cells
//   service_stream  a single consumer draining conditioned bytes
//
// Untraced runs report the end-to-end metrics; traced runs report the
// per-layer metrics, the layer table and the tracing overhead (README.md
// has the metric -> layer -> workload map).
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "campaign/plan.hpp"
#include "campaign/store.hpp"
#include "common/json.hpp"
#include "core/export.hpp"
#include "gate.hpp"
#include "util.hpp"

namespace e2ebench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::size_t workers = 4;
  std::string work_dir;   ///< scratch root: stores and manifest files
  std::string span_path;  ///< traced runs write their spans here ("" = no)
  Pins pins;
  std::string pin_out;    ///< write this run's pins fragment here ("" = no)
};

struct RunResult {
  Gate gate;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Json metrics = Json::object();  ///< the contract metrics of this mode
  Json report = Json::object();   ///< named extras, sample counts, host, table
};

const std::vector<std::string>& workload_names();

/// Run one workload; throws only on a benchmark bug or unusable config
/// (gate failures are recorded in the result, not thrown).
RunResult run_workload(const RunConfig& config);

// --- building blocks, exposed for the self-tests ---------------------------

/// The campaign plans, a pure function of the seed.
Json campaign_sim_plan(std::uint64_t seed);
Json campaign_store_plan(std::uint64_t seed);
/// A few tiny cells of every campaign layer, for traced runs of workloads
/// that bypass the campaign.
Json probe_plan(std::uint64_t seed);

/// One executed cell seen from outside the runner: the interval since the
/// previous progress callback, and the (unnormalized) manifest its driver
/// emitted.
struct CellSample {
  std::size_t index = 0;  ///< position in the expanded plan
  double start_s = 0.0;
  double end_s = 0.0;
  ringent::core::RunManifest manifest;

  /// The driver's wall, clipped to the interval. The rest of the interval
  /// is runner overhead: record, put, index rebuild (and, for the first
  /// cell, plan expansion and the cache scan).
  double driver_s() const {
    return std::min(end_s - start_s, manifest.wall_ms * 1e-3);
  }
};

/// A driver's wall split among its build/run/analyze phases by each phase's
/// share of the driver's process CPU. Phase timers add up over the driver's
/// worker threads, so their raw walls can exceed the driver's wall; the
/// remainder of `driver_s` is driver glue.
struct PhaseWalls {
  double build_s = 0.0;
  double run_s = 0.0;
  double analyze_s = 0.0;
};
PhaseWalls attribute_phases(const ringent::core::RunManifest& manifest,
                            double driver_s);

struct PassResult {
  double start_s = 0.0;
  double end_s = 0.0;
  double cpu_s = 0.0;  ///< process CPU (all threads) during the pass
  std::size_t executed = 0;
  std::size_t cached = 0;
  std::vector<CellSample> cells;  ///< executed cells, in order

  double wall_s() const { return end_s - start_s; }
};

/// Parse the plan, expand it and open a fresh store under `dir`: the
/// campaign set-up, timed as a whole.
struct CampaignSetup {
  ringent::campaign::CampaignPlan plan;
  std::vector<ringent::campaign::CampaignCell> cells;
  std::unique_ptr<ringent::campaign::ResultStore> store;
  double start_s = 0.0;
  double expand_start_s = 0.0;
  double expand_end_s = 0.0;
  double end_s = 0.0;
};
CampaignSetup setup_campaign(const Json& plan_json, const std::string& dir);

/// One run_campaign call with a progress callback that timestamps cells.
PassResult run_pass(const CampaignSetup& setup, std::size_t jobs);

/// Configuration of one service drain: 4 PrngBitSource slots (each with a
/// backup), SHA-256 conditioner at ratio 2, 256-byte requests.
struct StreamConfig {
  std::uint64_t seed = 1;
  std::size_t workers = 2;
  std::uint64_t raw_bits_per_slot = 1u << 22;
  bool keep_bytes = false;  ///< keep the delivered stream (self-tests)
};

struct StreamRound {
  double setup_s = 0.0;
  double start_s = 0.0;       ///< pool.start()
  double drain_end_s = 0.0;   ///< end-of-stream seen
  double stop_end_s = 0.0;    ///< pool.stop() returned
  double cpu_s = 0.0;         ///< process CPU from start to end-of-stream
  std::vector<double> acquire_s;  ///< one per returning acquire
  std::vector<double> acquire_start_s;
  std::uint64_t requests = 0;
  std::uint64_t bytes = 0;
  std::uint64_t waits = 0;
  std::uint64_t short_failures = 0;  ///< short returns with slots still live
  std::uint64_t early_starvations = 0;  ///< starved with slots still live
  std::uint64_t raw_bits_in = 0;
  std::uint64_t conditioned_bytes = 0;
  std::uint64_t bits_muted = 0;
  std::uint64_t transitions = 0;
  StreamPin pin;
  std::vector<std::uint8_t> stream;  ///< only with keep_bytes

  double drain_s() const { return drain_end_s - start_s; }
};
StreamRound drain_stream(const StreamConfig& config);

/// Gate checks of one drained round that need no reference: delivered
/// bytes match the pool's production and no consumer saw a starvation or
/// short read before the budget was spent. Returns the failures counted.
std::uint64_t check_round(const StreamRound& round, Gate& gate);

}  // namespace e2ebench
