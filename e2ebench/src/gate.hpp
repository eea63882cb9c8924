// The benchmark's correctness gate. Every run, traced or not, checks what
// the program produced:
//
//  * campaign workloads: verify_campaign(...).ok() on every store, and each
//    cell's simulation counters (keyed by content key) against the first
//    pass of the same run and, for pinned seeds, against e2ebench/pins.json;
//  * service_stream: the FNV-1a hash and length of every drained stream
//    against the first round, against a single-worker reference round and,
//    for pinned seeds, against the pinned value.
//
// The pinned counters exclude the manifest's `version` field, the queue-
// route counters (heap/calendar pushes and pops may move when the queue
// choice changes) and pool_tasks.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "campaign/plan.hpp"
#include "campaign/runner.hpp"
#include "campaign/store.hpp"
#include "common/json.hpp"
#include "sim/metrics.hpp"

namespace e2ebench {

/// The counters a cell is pinned on, in table order.
const std::vector<ringent::sim::metrics::Counter>& pinned_counters();

/// content key -> pinned counter values (pinned_counters() order).
using CellTable = std::map<std::string, std::vector<std::uint64_t>>;

/// Counter values of one manifest in pinned_counters() order.
std::vector<std::uint64_t> pinned_values(
    const ringent::sim::metrics::Snapshot& metrics);

/// Load every planned cell's record from `store`; cells without a valid
/// record are absent from the table.
CellTable load_cell_table(const std::vector<ringent::campaign::CampaignCell>& cells,
                          const ringent::campaign::ResultStore& store);

/// A fingerprint of one drained service stream.
struct StreamPin {
  std::uint64_t fnv = 0;
  std::uint64_t bytes = 0;
  bool operator==(const StreamPin&) const = default;
};

/// Collects gate failures; a run is correct only when none were recorded.
class Gate {
 public:
  void fail(std::string message);
  bool ok() const { return errors_.empty(); }
  const std::vector<std::string>& errors() const { return errors_; }

  /// Compare a cell table against a reference (`what` names it). Every
  /// reference key must be present with identical values, and `got` must
  /// hold no extra keys. Returns the number of cells that differ.
  std::size_t check_cells(const CellTable& got, const CellTable& want,
                          const std::string& what);

  /// Record a failure unless `report.ok()`; returns 1 on failure.
  std::size_t check_verify(const ringent::campaign::VerifyReport& report,
                           const std::string& what);

  /// Record a failure unless the two stream fingerprints agree.
  bool check_stream(const StreamPin& got, const StreamPin& want,
                    const std::string& what);

 private:
  std::vector<std::string> errors_;
};

/// Pinned values for a few (workload, seed) pairs, read from a JSON file:
///
///   {"schema": "e2ebench.pins/1",
///    "counters": ["events_scheduled", ...],
///    "campaign_sim":   {"<seed>": {"<key>": [v, ...], ...}},
///    "campaign_store": {"<seed>": {...}},
///    "service_stream": {"<seed>": {"fnv": "<16 hex>", "bytes": n}}}
class Pins {
 public:
  Pins() = default;
  /// Parse `path`; throws when the file is unreadable, malformed, or lists
  /// counters other than pinned_counters().
  static Pins load(const std::string& path);

  std::optional<CellTable> cells(const std::string& workload,
                                 std::uint64_t seed) const;
  std::optional<StreamPin> stream(std::uint64_t seed) const;

  /// Serialize one workload/seed entry as a pins.json fragment (the
  /// --pin-out output that run.py merges).
  static ringent::Json cells_fragment(const CellTable& table);
  static ringent::Json stream_fragment(const StreamPin& pin);

 private:
  ringent::Json doc_;
};

}  // namespace e2ebench
