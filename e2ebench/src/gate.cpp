#include "gate.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace e2ebench {

using ringent::Json;
using ringent::sim::metrics::Counter;

const std::vector<Counter>& pinned_counters() {
  static const std::vector<Counter> counters = {
      Counter::events_scheduled,    Counter::events_fired,
      Counter::events_cancelled,    Counter::charlie_evaluations,
      Counter::token_collision_checks, Counter::fault_activations,
      Counter::health_rct_alarms,   Counter::health_apt_alarms,
      Counter::health_transitions,  Counter::health_bits_muted,
      Counter::health_relock_attempts, Counter::health_failovers,
      Counter::health_failures,
  };
  return counters;
}

std::vector<std::uint64_t> pinned_values(
    const ringent::sim::metrics::Snapshot& metrics) {
  std::vector<std::uint64_t> values;
  for (const Counter counter : pinned_counters()) {
    values.push_back(metrics.counter(counter));
  }
  return values;
}

CellTable load_cell_table(
    const std::vector<ringent::campaign::CampaignCell>& cells,
    const ringent::campaign::ResultStore& store) {
  CellTable table;
  for (const auto& cell : cells) {
    const auto record = store.load(cell.key);
    if (record) table[cell.key] = pinned_values(record->manifest.metrics);
  }
  return table;
}

void Gate::fail(std::string message) { errors_.push_back(std::move(message)); }

std::size_t Gate::check_cells(const CellTable& got, const CellTable& want,
                              const std::string& what) {
  std::size_t bad = 0;
  for (const auto& [key, values] : want) {
    const auto it = got.find(key);
    if (it == got.end()) {
      fail(what + ": cell " + key.substr(0, 12) + " has no valid record");
      ++bad;
    } else if (it->second != values) {
      fail(what + ": cell " + key.substr(0, 12) + " counters differ");
      ++bad;
    }
  }
  for (const auto& [key, values] : got) {
    if (want.find(key) == want.end()) {
      fail(what + ": unexpected cell " + key.substr(0, 12));
      ++bad;
    }
  }
  return bad;
}

std::size_t Gate::check_verify(const ringent::campaign::VerifyReport& report,
                               const std::string& what) {
  if (report.ok()) return 0;
  fail(what + ": verify_campaign failed (missing " +
       std::to_string(report.missing) + ", torn " +
       std::to_string(report.torn) + ", index " +
       (report.index_consistent ? "consistent" : "inconsistent") + ")");
  return 1;
}

bool Gate::check_stream(const StreamPin& got, const StreamPin& want,
                        const std::string& what) {
  if (got == want) return true;
  char text[160];
  std::snprintf(text, sizeof(text),
                ": stream fnv %016llx/%llu bytes, expected %016llx/%llu",
                static_cast<unsigned long long>(got.fnv),
                static_cast<unsigned long long>(got.bytes),
                static_cast<unsigned long long>(want.fnv),
                static_cast<unsigned long long>(want.bytes));
  fail(what + text);
  return false;
}

Pins Pins::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read pins file " + path);
  std::ostringstream text;
  text << in.rdbuf();
  Pins pins;
  pins.doc_ = Json::parse(text.str());
  const Json& names = pins.doc_.at("counters");
  const auto& want = pinned_counters();
  bool same = names.size() == want.size();
  for (std::size_t i = 0; same && i < want.size(); ++i) {
    same = names.at(i).as_string() ==
           ringent::sim::metrics::counter_name(want[i]);
  }
  if (!same) throw std::runtime_error(path + ": counter list differs");
  return pins;
}

std::optional<CellTable> Pins::cells(const std::string& workload,
                                     std::uint64_t seed) const {
  const Json* by_seed = doc_.is_object() ? doc_.find(workload) : nullptr;
  const Json* entry = by_seed ? by_seed->find(std::to_string(seed)) : nullptr;
  if (!entry) return std::nullopt;
  CellTable table;
  for (const auto& [key, values] : entry->items()) {
    std::vector<std::uint64_t>& row = table[key];
    for (std::size_t i = 0; i < values.size(); ++i) {
      row.push_back(static_cast<std::uint64_t>(values.at(i).as_integer()));
    }
  }
  return table;
}

std::optional<StreamPin> Pins::stream(std::uint64_t seed) const {
  const Json* by_seed = doc_.is_object() ? doc_.find("service_stream") : nullptr;
  const Json* entry = by_seed ? by_seed->find(std::to_string(seed)) : nullptr;
  if (!entry) return std::nullopt;
  StreamPin pin;
  pin.fnv = std::stoull(entry->at("fnv").as_string(), nullptr, 16);
  pin.bytes = static_cast<std::uint64_t>(entry->at("bytes").as_integer());
  return pin;
}

Json Pins::cells_fragment(const CellTable& table) {
  Json out = Json::object();
  for (const auto& [key, values] : table) {
    Json row = Json::array();
    for (const std::uint64_t v : values) row.push_back(v);
    out.set(key, std::move(row));
  }
  return out;
}

Json Pins::stream_fragment(const StreamPin& pin) {
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(pin.fnv));
  Json out = Json::object();
  out.set("fnv", std::string(hex));
  out.set("bytes", pin.bytes);
  return out;
}

}  // namespace e2ebench
