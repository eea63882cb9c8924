#include "sim/observe.hpp"

#include <algorithm>

#include "sim/trace.hpp"

namespace ringent::sim {

namespace detail {

constinit thread_local Scope* current = nullptr;

}  // namespace detail

namespace {

/// The phase called `name` in `phases`, appended (zeroed) when missing.
metrics::PhaseStat& phase_named(std::vector<metrics::PhaseStat>& phases,
                                std::string_view name) {
  for (auto& phase : phases) {
    if (phase.name == name) return phase;
  }
  phases.push_back({std::string(name)});
  return phases.back();
}

/// Add `from` into `into`, matching phases by name.
void add_phases(std::vector<metrics::PhaseStat>& into,
                const std::vector<metrics::PhaseStat>& from) {
  for (const auto& phase : from) {
    metrics::PhaseStat& total = phase_named(into, phase.name);
    total.wall_ms += phase.wall_ms;
    total.cpu_ms += phase.cpu_ms;
    total.calls += phase.calls;
  }
}

void add_block(telemetry::detail::Block& into,
               const telemetry::detail::Block& from) {
  for (std::size_t h = 0; h < telemetry::histogram_count; ++h) {
    for (std::size_t b = 0; b < telemetry::bucket_count; ++b) {
      into.buckets[h][b] += from.buckets[h][b];
    }
    into.sums[h] += from.sums[h];
  }
}

}  // namespace

ObserveSpec parse_observe(std::string_view text,
                          std::vector<std::string>* errors) {
  ObserveSpec spec;
  bool seen_metrics = false, seen_trace = false, seen_telemetry = false;
  const auto report = [errors](std::string message) {
    if (errors != nullptr) errors->push_back(std::move(message));
  };
  if (text.empty()) return spec;
  std::size_t start = 0;
  for (;;) {
    const std::size_t comma = text.find(',', start);
    const std::string_view item = text.substr(
        start, comma == std::string_view::npos ? comma : comma - start);
    const std::size_t eq = item.find('=');
    const std::string_view key = item.substr(0, eq);
    const bool has_value = eq != std::string_view::npos;
    const std::string value(has_value ? item.substr(eq + 1) : "");
    bool* seen = nullptr;
    if (item.empty()) {
      report("empty item");
    } else if (key == "metrics") {
      if (has_value) {
        report("'metrics' takes no value, got '" + std::string(item) + "'");
      } else {
        spec.metrics = true;
        seen = &seen_metrics;
      }
    } else if (key == "trace" || key == "telemetry") {
      if (value.empty()) {
        report("'" + std::string(key) + "' needs a file: " +
               std::string(key) + "=FILE");
      } else {
        (key == "trace" ? spec.trace : spec.telemetry) = value;
        seen = key == "trace" ? &seen_trace : &seen_telemetry;
      }
    } else {
      report("unknown item '" + std::string(item) +
             "' (expected metrics, trace=FILE or telemetry=FILE)");
    }
    if (seen != nullptr) {
      if (*seen) report("'" + std::string(key) + "' given twice");
      *seen = true;
    }
    if (comma == std::string_view::npos) break;
    start = comma + 1;
  }
  return spec;
}

std::string to_string(const ObserveSpec& spec) {
  std::string out;
  const auto item = [&out](const std::string& text) {
    if (!out.empty()) out += ',';
    out += text;
  };
  if (spec.metrics) item("metrics");
  if (!spec.trace.empty()) item("trace=" + spec.trace);
  if (!spec.telemetry.empty()) item("telemetry=" + spec.telemetry);
  return out;
}

Collect Collect::from(const ObserveSpec& spec) {
  Collect what;
  what.metrics = spec.metrics;
  if (!spec.trace.empty()) {
    what.trace = std::make_shared<trace::File>(spec.trace);
  }
  if (!spec.telemetry.empty()) {
    what.telemetry = std::make_shared<TelemetrySink>(spec.telemetry);
  }
  return what;
}

Scope::Scope(Collect what, Scope* parent)
    : collect_(std::move(what)), parent_(parent), previous_(current()) {
  if (collect_.telemetry != nullptr) collect_.histograms = true;
  if (collect_.histograms) {
    own_.histograms = std::make_unique<telemetry::detail::Block>();
  }
  make_current(this);
}

Scope::Scope()
    : Scope(current() != nullptr ? current()->collects() : Collect{},
            current()) {}

Scope::~Scope() {
  if (parent_ != nullptr) {
    const std::lock_guard<std::mutex> own_lock(mutex_);
    const std::lock_guard<std::mutex> parent_lock(parent_->mutex_);
    parent_->add(parent_->merged_, own_);
    parent_->add(parent_->merged_, merged_);
  }
  make_current(previous_);
}

void Scope::make_current(Scope* scope) {
  detail::current = scope;
  metrics::detail::counters =
      scope != nullptr && scope->collect_.metrics ? &scope->own_.counters
                                                  : nullptr;
  telemetry::detail::block =
      scope != nullptr ? scope->own_.histograms.get() : nullptr;
}

void Scope::add(Totals& into, const Totals& from) const {
  if (collect_.metrics) {
    for (std::size_t i = 0; i < metrics::counter_count; ++i) {
      into.counters[i] += from.counters[i];
    }
    add_phases(into.phases, from.phases);
  }
  if (collect_.histograms) {
    if (from.histograms != nullptr) {
      if (into.histograms == nullptr) {
        into.histograms = std::make_unique<telemetry::detail::Block>();
      }
      add_block(*into.histograms, *from.histograms);
    }
    into.streams.insert(into.streams.end(), from.streams.begin(),
                        from.streams.end());
  }
}

metrics::Snapshot Scope::metrics() const {
  metrics::Snapshot out;
  out.counters = own_.counters;
  out.phases = own_.phases;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t i = 0; i < metrics::counter_count; ++i) {
      out.counters[i] += merged_.counters[i];
    }
    add_phases(out.phases, merged_.phases);
  }
  std::sort(out.phases.begin(), out.phases.end(),
            [](const auto& a, const auto& b) { return a.name < b.name; });
  return out;
}

telemetry::Snapshot Scope::histograms() const {
  if (own_.histograms == nullptr) return telemetry::Snapshot::of(nullptr);
  auto total = std::make_unique<telemetry::detail::Block>(*own_.histograms);
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (merged_.histograms != nullptr) add_block(*total, *merged_.histograms);
  }
  return telemetry::Snapshot::of(total.get());
}

std::vector<trng::telemetry::StreamStats> Scope::streams() const {
  std::vector<trng::telemetry::StreamStats> out = own_.streams;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    out.insert(out.end(), merged_.streams.begin(), merged_.streams.end());
  }
  std::stable_sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.label < b.label;
  });
  return out;
}

void Scope::add_phase(std::string_view name, double wall_s, double cpu_s) {
  metrics::PhaseStat& phase = phase_named(own_.phases, name);
  phase.wall_ms += wall_s * 1e3;
  phase.cpu_ms += cpu_s * 1e3;
  ++phase.calls;
}

void Scope::publish(trng::telemetry::StreamStats stats) {
  if (collect_.histograms) own_.streams.push_back(std::move(stats));
}

}  // namespace ringent::sim
