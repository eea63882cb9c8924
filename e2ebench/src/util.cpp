#include "util.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <stdexcept>
#include <thread>
#include <utility>

namespace e2ebench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) throw std::invalid_argument("percentile of no samples");
  if (!(q >= 0.0 && q <= 1.0)) {
    throw std::invalid_argument("percentile outside [0, 1]");
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) throw std::invalid_argument("mean of no samples");
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

std::size_t samples_beyond(const std::vector<double>& values, double q) {
  const double cut = percentile(values, q);
  return static_cast<std::size_t>(std::count_if(
      values.begin(), values.end(), [cut](double v) { return v > cut; }));
}

int SpanRecorder::add(std::string name, int parent, double start_s,
                      double end_s, Json attrs) {
  if (parent >= static_cast<int>(spans_.size())) {
    throw std::invalid_argument("span parent does not exist yet");
  }
  spans_.push_back({std::move(name), parent, start_s, end_s, std::move(attrs)});
  return static_cast<int>(spans_.size()) - 1;
}

std::vector<double> SpanRecorder::self_times_s() const {
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const Span& span : spans_) {
    if (span.parent < 0) continue;
    const Span& parent = spans_[static_cast<std::size_t>(span.parent)];
    const double lo = std::max(span.start_s, parent.start_s);
    const double hi = std::min(span.end_s, parent.end_s);
    if (hi > lo) {
      children[static_cast<std::size_t>(span.parent)].emplace_back(lo, hi);
    }
  }
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double run_lo = 0.0, run_hi = 0.0;
    bool open = false;
    for (const auto& [lo, hi] : kids) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    self[i] = spans_[i].duration_s() - covered;
  }
  return self;
}

void SpanRecorder::write_jsonl(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write span file " + path);
  const double origin = spans_.empty() ? 0.0 : spans_.front().start_s;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    Json line = Json::object();
    line.set("id", static_cast<std::int64_t>(i));
    line.set("name", span.name);
    line.set("parent", static_cast<std::int64_t>(span.parent));
    line.set("start_s", span.start_s - origin);
    line.set("end_s", span.end_s - origin);
    line.set("attrs", span.attrs);
    out << line.dump() << '\n';
  }
}

std::uint64_t fnv1a(std::span<const std::uint8_t> bytes, std::uint64_t hash) {
  for (const std::uint8_t b : bytes) hash = (hash ^ b) * 1099511628211ull;
  return hash;
}

double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: ru_maxrss survives fork + exec, so a
  // child of a bigger launcher (python) would report the launcher's peak.
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

namespace {

std::size_t affinity_cpus(std::string* mask_text) {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) {
    if (mask_text) *mask_text = "unknown";
    return std::max(1u, std::thread::hardware_concurrency());
  }
  std::string text;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &set)) continue;
    if (!text.empty()) text += ',';
    text += std::to_string(cpu);
  }
  if (mask_text) *mask_text = text;
  return static_cast<std::size_t>(CPU_COUNT(&set));
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::size_t start = colon + 1;
        while (start < line.size() && line[start] == ' ') ++start;
        return line.substr(start);
      }
    }
  }
  return "unknown";
}

}  // namespace

std::size_t bench_workers() {
  return std::min<std::size_t>(4, affinity_cpus(nullptr));
}

Json host_fingerprint(std::size_t workers) {
  std::string mask;
  const std::size_t cpus = affinity_cpus(&mask);
  Json host = Json::object();
  host.set("cpu_model", cpu_model());
  host.set("nproc", static_cast<std::uint64_t>(cpus));
  host.set("hardware_concurrency",
           static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  host.set("affinity", mask);
  host.set("workers", static_cast<std::uint64_t>(workers));
  return host;
}

Json metric(double value, const std::string& unit) {
  Json entry = Json::object();
  entry.set("value", value);
  entry.set("unit", unit);
  return entry;
}

}  // namespace e2ebench
