#include "sim/trace.hpp"

#include <cstdio>

#include "common/json.hpp"
#include "common/require.hpp"
#include "sim/observe.hpp"

namespace ringent::sim::trace {

File::File(const std::string& path) : path_(path) {
  RINGENT_REQUIRE(!path.empty(), "trace path must not be empty");
  out_.open(path);
  RINGENT_REQUIRE(out_.good(), "cannot open trace file " + path);
  out_ << "{\n \"displayTimeUnit\": \"ms\",\n \"traceEvents\": [\n";
  out_.flush();
  io_failed_ = !out_.good();
  t0_ = std::chrono::steady_clock::now();
}

File::~File() {
  try {
    close();
  } catch (const std::exception& error) {
    std::fprintf(stderr, "ringent: %s\n", error.what());
  }
}

void File::close() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (closed_) return;
  closed_ = true;
  // Balance whatever is still open so the serialized file always parses.
  for (std::size_t tid = 0; tid < open_.size(); ++tid) {
    while (!open_[tid].empty()) {
      const OpenSpan span = std::move(open_[tid].back());
      open_[tid].pop_back();
      write_event(span.name, span.category, 'E', static_cast<int>(tid));
    }
  }
  out_ << "\n]}\n";
  out_.flush();
  const bool failed = io_failed_ || !out_.good();
  out_.close();
  if (failed) throw Error("I/O error writing trace file " + path_);
}

bool File::write(const std::string& name, const std::string& category,
                 bool begin) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (closed_) return false;
  const std::thread::id id = std::this_thread::get_id();
  std::size_t tid = 0;
  while (tid < tids_.size() && tids_[tid] != id) ++tid;
  if (tid == tids_.size()) {
    tids_.push_back(id);
    open_.emplace_back();
  }
  write_event(name, category, begin ? 'B' : 'E', static_cast<int>(tid));
  if (begin) {
    open_[tid].push_back({name, category});
  } else if (!open_[tid].empty()) {
    open_[tid].pop_back();
  }
  return true;
}

/// Append one event object and flush, so a crashed process leaves every
/// span recorded so far on disk. Caller holds `mutex_`.
void File::write_event(const std::string& name, const std::string& category,
                       char phase, int tid) {
  Json event = Json::object();
  event.set("name", name);
  event.set("cat", category);
  event.set("ph", std::string(1, phase));
  event.set("ts", std::chrono::duration<double, std::micro>(
                      std::chrono::steady_clock::now() - t0_)
                      .count());
  event.set("pid", 1);
  event.set("tid", tid);
  if (!first_event_) out_ << ",\n";
  first_event_ = false;
  out_ << event.dump();
  out_.flush();
  if (!out_.good()) io_failed_ = true;
}

bool enabled() {
  const Scope* scope = Scope::current();
  return scope != nullptr && scope->collects().trace != nullptr;
}

Span::Span(std::string_view name, std::string_view category) {
  const Scope* scope = Scope::current();
  if (scope == nullptr || scope->collects().trace == nullptr) return;
  name_ = name;
  category_ = category;
  if (scope->collects().trace->write(name_, category_, true)) {
    file_ = scope->collects().trace;
  }
}

Span::~Span() {
  if (file_ != nullptr) file_->write(name_, category_, false);
}

}  // namespace ringent::sim::trace
