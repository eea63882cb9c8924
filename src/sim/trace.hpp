// Chrome-trace span collection for whole-run timelines.
//
// A trace::File is one Chrome trace JSON file — load it in chrome://tracing
// or https://ui.perfetto.dev to see driver phases, experiment axes and
// parallel-pool tasks laid out per thread. An observation scope that was
// opened with a trace file (`--observe trace=FILE`, sim/observe.hpp) shares
// it with every scope under it, pool tasks included, and Span objects
// created under those scopes record begin/end ("B"/"E") events into it. The
// writer streams: every event is appended and flushed as it happens, so a
// crashed or killed process leaves a truncated-but-loadable trace (Perfetto
// tolerates a missing array terminator) instead of losing the whole buffer;
// close() balances any still-open spans with synthesized "E" events and
// closes the JSON. The span vocabulary, coarse by design (spans bracket
// whole simulations, never ring events):
//
//   cat "driver" — one span per experiment-driver invocation
//   cat "axis"   — one span per sweep point (the body of a pool task)
//   cat "pool"   — one span per ThreadPool task slot
//
// With no traced scope current, a Span is one thread-local load. Recording
// takes the file's mutex — acceptable at span granularity.
#pragma once

#include <chrono>
#include <cstdint>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace ringent::sim::trace {

class File {
 public:
  /// Opens `path` and writes the JSON header; throws ringent::Error when the
  /// file cannot be opened.
  explicit File(const std::string& path);
  /// Closes the file if close() was not called, reporting an I/O error on
  /// stderr instead of throwing.
  ~File();
  File(const File&) = delete;
  File& operator=(const File&) = delete;

  /// Balance still-open spans and close the JSON. Later spans no-op. Throws
  /// ringent::Error on I/O failure, including failures of earlier streamed
  /// writes; a second call does nothing.
  void close();

  const std::string& path() const { return path_; }

 private:
  friend class Span;
  struct OpenSpan {
    std::string name;
    std::string category;
  };

  /// Record a 'B' (begin = true) or 'E' event for the calling thread.
  /// False once the file is closed. Caller must not hold `mutex_`.
  bool write(const std::string& name, const std::string& category,
             bool begin);
  void write_event(const std::string& name, const std::string& category,
                   char phase, int tid);

  std::mutex mutex_;
  std::string path_;
  std::ofstream out_;
  std::chrono::steady_clock::time_point t0_;
  bool closed_ = false;
  bool first_event_ = true;
  bool io_failed_ = false;
  std::vector<std::thread::id> tids_;        ///< index = stable small tid
  std::vector<std::vector<OpenSpan>> open_;  ///< per-tid stack of open spans
};

/// True when the current scope writes a trace.
bool enabled();

/// RAII span: records a "B" event on construction and the matching "E" on
/// destruction, tagged with the calling thread, in the current scope's
/// trace file. Free (one thread-local load) when nothing traces; a span
/// whose file was closed mid-life was already balanced by close() and its
/// destructor no-ops.
class Span {
 public:
  Span(std::string_view name, std::string_view category);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::shared_ptr<File> file_;  ///< null when nothing traces
  std::string name_;
  std::string category_;
};

}  // namespace ringent::sim::trace
