// Optional Chrome-trace span collection for whole-run timelines.
//
// When a trace session is active, Span objects record begin/end ("B"/"E")
// events as Chrome trace JSON — load the file in chrome://tracing or
// https://ui.perfetto.dev to see driver phases, experiment axes and
// parallel-pool tasks laid out per thread. The writer streams: every event
// is appended and flushed as it happens, so a crashed or killed process
// leaves a truncated-but-loadable trace (Perfetto tolerates a missing
// array terminator) instead of losing the whole buffer; stop() balances
// any still-open spans with synthesized "E" events and closes the JSON so
// a normal exit always yields a well-formed file. The span vocabulary,
// coarse by design (spans bracket whole simulations, never ring events):
//
//   cat "driver" — one span per experiment-driver invocation
//   cat "axis"   — one span per sweep point (the body of a pool task)
//   cat "pool"   — one span per ThreadPool task slot
//   cat "bench"  — whole-binary spans opened by bench/cli.hpp
//
// Like the metrics layer, collection is off by default and every probe
// starts with one relaxed atomic load. Unlike counters, span recording
// takes a mutex — acceptable at span granularity.
//
// Activate with start(path), the RINGENT_TRACE=<file> environment variable
// (init_from_env), or the --trace <file> flag of the sweep benches. stop()
// writes the file; it is also registered with atexit so benches cannot
// forget to flush.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace ringent::sim::trace {

/// True while a session is collecting spans.
bool enabled();

/// Begin collecting; the file is opened immediately and events stream to it
/// as they are recorded. Starting while a session is active throws (one
/// file per run).
void start(const std::string& path);

/// Balance still-open spans, close the JSON and end the session. No-op when
/// no session is active. Throws ringent::Error on I/O failure (including
/// failures of earlier streamed writes).
void stop();

/// Path of the active session ("" when none).
std::string current_path();

/// Start a session when RINGENT_TRACE names a file and no session is
/// active. Returns the resulting enabled state.
bool init_from_env();

/// RAII span: records a "B" event on construction and the matching "E" on
/// destruction, tagged with the calling thread. Free (one relaxed load)
/// when no session is active; a span whose session stops mid-life was
/// already balanced by stop() and its destructor no-ops.
class Span {
 public:
  Span(std::string_view name, std::string_view category);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool active_ = false;
  std::uint64_t session_ = 0;
  std::string name_;
  std::string category_;
};

}  // namespace ringent::sim::trace
