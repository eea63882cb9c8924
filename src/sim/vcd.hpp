// Value Change Dump (IEEE 1364) writer.
//
// Lets examples dump ring waveforms viewable in GTKWave — e.g. the token
// cluster of a bursting STR vs the uniform wave of the evenly-spaced mode
// (paper Fig. 5). Timescale is 1 fs to match the simulation grid.
#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "sim/probe.hpp"

namespace ringent::sim {

class VcdWriter {
 public:
  /// `module_name` becomes the single VCD scope.
  explicit VcdWriter(std::string module_name = "ringent");

  /// Register a trace to dump. Traces must outlive write(). Signals appear in
  /// registration order; names are taken from the traces.
  void add_signal(const SignalTrace& trace);

  /// Write the full dump to `os`. All registered traces are merged into one
  /// time-ordered change stream. Signals with no transition before the first
  /// recorded change are emitted as 'x' in $dumpvars.
  void write(std::ostream& os) const;

  /// Convenience: write to a file; throws ringent::Error on I/O failure.
  void write_file(const std::string& path) const;

 private:
  std::string module_name_;
  std::vector<const SignalTrace*> traces_;
};

}  // namespace ringent::sim
