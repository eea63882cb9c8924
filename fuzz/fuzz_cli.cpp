// libFuzzer harness for the shared front-end CLI surface: bench::parse_cli,
// sim::parse_jobs_arg / sim::resolve_jobs, and the --observe grammar
// (sim::parse_observe / sim::to_string).
//
// The input is split on newlines/NULs into an argv vector (argv[0] fixed).
// Contract enforced on every input:
//  * flag parsing never throws and never crashes, whatever the tokens;
//  * whatever --jobs text an attacker supplies, the *resolved* worker count
//    always lands in [1, max_jobs()] — the bug class where
//    "--jobs=99999999999999999999" asked ThreadPool for ~2^64 threads;
//  * every token, read as an --observe value, parses without throwing;
//    an item is either kept or reported (a value with no reported problem
//    prints back with as many items as it had), and
//    parse(print(parse(x))) == parse(x).
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "cli.hpp"
#include "sim/observe.hpp"
#include "sim/parallel.hpp"

namespace {

std::size_t items(const std::string& text) {
  if (text.empty()) return 0;
  std::size_t n = 1;
  for (const char c : text) n += c == ',' ? 1 : 0;
  return n;
}

void check_observe(const std::string& text) {
  using ringent::sim::ObserveSpec;
  std::vector<std::string> errors;
  const ObserveSpec spec = ringent::sim::parse_observe(text, &errors);
  const std::string printed = ringent::sim::to_string(spec);
  if (errors.empty() && items(printed) != items(text)) std::abort();
  std::vector<std::string> reparse_errors;
  if (ringent::sim::parse_observe(printed, &reparse_errors) != spec) {
    std::abort();
  }
  if (!reparse_errors.empty()) std::abort();
  if (ringent::sim::parse_observe(text) != spec) std::abort();
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  constexpr std::size_t max_tokens = 256;
  std::vector<std::string> tokens;
  tokens.emplace_back("fuzz_cli");
  std::string current;
  for (std::size_t i = 0; i < size && tokens.size() < max_tokens; ++i) {
    const char c = static_cast<char>(data[i]);
    if (c == '\n' || c == '\0') {
      tokens.push_back(current);
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  if (!current.empty() && tokens.size() < max_tokens) {
    tokens.push_back(current);
  }
  std::vector<char*> argv;
  argv.reserve(tokens.size());
  for (auto& token : tokens) argv.push_back(token.data());
  const int argc = static_cast<int>(argv.size());
  for (const auto& token : tokens) check_observe(token);

  const ringent::bench::CliOptions options =
      ringent::bench::parse_cli(argc, argv.data(), /*diagnostics=*/nullptr);
  const std::size_t resolved = ringent::sim::resolve_jobs(options.jobs);
  if (resolved < 1 || resolved > ringent::sim::max_jobs()) std::abort();

  const std::size_t raw = ringent::sim::parse_jobs_arg(argc, argv.data());
  const std::size_t raw_resolved = ringent::sim::resolve_jobs(raw);
  if (raw_resolved < 1 || raw_resolved > ringent::sim::max_jobs()) {
    std::abort();
  }
  return 0;
}
