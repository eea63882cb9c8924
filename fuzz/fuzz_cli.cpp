// libFuzzer harness for the front-end flag values: sim::parse_jobs_value /
// sim::resolve_jobs (the --jobs and RINGENT_JOBS text) and the --observe
// grammar (sim::parse_observe / sim::to_string).
//
// The input is split on newlines/NULs into argv-like tokens. Contract
// enforced on every input:
//  * every token, and every value of a "--jobs VALUE" / "--jobs=VALUE"
//    pair, parses as a jobs count without throwing; a rejected value
//    leaves the count untouched, and whatever --jobs text an attacker
//    supplies, the *resolved* worker count always lands in
//    [1, max_jobs()] — the bug class where "--jobs=99999999999999999999"
//    asked ThreadPool for ~2^64 threads;
//  * every token, read as an --observe value, parses without throwing;
//    an item is either kept or reported (a value with no reported problem
//    prints back with as many items as it had), and
//    parse(print(parse(x))) == parse(x).
#include <cstdint>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

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

void check_jobs(const char* text) {
  std::size_t jobs = 7;
  if (!ringent::sim::parse_jobs_value(text, jobs) && jobs != 7) std::abort();
  const std::size_t resolved = ringent::sim::resolve_jobs(jobs);
  if (resolved < 1 || resolved > ringent::sim::max_jobs()) std::abort();
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  constexpr std::size_t max_tokens = 256;
  std::vector<std::string> tokens;
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
  constexpr std::string_view jobs_eq = "--jobs=";
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const std::string& token = tokens[i];
    check_observe(token);
    check_jobs(token.c_str());
    if (token == "--jobs" && i + 1 < tokens.size()) {
      check_jobs(tokens[i + 1].c_str());
    } else if (token.compare(0, jobs_eq.size(), jobs_eq) == 0) {
      check_jobs(token.c_str() + jobs_eq.size());
    }
  }
  return 0;
}
