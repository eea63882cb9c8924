// libFuzzer harness for the campaign file formats: the plan loader
// ("ringent.campaign-plan/1"), the store index ("ringent.campaign/1") and
// the cell record ("ringent.campaign-cell/1") — the three documents a
// resumable campaign reads back from disk, i.e. the torn-write detection
// surface of campaign/store.cpp — plus the experiment spec documents every
// plan cell is canonicalized from ("ringent.spec.<experiment>/1").
//
// Contract enforced on every input, per loader:
//  * malformed documents (bad JSON, unknown schema, unknown keys, unsorted
//    index, a cell record whose stored key does not hash its own content)
//    fail with ringent::Error — never crash, never accept;
//  * an accepted document round-trips: to_json must not throw, and
//    from_json(to_json(x)) must serialize to the identical bytes.
// and per registry experiment: canonicalize() either rejects the input
// with ringent::Error or returns a fixpoint — canonicalizing its dump again
// yields the identical bytes.
//
// Expansion (expand_plan) is deliberately NOT fuzzed here: a structurally
// valid plan can declare combinatorially many cells, and the fuzzer's job
// is the parse boundary, not the grid arithmetic.
#include <cstdint>
#include <cstdlib>
#include <string>
#include <string_view>

#include "campaign/plan.hpp"
#include "campaign/store.hpp"
#include "common/json.hpp"
#include "common/require.hpp"
#include "core/registry.hpp"

namespace {

template <typename T>
void check_loader(const ringent::Json& parsed) {
  T value;
  try {
    value = T::from_json(parsed);
  } catch (const ringent::Error&) {
    return;  // rejected cleanly
  }
  // Accepted documents must survive a full write -> read -> write cycle.
  const std::string dumped = value.to_json().dump(2);
  const T reloaded = T::from_json(ringent::Json::parse(dumped));
  if (reloaded.to_json().dump(2) != dumped) std::abort();
}

void check_canonicalizers(const ringent::Json& parsed) {
  for (const auto& entry : ringent::core::experiment_registry()) {
    ringent::Json once;
    try {
      once = entry.canonicalize(parsed);
    } catch (const ringent::Error&) {
      continue;  // rejected cleanly
    }
    const std::string dumped = once.dump();
    if (entry.canonicalize(ringent::Json::parse(dumped)).dump() != dumped) {
      std::abort();
    }
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::string_view text(reinterpret_cast<const char*>(data), size);
  ringent::Json parsed;
  try {
    parsed = ringent::Json::parse(text);
  } catch (const ringent::Error&) {
    return 0;  // not JSON: nothing further to check
  }
  check_loader<ringent::campaign::CampaignPlan>(parsed);
  check_loader<ringent::campaign::CampaignIndex>(parsed);
  check_loader<ringent::campaign::CellRecord>(parsed);
  check_canonicalizers(parsed);
  return 0;
}
