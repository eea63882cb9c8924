// Ring configuration specs — the user-facing handle of the library.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

#include "common/json.hpp"
#include "ring/str_logic.hpp"

namespace ringent::core {

enum class RingKind { iro, str };

/// Display name: "IRO" / "STR".
const char* to_string(RingKind kind);
/// Serialized name: "iro" / "str".
const char* ring_kind_name(RingKind kind);
/// Inverse of ring_kind_name; throws ringent::Error on anything else.
RingKind parse_ring_kind(std::string_view name);

const char* to_string(ring::TokenPlacement placement);
ring::TokenPlacement parse_token_placement(std::string_view name);

/// Declarative description of one oscillator, in the paper's nomenclature:
/// "IRO 5C" is a 5-stage inverter ring, "STR 96C" a 96-stage self-timed ring.
struct RingSpec {
  RingKind kind = RingKind::iro;
  std::size_t stages = 5;

  /// STR only: number of tokens NT; 0 means "NT = NB" (stages/2, rounded
  /// down to even), the paper's default initialization (Eq. 2).
  std::size_t tokens = 0;

  /// STR only: initial token placement.
  ring::TokenPlacement placement = ring::TokenPlacement::evenly_spread;

  static RingSpec iro(std::size_t stages);
  static RingSpec str(std::size_t stages, std::size_t tokens = 0,
                      ring::TokenPlacement placement =
                          ring::TokenPlacement::evenly_spread);

  /// Effective token count after resolving the NT = NB default.
  std::size_t effective_tokens() const;

  /// Paper-style display name, e.g. "STR 96C".
  std::string name() const;

  /// Validate the spec (throws PreconditionError when unusable).
  void validate() const;

  /// Serialized form, driven by its field list in core/spec_json.cpp
  /// (common/fields.hpp): every field always present; from_json rejects
  /// unknown keys and validates the result.
  Json to_json() const;
  static RingSpec from_json(const Json& json);
};

}  // namespace ringent::core
