// Field lists: one declarative description per serialized struct drives its
// JSON writer, its strict reader and its parse-time bounds.
//
//   constexpr auto kRestart = fields::spec<RestartSpec>(
//       RestartSpec::spec_schema, nullptr,  // no cross-field check()
//       fields::required("ring", &RestartSpec::ring, fields::Nested{}),
//       fields::optional("restarts", &RestartSpec::restarts,
//                        fields::Integer{.min = 8}));
//   RINGENT_FIELDS_JSON(RestartSpec, kRestart)  // to_json + from_json
//
// One line per JSON key: the key, the member, whether the key is required,
// and the encoding with its bounds. Rules relating several fields go in the
// list's check(), run on the fully read struct.
//
//  * write() is total: every field, in list order (cell files store specs
//    insertion-ordered, so the order is on-disk bytes); a spec() list emits
//    its "schema" id first. Times are exact femtosecond integers, enums
//    their serialized names.
//  * read() is strict: unknown keys are named all at once, missing required
//    keys by name, and every message leads with the list's name (a spec's
//    schema id): `<name>: "<key>": <why>`, or `<name>: in "<key>": <nested
//    message>` for nested structs. A spec's "schema" key may be omitted but
//    must match when present. Absent optional keys keep the struct's
//    default member values.
//  * read(write(s)) writes the same bytes as write(s), which makes
//    canonical_dump() of a spec a stable content-key ingredient.
//
// Dispatch is static: the field tuple expands at compile time.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <vector>

#include "common/json.hpp"
#include "common/require.hpp"
#include "common/time.hpp"

namespace ringent::fields {

// --- encodings: Json write(const T&) and void read(const Json&, T&), which
// throws Error("<why>"); `nested` selects the `in "<key>":` error prefix.

/// Unsigned integer in [min, max] (max also capped by the member's type).
struct Integer {
  std::uint64_t min = 0;
  std::uint64_t max = std::numeric_limits<std::uint64_t>::max();
  static constexpr bool nested = false;

  template <typename T>
  Json write(T value) const {
    return Json(static_cast<std::uint64_t>(value));
  }
  template <typename T>
  void read(const Json& json, T& out) const {
    static_assert(std::is_unsigned_v<T>);
    const std::int64_t value = json.as_integer();
    const std::uint64_t ceiling =
        std::min<std::uint64_t>(max, std::numeric_limits<T>::max());
    if (value < 0 || static_cast<std::uint64_t>(value) < min) {
      throw Error("must be >= " + std::to_string(min));
    }
    if (static_cast<std::uint64_t>(value) > ceiling) {
      throw Error("must be <= " + std::to_string(ceiling));
    }
    out = static_cast<T>(value);
  }
};

/// Double within optional bounds; an open bound excludes its end point.
struct Number {
  double min = -std::numeric_limits<double>::infinity();
  bool min_open = false;
  double max = std::numeric_limits<double>::infinity();
  bool max_open = false;
  static constexpr bool nested = false;

  Json write(double value) const { return Json(value); }
  void read(const Json& json, double& out) const {
    const double value = json.as_number();
    const bool low = value < min || (min_open && value == min);
    if (low || value > max || (max_open && value == max)) {
      char why[48];
      std::snprintf(why, sizeof why, "must be %s %g",
                    low ? (min_open ? ">" : ">=") : (max_open ? "<" : "<="),
                    low ? min : max);
      throw Error(why);
    }
    out = value;
  }
};

struct Boolean {
  static constexpr bool nested = false;
  Json write(bool value) const { return Json(value); }
  void read(const Json& json, bool& out) const { out = json.as_boolean(); }
};

struct Text {
  static constexpr bool nested = false;
  Json write(const std::string& value) const { return Json(value); }
  void read(const Json& json, std::string& out) const {
    out = json.as_string();
  }
};

/// Enum by name: `Name` writes it, `Parse` reads it back (throwing
/// ringent::Error on an unknown name).
template <typename E, const char* (*Name)(E), auto Parse>
struct Enum {
  static constexpr bool nested = false;
  Json write(E value) const { return Json(Name(value)); }
  void read(const Json& json, E& out) const { out = Parse(json.as_string()); }
};

/// Time as an exact femtosecond integer (keys end in "_fs").
struct TimeFs {
  bool positive = false;
  static constexpr bool nested = false;

  Json write(Time value) const { return Json(value.fs()); }
  void read(const Json& json, Time& out) const {
    out = Time::from_fs(json.as_integer());
    if (positive && out <= Time::zero()) {
      throw Error("must be a positive femtosecond count");
    }
  }
};

/// A struct with its own field list, through its to_json()/from_json().
struct Nested {
  static constexpr bool nested = true;
  template <typename T>
  Json write(const T& value) const { return value.to_json(); }
  template <typename T>
  void read(const Json& json, T& out) const { out = T::from_json(json); }
};

/// std::vector of `element`; non-empty unless `allow_empty`.
template <typename Element>
struct ArrayOf {
  Element element{};
  bool allow_empty = false;
  static constexpr bool nested = Element::nested;

  template <typename T>
  Json write(const std::vector<T>& values) const {
    Json out = Json::array();
    for (const T& value : values) out.push_back(element.write(value));
    return out;
  }
  template <typename T>
  void read(const Json& json, std::vector<T>& out) const {
    if (!json.is_array() || (!allow_empty && json.size() == 0)) {
      throw Error(allow_empty ? "must be an array"
                              : "must be a non-empty array");
    }
    out.assign(json.size(), T{});
    for (std::size_t i = 0; i < json.size(); ++i) {
      element.read(json.at(i), out[i]);
    }
  }
};

// --- field lists -------------------------------------------------------------

template <typename S, typename M, typename Encoding>
struct Field {
  std::string_view key;
  M S::*member;
  bool required;
  Encoding encoding;
};

template <typename S, typename M, typename Encoding>
constexpr Field<S, M, Encoding> required(std::string_view key, M S::*member,
                                         Encoding encoding) {
  return {key, member, true, encoding};
}

template <typename S, typename M, typename Encoding>
constexpr Field<S, M, Encoding> optional(std::string_view key, M S::*member,
                                         Encoding encoding) {
  return {key, member, false, encoding};
}

template <typename S, typename... Fields>
struct List {
  std::string_view name;    ///< leads every error message
  bool has_schema;          ///< `name` is a schema id, written as "schema"
  void (*check)(const S&);  ///< cross-field rules; may be null
  std::tuple<Fields...> fields;
};

/// An experiment spec's list: `schema` is written first and checked on read.
template <typename S, typename... Fields>
constexpr List<S, Fields...> spec(std::string_view schema,
                                  void (*check)(const S&), Fields... fields) {
  return {schema, true, check, {fields...}};
}

/// A list without a schema id; `name` labels its errors.
template <typename S, typename... Fields>
constexpr List<S, Fields...> object(std::string_view name,
                                    void (*check)(const S&), Fields... fields) {
  return {name, false, check, {fields...}};
}

template <typename S, typename... Fields>
Json write(const S& value, const List<S, Fields...>& list) {
  Json out = Json::object();
  if (list.has_schema) out.set("schema", std::string(list.name));
  std::apply(
      [&](const Fields&... field) {
        (out.set(std::string(field.key),
                 field.encoding.write(value.*field.member)),
         ...);
      },
      list.fields);
  return out;
}

template <typename S, typename... Fields>
S read(const Json& json, const List<S, Fields...>& list) {
  const auto fail = [&](const std::string& why) {
    return Error(std::string(list.name) + ": " + why);
  };
  if (!json.is_object()) throw fail("must be a JSON object");

  std::string unknown;
  for (const auto& [key, value] : json.items()) {
    if (list.has_schema && key == "schema") {
      if (!value.is_string() || value.as_string() != list.name) {
        throw fail("spec declares a different schema" +
                   (value.is_string() ? " \"" + value.as_string() + "\"" : ""));
      }
    } else if (!std::apply([&](const Fields&... field) {
                 return ((field.key == key) || ...);
               }, list.fields)) {
      unknown += (unknown.empty() ? "\"" : ", \"") + key + "\"";
    }
  }
  if (!unknown.empty()) throw fail("unknown key(s) " + unknown);

  S out{};
  const auto read_field = [&](const auto& field) {
    const auto quoted = [&] { return "\"" + std::string(field.key) + "\""; };
    const Json* value = json.find(field.key);
    if (value == nullptr) {
      if (field.required) throw fail("missing required key " + quoted());
      return;
    }
    try {
      field.encoding.read(*value, out.*field.member);
    } catch (const Error& error) {
      const bool nested = std::decay_t<decltype(field.encoding)>::nested;
      throw fail((nested ? "in " : "") + quoted() + ": " + error.what());
    }
  };
  std::apply([&](const Fields&... field) { (read_field(field), ...); },
             list.fields);

  try {
    if (list.check != nullptr) list.check(out);
  } catch (const Error& error) {
    throw fail(error.what());
  }
  return out;
}

}  // namespace ringent::fields

/// Define Type::to_json() and Type::from_json() from the field list `list`.
#define RINGENT_FIELDS_JSON(Type, list)                  \
  Json Type::to_json() const {                           \
    return ::ringent::fields::write(*this, list);        \
  }                                                      \
  Type Type::from_json(const Json& json) {               \
    return ::ringent::fields::read(json, list);          \
  }
