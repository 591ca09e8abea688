// Declarative field tables for journaled records (DESIGN.md §12, §16).
//
// A record type lists its fields once, in wire order: per field the wire
// key, the entry tag and how to reach the member.  The codec follows from
// the member's type (entry syntax: frame_log.h): integers `u` (signed ones
// as their two's-complement image), enums `u` checked against their last
// enumerator, bool `b`, double and Seconds `d` (hexfloat), string `s`,
// vector<double> `D`, vector<size_t> `U`, vector<string> `L`, TestLog `s`
// via Serialize/Parse, optional<V> as V (absent when empty), and any other
// type `s` as a nested record through its own table.
//
// Encode() walks the table in order, so the bytes are a pure function of
// the table.  Decode() dispatches each entry by key: unknown keys are
// skipped (older binaries read newer journals); a wrong tag, an
// out-of-range value or a missing `required` key is a CheckError.
#pragma once

#include <algorithm>
#include <chrono>
#include <concepts>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.h"
#include "harness/frame_log.h"

namespace mlpm::harness::schema {

template <class T>
struct FieldDesc {
  std::string_view key;
  char tag = '?';
  bool required = false;
  void (*put)(std::string& out, std::string_view key, const T& record) =
      nullptr;
  void (*get)(wire::Field& entry, T& record) = nullptr;
};

template <class T>
using Table = std::span<const FieldDesc<T>>;

// The field table of record type T, specialized next to the record's codec
// and declared in that codec's header.
template <class T>
[[nodiscard]] Table<T> FieldsOf();

// ---- record codec -------------------------------------------------------

template <class T>
[[nodiscard]] std::string Encode(const T& record) {
  std::string out;
  for (const FieldDesc<T>& f : FieldsOf<T>()) f.put(out, f.key, record);
  return out;
}

template <class T>
[[nodiscard]] T Decode(const std::string& payload) {
  const Table<T> fields = FieldsOf<T>();
  T record{};
  std::vector<bool> seen(fields.size(), false);
  wire::PayloadParser parser(payload);
  wire::Field entry;
  while (parser.Next(entry)) {
    const auto it = std::find_if(
        fields.begin(), fields.end(),
        [&entry](const FieldDesc<T>& f) { return f.key == entry.key; });
    if (it == fields.end()) continue;
    Expects(entry.tag == it->tag, [&] {
      return "journal: key '" + entry.key + "' has tag '" + entry.tag +
             "', expected '" + it->tag + "'";
    });
    it->get(entry, record);
    seen[static_cast<std::size_t>(it - fields.begin())] = true;
  }
  for (std::size_t i = 0; i < fields.size(); ++i)
    Expects(!fields[i].required || seen[i], [&] {
      return "journal: record has no '" + std::string(fields[i].key) + "'";
    });
  return record;
}

// ---- per-type codec -----------------------------------------------------

namespace detail {
template <class V>
concept Optional = std::same_as<V, std::optional<typename V::value_type>>;
template <class V>
concept SelfSerializing = requires(const V& v, const std::string& s) {
  { v.Serialize() } -> std::same_as<std::string>;
  { V::Parse(s) } -> std::same_as<V>;
};
using Seconds = std::chrono::duration<double>;

template <class V>
std::string Scalar(const V& v) {
  if constexpr (std::is_same_v<V, bool>) return v ? "1" : "0";
  else if constexpr (std::is_same_v<V, double>) return wire::HexDouble(v);
  else if constexpr (std::is_same_v<V, Seconds>)
    return wire::HexDouble(v.count());
  else return std::to_string(static_cast<std::uint64_t>(v));
}
// "<len>\n<bytes>\n" of a string, a self-serializing value or a record.
template <class V>
void AppendBlock(std::string& out, const V& v) {
  if constexpr (std::is_convertible_v<const V&, std::string_view>) {
    const std::string_view bytes = v;
    out += std::to_string(bytes.size());
    out += '\n';
    out += bytes;
    out += '\n';
  } else if constexpr (SelfSerializing<V>) {
    AppendBlock(out, v.Serialize());
  } else {
    AppendBlock(out, Encode(v));
  }
}
}  // namespace detail

template <class V>
[[nodiscard]] constexpr char TagOf() {
  using detail::Seconds;
  if constexpr (detail::Optional<V>) return TagOf<typename V::value_type>();
  else if constexpr (std::is_same_v<V, bool>) return 'b';
  else if constexpr (std::is_integral_v<V> || std::is_enum_v<V>) return 'u';
  else if constexpr (std::is_same_v<V, double>) return 'd';
  else if constexpr (std::is_same_v<V, Seconds>) return 'd';
  else if constexpr (std::is_same_v<V, std::vector<double>>) return 'D';
  else if constexpr (std::is_same_v<V, std::vector<std::size_t>>) return 'U';
  else if constexpr (std::is_same_v<V, std::vector<std::string>>) return 'L';
  else return 's';
}

// Appends one entry for `v` (nothing for an empty optional).
template <class V>
void Put(std::string& out, std::string_view key, const V& v) {
  constexpr char tag = TagOf<V>();
  if constexpr (detail::Optional<V>) {
    if (v) Put(out, key, *v);
  } else {
    out += tag;
    out += ' ';
    out += key;
    out += ' ';
    if constexpr (tag == 'D' || tag == 'U') {
      out += std::to_string(v.size());
      for (const auto& e : v) out += ' ' + detail::Scalar(e);
      out += '\n';
    } else if constexpr (tag == 'L') {
      out += std::to_string(v.size());
      out += '\n';
      for (const auto& e : v) detail::AppendBlock(out, e);
    } else if constexpr (tag == 's') {
      detail::AppendBlock(out, v);
    } else {
      out += detail::Scalar(v);
      out += '\n';
    }
  }
}

// Reads one entry (already matched by key and tag) into `v`; an enum value
// past `Last` is rejected.
template <auto Last = 0, class V>
void Get(wire::Field& f, V& v) {
  if constexpr (detail::Optional<V>) {
    Get<Last>(f, v.emplace());
  } else if constexpr (std::is_enum_v<V>) {
    static_assert(std::is_same_v<decltype(Last), V>,
                  "an enum field names its last enumerator");
    const std::uint64_t u = wire::ParseU64(f.scalar);
    Expects(u <= static_cast<std::uint64_t>(Last),
            [&] { return "journal: bad " + f.key + " " + f.scalar; });
    v = static_cast<V>(u);
  } else if constexpr (std::is_same_v<V, bool>) {
    Expects(f.scalar == "0" || f.scalar == "1",
            [&] { return "journal: bad bool " + f.key + " " + f.scalar; });
    v = f.scalar == "1";
  } else if constexpr (std::is_integral_v<V>) {
    using Wide = std::conditional_t<std::is_signed_v<V>, std::int64_t,
                                    std::uint64_t>;
    const auto w = static_cast<Wide>(wire::ParseU64(f.scalar));
    Expects(std::in_range<V>(w),
            [&] { return "journal: " + f.key + " out of range: " + f.scalar; });
    v = static_cast<V>(w);
  } else if constexpr (std::is_same_v<V, double>) {
    v = wire::ParseDouble(f.scalar);
  } else if constexpr (std::is_same_v<V, detail::Seconds>) {
    v = detail::Seconds(wire::ParseDouble(f.scalar));
  } else if constexpr (std::is_same_v<V, std::vector<double>>) {
    v = std::move(f.doubles);
  } else if constexpr (std::is_same_v<V, std::vector<std::size_t>>) {
    v.assign(f.uints.begin(), f.uints.end());
  } else if constexpr (std::is_same_v<V, std::vector<std::string>>) {
    v = std::move(f.strings);
  } else if constexpr (std::is_same_v<V, std::string>) {
    v = std::move(f.bytes);
  } else if constexpr (detail::SelfSerializing<V>) {
    v = V::Parse(f.bytes);
  } else {
    v = Decode<V>(f.bytes);
  }
}

// ---- table entries ------------------------------------------------------

namespace detail {
template <class P>
struct MemberPointer;
template <class C, class V>
struct MemberPointer<V C::*> {
  using Class = C;
};
template <auto M>
using ClassOf = typename MemberPointer<decltype(M)>::Class;
}  // namespace detail

// A field reached through `Access(record)`, which returns a reference for
// const and mutable records alike (e.g. the task id inside `entry`).
// `Last` is the last enumerator of an enum field.
template <class C, auto Access, auto Last = 0>
[[nodiscard]] constexpr FieldDesc<C> Via(std::string_view key,
                                         bool required = false) {
  using V = std::remove_cvref_t<decltype(Access(std::declval<C&>()))>;
  return {key, TagOf<V>(), required,
          [](std::string& out, std::string_view k, const C& r) {
            Put(out, k, Access(r));
          },
          [](wire::Field& f, C& r) { Get<Last>(f, Access(r)); }};
}

// A field stored in data member M.
template <auto M, auto Last = 0>
[[nodiscard]] constexpr FieldDesc<detail::ClassOf<M>> Member(
    std::string_view key, bool required = false) {
  return Via<detail::ClassOf<M>, [](auto& r) -> auto& { return r.*M; },
             Last>(key, required);
}

}  // namespace mlpm::harness::schema
