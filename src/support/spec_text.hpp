// Text substrate for the declarative spec grammar: `name(key=value,...)`
// calls, key=value option lists, and value formatting that round-trips
// exactly through parse (the invariant the scenario API is built on:
// parse(x.name()) == x).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace rumor::spec_text {

struct KeyValue {
  std::string key;
  std::string value;
};

// A parsed `head(key=value,...)` call; bare `head` has no arguments.
struct Call {
  std::string head;
  std::vector<KeyValue> args;
};

// Parses "head" or "head(k=v,k=v,...)" (whitespace around tokens allowed).
// Returns nullopt and fills *error (when non-null) on malformed input.
[[nodiscard]] std::optional<Call> parse_call(std::string_view text,
                                             std::string* error = nullptr);

// Collects key=value pairs and renders them as "k=v,k=v".
class KeyValWriter {
 public:
  void add(std::string_view key, std::string_view value) {
    pairs_.push_back({std::string(key), std::string(value)});
  }
  void add(std::string_view key, double value);
  void add(std::string_view key, std::uint64_t value) {
    add(key, std::string_view(std::to_string(value)));
  }

  [[nodiscard]] bool empty() const { return pairs_.empty(); }
  [[nodiscard]] std::string str() const;

 private:
  std::vector<KeyValue> pairs_;
};

// Shortest decimal representation that strtod parses back to exactly
// `value` — canonical spec text stays readable ("0.1", not
// "0.10000000000000001") without losing round-trip fidelity.
[[nodiscard]] std::string fmt_double(double value);

// Strict scalar parsers: the full token must be consumed.
[[nodiscard]] std::optional<double> parse_double(std::string_view text);
[[nodiscard]] std::optional<std::uint64_t> parse_u64(std::string_view text);
// "on"/"off"/"true"/"false"/"1"/"0".
[[nodiscard]] std::optional<bool> parse_bool(std::string_view text);

// Trims ASCII whitespace from both ends.
[[nodiscard]] std::string_view trim(std::string_view text);

// Position of the first comma outside any {...} run (npos if none):
// top-level commas separate call arguments, braced commas belong to a
// sweep value list. Shared by parse_call and the sweep-expansion slicer
// so the tokenization rule cannot drift between them.
[[nodiscard]] std::size_t find_top_level_comma(std::string_view text);

// ---- Sweep values ------------------------------------------------------
//
// Any numeric spec value may be a *sweep*: a range or an explicit list
// that expands one spec line into a series of concrete lines.
//
//   leaves=2k..32k            geometric, factor 2 (2048 4096 ... 32768)
//   leaves=2k..32k:factor=4   geometric, factor 4 (2048 8192 32768)
//   n=100..500:step=200       arithmetic (100 300 500)
//   alpha={0.5,1,2}           explicit list (any value text, not only
//                             integers; items re-parse downstream)
//
// Range endpoints are unsigned integers with an optional k (x1024) or m
// (x1048576) suffix. A range emits every point <= hi; hi itself appears
// only when the progression lands on it exactly.

// True when `text` uses sweep syntax (a `..` range or a {...} list) and
// must go through expand_sweep_value before scalar parsing.
[[nodiscard]] bool is_sweep_value(std::string_view text);

// Expands a sweep value into its concrete value strings (ranges render as
// plain decimal). Rejects empty lists/items, inverted or overflowing
// ranges, factor < 2, step = 0, and ranges of more than kMaxSweepPoints
// points. nullopt + *error on rejection.
inline constexpr std::size_t kMaxSweepPoints = 1024;
[[nodiscard]] std::optional<std::vector<std::string>> expand_sweep_value(
    std::string_view text, std::string* error = nullptr);

// parse_u64 plus the k/m magnitude suffixes ("2k" -> 2048): the integer
// grammar of every spec value, scalar or sweep endpoint. Rejects a doubled
// or unknown suffix ("2kk", "2q") and results past UINT64_MAX.
[[nodiscard]] std::optional<std::uint64_t> parse_magnitude(
    std::string_view text);

// Compact magnitude rendering for derived sweep labels: 2048 -> "2k",
// 3145728 -> "3m", 100 -> "100". parse_magnitude(fmt_magnitude(v)) == v.
[[nodiscard]] std::string fmt_magnitude(std::uint64_t value);

}  // namespace rumor::spec_text
