// Paper claims as scenario data: `# expect:` directives.
//
// A scenario file may state what its rows must show, one claim per
// comment line. To everything but this module a directive is a comment:
//
//   star(leaves=2k..32k) push           source=1 label=push
//   star(leaves=2k..32k) visit-exchange source=1 label=visit-exchange
//   # expect: exponent(push) > 0.8
//   # expect: ratio(visit-exchange, push) < 0.2
//
// A series S is the rows whose label= is S or starts with "S/" — the
// labels a sweep line derives ("push/2k", "push/4k", ...). A row's x value
// is its graph's n. Each form reduces one or two series to one measured
// number, which the directive compares (<, <=, >, >=, ==) with its
// threshold:
//
//   exponent(S)         power-law exponent of mean T in n (classify_series)
//   max(S)              largest single-trial T over S's rows
//   min_log(S)          smallest (min T) / ln n over S's rows
//   ratio(A,B)          largest pointwise mean(A)/mean(B) (max_ratio)
//   band(A,B)           max/min of mean(A)/mean(B) across points: the
//                       smallest band ratio_bounded accepts
//   additive_log(A,B)   smallest c with mean(A) <= mean(B) + c ln n at
//                       every point: the smallest c within_additive_log
//                       accepts
//   stretch(A,B,slack)  largest minimal_stretch(cdf(A), cdf(B), slack)
//                       over the points (the per-trial samples)
//   decreasing(S)       largest step mean_i / mean_{i-1}, in file order
//   incomplete(S)       trials of S that hit their round cutoff
//
// Two-series forms pair A's and B's rows in ascending n (file order among
// equal n), so both series need the same number of rows. A measured value
// that is undefined (a zero mean under a ratio or a logarithm) is NaN and
// fails every comparison.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "experiments/scenario.hpp"

namespace rumor {

enum class ExpectForm {
  exponent,
  max,
  min_log,
  ratio,
  band,
  additive_log,
  stretch,
  decreasing,
  incomplete,
};

enum class ExpectOp { lt, le, gt, ge, eq };

struct Expectation {
  std::size_t line = 0;  // 1-based line in the scenario file
  std::string text;      // the claim as written after "expect:"
  ExpectForm form = ExpectForm::exponent;
  std::vector<std::string> series;  // one or two series labels
  double slack = 0.0;               // stretch only
  ExpectOp op = ExpectOp::lt;
  double threshold = 0.0;
};

struct ExpectVerdict {
  std::size_t line = 0;
  std::string text;
  double measured = 0.0;
  bool ok = false;
};

// Parses every `# expect:` directive in a scenario file's text (a comment
// whose body starts with "expect:", whole-line or trailing). A malformed
// directive or an out-of-range number is reported as "line N: <reason>".
[[nodiscard]] std::optional<std::vector<Expectation>> parse_expectations(
    std::string_view text, std::string* error = nullptr);

// Checks the directives against the file's expanded scenarios before any
// trial runs: every series names at least one row, exponent has three
// rows, decreasing two, and two-series forms equal row counts.
[[nodiscard]] bool validate_expectations(
    const std::vector<Expectation>& expectations,
    const std::vector<ScenarioSpec>& specs, std::string* error = nullptr);

// Evaluates validated directives on a complete run's rows.
[[nodiscard]] std::vector<ExpectVerdict> check_expectations(
    const std::vector<Expectation>& expectations,
    const std::vector<ScenarioResult>& results);

// "[ OK ] line 12: exponent(push) > 0.8 — measured 1.012" (or "[FAIL]").
[[nodiscard]] std::string verdict_line(const ExpectVerdict& verdict);

}  // namespace rumor
