#include "experiments/expect.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "analysis/cdf.hpp"
#include "analysis/scaling.hpp"
#include "support/spec_text.hpp"

namespace rumor {

namespace {

constexpr double kUndefined = std::numeric_limits<double>::quiet_NaN();

void set_error(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
}

struct FormInfo {
  std::string_view name;
  ExpectForm form;
  std::size_t series;  // series arguments (stretch adds a slack number)
};

constexpr FormInfo kForms[] = {
    {"exponent", ExpectForm::exponent, 1},
    {"max", ExpectForm::max, 1},
    {"min_log", ExpectForm::min_log, 1},
    {"ratio", ExpectForm::ratio, 2},
    {"band", ExpectForm::band, 2},
    {"additive_log", ExpectForm::additive_log, 2},
    {"stretch", ExpectForm::stretch, 2},
    {"decreasing", ExpectForm::decreasing, 1},
    {"incomplete", ExpectForm::incomplete, 1},
};

const FormInfo* find_form(std::string_view name) {
  for (const FormInfo& info : kForms) {
    if (info.name == name) return &info;
  }
  return nullptr;
}

// Longest operators first so "<=" is not read as "<".
constexpr std::pair<std::string_view, ExpectOp> kOps[] = {
    {"<=", ExpectOp::le}, {">=", ExpectOp::ge}, {"==", ExpectOp::eq},
    {"<", ExpectOp::lt},  {">", ExpectOp::gt},
};

bool compare(double measured, ExpectOp op, double threshold) {
  switch (op) {
    case ExpectOp::lt: return measured < threshold;
    case ExpectOp::le: return measured <= threshold;
    case ExpectOp::gt: return measured > threshold;
    case ExpectOp::ge: return measured >= threshold;
    case ExpectOp::eq: return measured == threshold;
  }
  return false;
}

// Parses the claim after "expect:"; reason in *error on failure.
std::optional<Expectation> parse_claim(std::string_view claim,
                                       std::string* error) {
  const std::size_t open = claim.find('(');
  const std::size_t close = claim.rfind(')');
  if (open == std::string_view::npos || close == std::string_view::npos ||
      close < open) {
    set_error(error, "expected \"<form>(<series>...) <op> <number>\"");
    return std::nullopt;
  }
  const std::string_view name = spec_text::trim(claim.substr(0, open));
  const FormInfo* info = find_form(name);
  if (info == nullptr) {
    set_error(error, "unknown form \"" + std::string(name) +
                         "\" (exponent, max, min_log, ratio, band, "
                         "additive_log, stretch, decreasing, incomplete)");
    return std::nullopt;
  }
  Expectation e;
  e.form = info->form;

  std::vector<std::string_view> args;
  std::string_view rest = claim.substr(open + 1, close - open - 1);
  for (;;) {
    const std::size_t comma = rest.find(',');
    args.push_back(spec_text::trim(rest.substr(0, comma)));
    if (comma == std::string_view::npos) break;
    rest.remove_prefix(comma + 1);
  }
  const std::size_t arity = info->series + (e.form == ExpectForm::stretch);
  if (args.size() != arity) {
    set_error(error, std::string(name) + " takes " + std::to_string(arity) +
                         " argument" + (arity == 1 ? "" : "s") + ", got " +
                         std::to_string(args.size()));
    return std::nullopt;
  }
  for (std::size_t i = 0; i < info->series; ++i) {
    if (args[i].empty()) {
      set_error(error, "empty series label in " + std::string(name));
      return std::nullopt;
    }
    e.series.emplace_back(args[i]);
  }
  if (e.form == ExpectForm::stretch) {
    const auto slack = spec_text::parse_double(args[2]);
    if (!slack || !(*slack >= 0.0 && *slack < 1.0)) {
      set_error(error, "stretch slack \"" + std::string(args[2]) +
                           "\" out of range (a number in [0, 1))");
      return std::nullopt;
    }
    e.slack = *slack;
  }

  std::string_view tail = spec_text::trim(claim.substr(close + 1));
  bool have_op = false;
  for (const auto& [text, op] : kOps) {
    if (tail.starts_with(text)) {
      e.op = op;
      tail = spec_text::trim(tail.substr(text.size()));
      have_op = true;
      break;
    }
  }
  if (!have_op) {
    set_error(error, "expected a comparison (<, <=, >, >=, ==) after " +
                         std::string(name) + "(...)");
    return std::nullopt;
  }
  const auto threshold = spec_text::parse_double(tail);
  if (!threshold || !std::isfinite(*threshold)) {
    set_error(error, "bad threshold \"" + std::string(tail) +
                         "\" (a finite number)");
    return std::nullopt;
  }
  e.threshold = *threshold;
  // Thresholds no measurement of the form can reach are typos, not claims.
  const bool positive_form = e.form == ExpectForm::ratio ||
                             e.form == ExpectForm::band ||
                             e.form == ExpectForm::stretch ||
                             e.form == ExpectForm::decreasing;
  if ((positive_form && e.threshold <= 0.0) ||
      (e.form == ExpectForm::band && e.threshold < 1.0) ||
      (e.form == ExpectForm::incomplete &&
       (e.threshold < 0.0 || e.threshold != std::floor(e.threshold)))) {
    set_error(error, "threshold " + std::string(tail) +
                         " out of range for " + std::string(name) +
                         (e.form == ExpectForm::band ? " (>= 1)"
                          : e.form == ExpectForm::incomplete
                              ? " (a trial count >= 0)"
                              : " (> 0)"));
    return std::nullopt;
  }
  e.text = std::string(spec_text::trim(claim));
  return e;
}

bool in_series(const std::string& label, const std::string& series) {
  return label == series ||
         (label.size() > series.size() && label.starts_with(series) &&
          label[series.size()] == '/');
}

// The rows of one series, in file order.
std::vector<const ScenarioResult*> series_rows(
    const std::vector<ScenarioResult>& results, const std::string& series) {
  std::vector<const ScenarioResult*> rows;
  for (const ScenarioResult& r : results) {
    if (in_series(r.spec.label, series)) rows.push_back(&r);
  }
  return rows;
}

// The rows in ascending n (stable: file order among equal n) — the order
// two-series forms pair points in.
std::vector<const ScenarioResult*> by_n(
    std::vector<const ScenarioResult*> rows) {
  std::stable_sort(rows.begin(), rows.end(),
                   [](const ScenarioResult* a, const ScenarioResult* b) {
                     return a->n < b->n;
                   });
  return rows;
}

// Rows already in by_n order, as the ScalingSeries the analysis helpers
// take.
ScalingSeries scaling_series(const std::vector<const ScenarioResult*>& rows,
                             const std::string& label) {
  ScalingSeries s{label, {}};
  for (const ScenarioResult* r : rows) {
    s.points.push_back({static_cast<double>(r->n), r->set.summary()});
  }
  return s;
}

bool all_means_positive(const ScalingSeries& s) {
  return std::all_of(s.points.begin(), s.points.end(),
                     [](const ScalePoint& p) { return p.summary.mean > 0.0; });
}

double measure(const Expectation& e,
               const std::vector<ScenarioResult>& results) {
  const auto rows_a = series_rows(results, e.series[0]);
  const auto sorted_a = by_n(rows_a);
  const ScalingSeries a = scaling_series(sorted_a, e.series[0]);
  switch (e.form) {
    case ExpectForm::exponent:
      if (!all_means_positive(a)) return kUndefined;
      return classify_series(a).power_exponent;
    case ExpectForm::max: {
      double worst = -std::numeric_limits<double>::infinity();
      for (const ScalePoint& p : a.points) {
        worst = std::max(worst, p.summary.max);
      }
      return worst;
    }
    case ExpectForm::min_log: {
      double least = std::numeric_limits<double>::infinity();
      for (const ScalePoint& p : a.points) {
        if (p.n < 2.0) return kUndefined;
        least = std::min(least, p.summary.min / std::log(p.n));
      }
      return least;
    }
    case ExpectForm::decreasing: {
      double worst = 0.0;
      for (std::size_t i = 1; i < rows_a.size(); ++i) {
        const double prev = rows_a[i - 1]->set.summary().mean;
        if (prev <= 0.0) return kUndefined;
        worst = std::max(worst, rows_a[i]->set.summary().mean / prev);
      }
      return worst;
    }
    case ExpectForm::incomplete: {
      std::size_t total = 0;
      for (const ScenarioResult* r : rows_a) total += r->set.incomplete;
      return static_cast<double>(total);
    }
    default:
      break;
  }

  const auto sorted_b = by_n(series_rows(results, e.series[1]));
  const ScalingSeries b = scaling_series(sorted_b, e.series[1]);
  switch (e.form) {
    case ExpectForm::ratio:
      if (!all_means_positive(b)) return kUndefined;
      return max_ratio(a, b);
    case ExpectForm::band:
      if (!all_means_positive(a) || !all_means_positive(b)) return kUndefined;
      // max(a/b) * max(b/a) = max(a/b) / min(a/b): the spread
      // ratio_bounded compares with its band.
      return max_ratio(a, b) * max_ratio(b, a);
    case ExpectForm::additive_log: {
      double worst = -std::numeric_limits<double>::infinity();
      for (std::size_t i = 0; i < a.points.size(); ++i) {
        if (a.points[i].n < 2.0) return kUndefined;
        worst = std::max(worst, (a.points[i].summary.mean -
                                 b.points[i].summary.mean) /
                                    std::log(a.points[i].n));
      }
      return worst;
    }
    case ExpectForm::stretch: {
      double worst = 0.0;
      for (std::size_t i = 0; i < sorted_a.size(); ++i) {
        const EmpiricalCdf cdf_a(sorted_a[i]->set.rounds);
        const EmpiricalCdf cdf_b(sorted_b[i]->set.rounds);
        worst = std::max(worst, minimal_stretch(cdf_a, cdf_b, e.slack));
      }
      return worst;
    }
    default:
      return kUndefined;
  }
}

}  // namespace

std::optional<std::vector<Expectation>> parse_expectations(
    std::string_view text, std::string* error) {
  std::vector<Expectation> out;
  std::size_t line_number = 0;
  while (!text.empty()) {
    ++line_number;
    const std::size_t end = text.find('\n');
    std::string_view line = text.substr(0, end);
    text = end == std::string_view::npos ? std::string_view{}
                                         : text.substr(end + 1);
    const std::size_t hash = line.find('#');
    if (hash == std::string_view::npos) continue;
    const std::string_view body = spec_text::trim(line.substr(hash + 1));
    constexpr std::string_view kPrefix = "expect:";
    if (!body.starts_with(kPrefix)) continue;
    std::string reason;
    auto e = parse_claim(body.substr(kPrefix.size()), &reason);
    if (!e) {
      set_error(error, "line " + std::to_string(line_number) +
                           ": bad expect directive: " + reason);
      return std::nullopt;
    }
    e->line = line_number;
    out.push_back(std::move(*e));
  }
  return out;
}

bool validate_expectations(const std::vector<Expectation>& expectations,
                           const std::vector<ScenarioSpec>& specs,
                           std::string* error) {
  for (const Expectation& e : expectations) {
    const auto fail = [&](const std::string& reason) {
      set_error(error, "line " + std::to_string(e.line) + ": expect " +
                           e.text + ": " + reason);
      return false;
    };
    std::vector<std::size_t> counts;
    for (const std::string& series : e.series) {
      const auto rows = static_cast<std::size_t>(
          std::count_if(specs.begin(), specs.end(),
                        [&](const ScenarioSpec& s) {
                          return in_series(s.label, series);
                        }));
      if (rows == 0) return fail("no rows labelled \"" + series + "\"");
      counts.push_back(rows);
    }
    if (e.form == ExpectForm::exponent && counts[0] < 3) {
      return fail("exponent needs at least 3 rows, \"" + e.series[0] +
                  "\" has " + std::to_string(counts[0]));
    }
    if (e.form == ExpectForm::decreasing && counts[0] < 2) {
      return fail("decreasing needs at least 2 rows, \"" + e.series[0] +
                  "\" has " + std::to_string(counts[0]));
    }
    if (counts.size() == 2 && counts[0] != counts[1]) {
      return fail("\"" + e.series[0] + "\" has " + std::to_string(counts[0]) +
                  " rows but \"" + e.series[1] + "\" has " +
                  std::to_string(counts[1]));
    }
  }
  return true;
}

std::vector<ExpectVerdict> check_expectations(
    const std::vector<Expectation>& expectations,
    const std::vector<ScenarioResult>& results) {
  std::vector<ExpectVerdict> verdicts;
  verdicts.reserve(expectations.size());
  for (const Expectation& e : expectations) {
    const double measured = measure(e, results);
    verdicts.push_back(
        {e.line, e.text, measured, compare(measured, e.op, e.threshold)});
  }
  return verdicts;
}

std::string verdict_line(const ExpectVerdict& verdict) {
  char measured[32];
  std::snprintf(measured, sizeof measured, "%.4g", verdict.measured);
  return std::string(verdict.ok ? "[ OK ]" : "[FAIL]") + " line " +
         std::to_string(verdict.line) + ": " + verdict.text +
         " — measured " + measured;
}

}  // namespace rumor
