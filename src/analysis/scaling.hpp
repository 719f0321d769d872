// Claim checking for scaling experiments.
//
// A ScalingSeries is the measured broadcast time of one protocol across a
// geometric range of sizes. The helpers here turn series into the verdicts
// the paper scenario files state as `# expect:` directives
// (experiments/expect.hpp, docs/scenarios.md): fitted growth laws,
// constant-ratio bands (Theorem 1), and additive-logarithmic gaps
// (Theorem 23).
#pragma once

#include <string>
#include <vector>

#include "support/fit.hpp"
#include "support/stats.hpp"

namespace rumor {

struct ScalePoint {
  double n = 0.0;  // instance size the claim scales in
  Summary summary;
};

struct ScalingSeries {
  std::string label;
  std::vector<ScalePoint> points;

  [[nodiscard]] std::vector<double> sizes() const;
  [[nodiscard]] std::vector<double> means() const;
};

// Growth-law verdict on the series means (requires >= 3 points).
[[nodiscard]] LawVerdict classify_series(const ScalingSeries& series);

// True iff max_i(a_i/b_i) / min_i(a_i/b_i) <= band, i.e. the two series stay
// within a constant factor of each other across sizes (Theorem 1's shape).
[[nodiscard]] bool ratio_bounded(const ScalingSeries& a,
                                 const ScalingSeries& b, double band);

// Largest pointwise ratio mean(a)/mean(b).
[[nodiscard]] double max_ratio(const ScalingSeries& a,
                               const ScalingSeries& b);

// True iff mean(a_i) <= mean(b_i) + c*ln(n_i) at every point (Theorem 23's
// shape).
[[nodiscard]] bool within_additive_log(const ScalingSeries& a,
                                       const ScalingSeries& b, double c);

}  // namespace rumor
