// Growth-law fitting for scaling experiments.
//
// The paper's claims are asymptotic: T = Θ(log n), Θ(n), Θ(n log n),
// Θ(n^{2/3}), ... We observe T(n) at a geometric range of n and decide which
// law fits best. Two primitives:
//   * fit_power     — least squares on (ln n, ln T): T ≈ a·n^b
//   * fit_log_law   — least squares on (ln n, T):    T ≈ a·ln n + c
// plus a model-selection helper that compares the candidate laws the paper
// uses by R² on the appropriate transformed axes.
#pragma once

#include <span>
#include <string>

namespace rumor {

struct LinearFit {
  double slope = 0.0;
  double intercept = 0.0;
  double r_squared = 0.0;  // 1 - SS_res/SS_tot on the fitted axes
};

// Ordinary least squares of y against x. Sizes must match; needs >= 2 points.
[[nodiscard]] LinearFit fit_linear(std::span<const double> x,
                                   std::span<const double> y);

// T ≈ a·n^b. Returns slope=b, intercept=ln a, fitted on (ln n, ln T).
// All inputs must be strictly positive.
[[nodiscard]] LinearFit fit_power(std::span<const double> n,
                                  std::span<const double> t);

// T ≈ a·ln n + c. Returns slope=a, intercept=c, fitted on (ln n, T).
[[nodiscard]] LinearFit fit_log_law(std::span<const double> n,
                                    std::span<const double> t);

// The growth laws appearing in the paper's claims.
enum class GrowthLaw {
  logarithmic,   // Θ(log n)
  power,         // Θ(n^b) for fitted b (includes linear b≈1)
  linearithmic,  // Θ(n log n)
};

struct LawVerdict {
  GrowthLaw best = GrowthLaw::power;
  double power_exponent = 0.0;  // b from the power fit (always reported)
  double r2_log = 0.0;          // R² of T vs ln n
  double r2_power = 0.0;        // R² of ln T vs ln n
  double r2_nlogn = 0.0;        // R² of T vs n·ln n (through-origin slope fit)
  std::string describe() const;
};

// Classifies measured growth. Heuristic, intended for claim reports (the
// `exponent(...)` directive reads power_exponent): a power fit with exponent < 0.15 and a good log-law fit
// is reported as logarithmic; exponent within 0.15 of 1 with a good
// n·log n fit is reported as linearithmic when that fit dominates.
[[nodiscard]] LawVerdict classify_growth(std::span<const double> n,
                                         std::span<const double> t);

}  // namespace rumor
