// Descriptive statistics and regression-error metrics shared by the ML
// library and the experiment harnesses (box plots of Figs. 6/7, RMSE rows).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace repro::common {

[[nodiscard]] double mean(std::span<const double> xs) noexcept;
[[nodiscard]] double variance(std::span<const double> xs) noexcept;  // population
[[nodiscard]] double stddev(std::span<const double> xs) noexcept;
[[nodiscard]] double min_of(std::span<const double> xs) noexcept;
[[nodiscard]] double max_of(std::span<const double> xs) noexcept;

/// Linear-interpolated percentile; p in [0, 100]. Empty input -> NaN.
[[nodiscard]] double percentile(std::span<const double> xs, double p);

/// Root-mean-square error between predictions and truth (same length).
[[nodiscard]] double rmse(std::span<const double> pred, std::span<const double> truth);

/// Mean absolute error.
[[nodiscard]] double mae(std::span<const double> pred, std::span<const double> truth);

/// Signed relative errors in percent: 100*(pred-truth)/truth.
[[nodiscard]] std::vector<double> relative_errors_percent(std::span<const double> pred,
                                                          std::span<const double> truth);

/// Coefficient of determination.
[[nodiscard]] double r_squared(std::span<const double> pred, std::span<const double> truth);

/// Five-number summary backing a box plot (min, q25, median, q75, max).
struct BoxStats {
  double min = 0.0;
  double q25 = 0.0;
  double median = 0.0;
  double q75 = 0.0;
  double max = 0.0;
  std::size_t n = 0;
};

[[nodiscard]] BoxStats box_stats(std::span<const double> xs);

}  // namespace repro::common
