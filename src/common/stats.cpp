#include "common/stats.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace repro::common {

double mean(std::span<const double> xs) noexcept {
  if (xs.empty()) return std::numeric_limits<double>::quiet_NaN();
  double acc = 0.0;
  for (double x : xs) acc += x;
  return acc / static_cast<double>(xs.size());
}

double variance(std::span<const double> xs) noexcept {
  if (xs.empty()) return std::numeric_limits<double>::quiet_NaN();
  const double m = mean(xs);
  double acc = 0.0;
  for (double x : xs) acc += (x - m) * (x - m);
  return acc / static_cast<double>(xs.size());
}

double stddev(std::span<const double> xs) noexcept { return std::sqrt(variance(xs)); }

double min_of(std::span<const double> xs) noexcept {
  if (xs.empty()) return std::numeric_limits<double>::quiet_NaN();
  return *std::min_element(xs.begin(), xs.end());
}

double max_of(std::span<const double> xs) noexcept {
  if (xs.empty()) return std::numeric_limits<double>::quiet_NaN();
  return *std::max_element(xs.begin(), xs.end());
}

double percentile(std::span<const double> xs, double p) {
  if (xs.empty()) return std::numeric_limits<double>::quiet_NaN();
  if (p < 0.0 || p > 100.0) throw std::invalid_argument("percentile: p out of [0,100]");
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const auto hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

double rmse(std::span<const double> pred, std::span<const double> truth) {
  if (pred.size() != truth.size()) throw std::invalid_argument("rmse: size mismatch");
  if (pred.empty()) return std::numeric_limits<double>::quiet_NaN();
  double acc = 0.0;
  for (std::size_t i = 0; i < pred.size(); ++i) {
    const double d = pred[i] - truth[i];
    acc += d * d;
  }
  return std::sqrt(acc / static_cast<double>(pred.size()));
}

double mae(std::span<const double> pred, std::span<const double> truth) {
  if (pred.size() != truth.size()) throw std::invalid_argument("mae: size mismatch");
  if (pred.empty()) return std::numeric_limits<double>::quiet_NaN();
  double acc = 0.0;
  for (std::size_t i = 0; i < pred.size(); ++i) acc += std::abs(pred[i] - truth[i]);
  return acc / static_cast<double>(pred.size());
}

std::vector<double> relative_errors_percent(std::span<const double> pred,
                                            std::span<const double> truth) {
  if (pred.size() != truth.size())
    throw std::invalid_argument("relative_errors_percent: size mismatch");
  std::vector<double> out;
  out.reserve(pred.size());
  for (std::size_t i = 0; i < pred.size(); ++i) {
    const double denom = truth[i] == 0.0 ? 1e-12 : truth[i];
    out.push_back(100.0 * (pred[i] - truth[i]) / denom);
  }
  return out;
}

double r_squared(std::span<const double> pred, std::span<const double> truth) {
  if (pred.size() != truth.size()) throw std::invalid_argument("r_squared: size mismatch");
  const double m = mean(truth);
  double ss_res = 0.0;
  double ss_tot = 0.0;
  for (std::size_t i = 0; i < pred.size(); ++i) {
    ss_res += (truth[i] - pred[i]) * (truth[i] - pred[i]);
    ss_tot += (truth[i] - m) * (truth[i] - m);
  }
  if (ss_tot == 0.0) return ss_res == 0.0 ? 1.0 : 0.0;
  return 1.0 - ss_res / ss_tot;
}

BoxStats box_stats(std::span<const double> xs) {
  BoxStats b;
  b.n = xs.size();
  if (xs.empty()) return b;
  b.min = min_of(xs);
  b.q25 = percentile(xs, 25.0);
  b.median = percentile(xs, 50.0);
  b.q75 = percentile(xs, 75.0);
  b.max = max_of(xs);
  return b;
}

}  // namespace repro::common
