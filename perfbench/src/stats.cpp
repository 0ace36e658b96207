#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

Percentile nearest_rank(std::vector<double> values, double p) {
  Percentile out;
  out.n = values.size();
  if (values.empty()) return out;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const std::size_t index = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  out.value = values[std::min(index, values.size() - 1)];
  return out;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : (values[mid - 1] + values[mid]) / 2.0;
}

bool step_valid(const StepResult& step, double limit_ms) {
  if (step.sent != step.scheduled) return false;
  return nearest_rank(step.gen_lag_ms, 99.0).value <= kGenLagShare * limit_ms;
}

bool step_meets_limit(const StepResult& step, double limit_ms) {
  if (!step_valid(step, limit_ms) || step.failed != 0 || step.ok != step.scheduled) return false;
  if (nearest_rank(step.latency_ms, kTailPercentile).value > limit_ms) return false;
  const double drain_s = step.last_reply_s - step.seconds;
  const double typical_s = nearest_rank(step.latency_ms, 50.0).value / 1000.0;
  return drain_s <= kKeepPaceShare * step.seconds + typical_s;
}

const char* rung_status_name(RungStatus status) {
  switch (status) {
    case RungStatus::kPass: return "pass";
    case RungStatus::kFail: return "fail";
    case RungStatus::kInvalid: return "invalid";
  }
  return "?";
}

std::vector<std::size_t> kept_by_steal(const std::vector<double>& steal) {
  std::vector<std::size_t> kept;
  for (std::size_t i = 0; i < steal.size(); ++i) {
    if (steal[i] <= kStealLimit) kept.push_back(i);
  }
  const std::size_t tenth = (steal.size() + 9) / 10;
  if (kept.size() >= tenth) return kept;
  std::vector<std::size_t> order(steal.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return steal[a] < steal[b]; });
  order.resize(tenth);
  std::sort(order.begin(), order.end());
  return order;
}

double kept_median(const std::vector<double>& values, const std::vector<double>& steal) {
  std::vector<double> kept;
  for (std::size_t i : kept_by_steal(steal)) kept.push_back(values[i]);
  return median(std::move(kept));
}

std::vector<double> steal_of(const std::vector<StepResult>& reps) {
  std::vector<double> steal;
  for (const auto& step : reps) steal.push_back(step.steal_share);
  return steal;
}

RungStatus level_status(const std::vector<StepResult>& reps, double limit_ms) {
  const auto steal = steal_of(reps);
  std::vector<std::size_t> voters;
  for (std::size_t i = 0; i < reps.size(); ++i) {
    if (steal[i] <= kStealLimit) voters.push_back(i);
  }
  if (voters.empty()) voters = kept_by_steal(steal);
  std::size_t counted = 0;
  std::size_t pass = 0;
  for (std::size_t i : voters) {
    if (!step_valid(reps[i], limit_ms)) continue;
    ++counted;
    pass += step_meets_limit(reps[i], limit_ms) ? 1 : 0;
  }
  if (counted == 0) return RungStatus::kInvalid;
  return 2 * pass > counted ? RungStatus::kPass : RungStatus::kFail;
}

bool ladder_done(const std::vector<RungStatus>& statuses) {
  std::size_t failed = 0;
  for (auto it = statuses.rbegin(); it != statuses.rend() && *it != RungStatus::kPass; ++it) {
    failed += *it == RungStatus::kFail ? 1 : 0;
  }
  return failed >= 2;
}

double goodput(const std::vector<double>& rates, const std::vector<RungStatus>& statuses) {
  double best = 0.0;
  for (std::size_t i = 0; i < rates.size() && i < statuses.size(); ++i) {
    if (statuses[i] == RungStatus::kPass) best = std::max(best, rates[i]);
  }
  return best;
}

Percentile level_percentile(const std::vector<StepResult>& reps, double p) {
  std::vector<double> pooled;
  for (std::size_t i : kept_by_steal(steal_of(reps))) {
    pooled.insert(pooled.end(), reps[i].latency_ms.begin(), reps[i].latency_ms.end());
  }
  return nearest_rank(std::move(pooled), p);
}

double cpu_us_per_request(const CpuSample& cpu, std::size_t completed) {
  if (completed == 0) return 0.0;
  return std::max(0.0, cpu.process_us - cpu.generator_us) / static_cast<double>(completed);
}

}  // namespace perfbench
