// The three workloads and the metrics each run reports. An untraced run
// (trace = false) measures the end-to-end metrics; a traced run measures the
// per-layer ones by timing calls into each module's public functions, and
// records those calls as spans.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "harness.hpp"

namespace perfbench {

struct RunOptions {
  std::string workload;  // wire_features | paper_source | offline_tu
  std::uint64_t seed = 1;
  double seconds = 10.0;  // measured time, split across the run's phases
  bool trace = false;
  std::string work_dir;   // sockets and model caches; removed by the caller
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;  // sample count behind a percentile; 0 otherwise
};

struct RunResult {
  bool correct = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t mismatched = 0;  // replies not bit-identical to the reference
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  // per-phase counts, ladder rungs, validity
  std::uint64_t inputs_digest = 0;  // inputs_digest() of this run's seed
  double steal_share = 0.0;  // share of the machine's CPU time its host stole during the run
};

/// A metric the benchmark reports: its name and unit, as BENCHMARK.json
/// lists them.
struct MetricSpec {
  const char* name;
  const char* unit;
};
/// Reported by untraced runs (--trace 0).
[[nodiscard]] const std::vector<MetricSpec>& end_to_end_metrics();
/// Reported by traced runs (--trace 1).
[[nodiscard]] const std::vector<MetricSpec>& per_layer_metrics();

[[nodiscard]] bool known_workload(const std::string& name);

[[nodiscard]] repro::common::Result<RunResult> run_workload(const RunOptions& options,
                                                            SpanLog& spans);

}  // namespace perfbench
