// perfbench — the repository's serving benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//   perfbench --list            every metric, by name, with its unit
//
// Workloads: wire_features, paper_source, offline_tu (see perfbench/README.md).
// Run from the root of a checkout; scratch state (sockets, fresh model
// caches) lives under .bench_run/ and is removed at exit, except the traced
// run's spans, kept in .bench_run/spans/<workload>-seed<N>.jsonl.
//
// Prints one line per phase, one line per metric (name, value, unit, sample
// count), then, as the last line, the result object:
//   {"correct": …, "attempted": …, "failed": …, "metrics": {name: {value, unit}}}
// Exits non-zero when any reply differs from the reference prediction, when a
// fixed-rate step failed a request or ran its generator late, or on any error.
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <map>
#include <string>

#include <unistd.h>

#include "harness.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload wire_features|paper_source|offline_tu "
               "--seed N --seconds S --trace 0|1\n"
               "       perfbench --list\n");
  return 2;
}

void list_metrics() {
  std::printf("end-to-end (--trace 0):\n");
  for (const auto& m : end_to_end_metrics()) std::printf("  %-32s %s\n", m.name, m.unit);
  std::printf("per-layer (--trace 1):\n");
  for (const auto& m : per_layer_metrics()) std::printf("  %-32s %s\n", m.name, m.unit);
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions options;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list") {
      list_metrics();
      return 0;
    }
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      options.trace = value == "1";
    } else {
      return usage();
    }
  }
  if (!known_workload(options.workload) || !have_seed || !(options.seconds > 0.0)) {
    return usage();
  }
  std::signal(SIGPIPE, SIG_IGN);

  const std::string run_root = ".bench_run";
  options.work_dir = run_root + "/" + options.workload + "-" + std::to_string(options.seed) +
                     "-" + std::to_string(::getpid());
  std::error_code ec;
  std::filesystem::create_directories(options.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s\n", options.work_dir.c_str());
    return 1;
  }

  SpanLog spans(options.trace);
  auto run = run_workload(options, spans);
  std::filesystem::remove_all(options.work_dir, ec);
  if (!run.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", run.error().to_string().c_str());
    return 1;
  }
  RunResult& result = run.value();
  if (!options.trace) {
    result.metrics.push_back(
        {"peak_rss_mb", static_cast<double>(proc_status_field("VmHWM")) / 1024.0, "MB", 0});
  }

  if (options.trace) {
    const std::string dir = run_root + "/spans";
    std::filesystem::create_directories(dir, ec);
    const std::string path =
        dir + "/" + options.workload + "-seed" + std::to_string(options.seed) + ".jsonl";
    if (!spans.write_jsonl(path)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
      return 1;
    }
    std::printf("spans %zu written to %s\n", spans.size(), path.c_str());
  }

  std::printf("workload %s seed %llu seconds %.3g trace %d inputs_digest %016llx\n",
              options.workload.c_str(), static_cast<unsigned long long>(options.seed),
              options.seconds, options.trace ? 1 : 0,
              static_cast<unsigned long long>(result.inputs_digest));
  for (const auto& line : result.notes) std::printf("%s\n", line.c_str());
  // Runs made while the host took CPU time from this machine read slower;
  // this line lets them be recognised.
  std::printf("host_steal_pct %.2f\n", 100.0 * result.steal_share);

  std::map<std::string, const Metric*> by_name;
  for (const auto& m : result.metrics) by_name[m.name] = &m;
  std::string json;
  bool complete = true;
  for (const auto& spec : options.trace ? per_layer_metrics() : end_to_end_metrics()) {
    const auto it = by_name.find(spec.name);
    if (it == by_name.end()) {
      std::fprintf(stderr, "perfbench: metric %s was not measured\n", spec.name);
      complete = false;
      continue;
    }
    const Metric& m = *it->second;
    // A failed request's latency is infinite; JSON has no infinity.
    const double value = std::isfinite(m.value) ? m.value : std::numeric_limits<double>::max();
    std::printf("metric %-32s %16.6f %-6s", spec.name, value, spec.unit);
    if (m.samples > 0) std::printf(" n=%zu", m.samples);
    std::printf("\n");
    char entry[256];
    std::snprintf(entry, sizeof entry, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  json.empty() ? "" : ", ", spec.name, value, spec.unit);
    json += entry;
  }
  const bool correct = result.correct && result.mismatched == 0 && complete;
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {%s}}\n",
              correct ? "true" : "false", result.attempted, result.failed, json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
