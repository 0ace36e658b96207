// The benchmark's own arithmetic, kept free of I/O so its tests can pin it:
// nearest-rank percentiles with sample counts, goodput-ladder selection,
// open-loop step validity, the repetitions set aside for host steal, and the
// CPU accounting behind cpu_us_per_req.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace perfbench {

/// A failed request's latency: it misses every limit.
inline constexpr double kFailedLatency = std::numeric_limits<double>::infinity();

/// Nearest-rank percentile of `values` (any order): the smallest value with
/// at least p% of the samples at or below it, i.e. sorted[ceil(p/100*n)-1].
/// `n` is reported next to every percentile, so a p99 over fewer than 1000
/// samples (fewer than ten beyond it) can be recognised.
struct Percentile {
  double value = 0.0;
  std::size_t n = 0;
};
[[nodiscard]] Percentile nearest_rank(std::vector<double> values, double p);

/// Median (average of the two middle values for even counts) — for
/// reporting repeated set-up times, not request latencies.
[[nodiscard]] double median(std::vector<double> values);

/// One open-loop step: the generator's counts and the latencies it timed.
struct StepResult {
  double offered_rps = 0.0;
  double seconds = 0.0;          // scheduled duration of the step
  std::size_t scheduled = 0;     // requests due in the step
  std::size_t sent = 0;          // requests actually written
  std::size_t ok = 0;            // replies bit-identical to the reference
  std::size_t failed = 0;        // errors + refusals + timeouts + mismatches
  /// Per request, in ms from when it was due: the reply time for ok
  /// requests, kFailedLatency for failed ones.
  std::vector<double> latency_ms;
  /// Per request, in ms: how late the generator started writing it, counted
  /// only from when the generator was free (never the wait behind a
  /// backpressured write, which latency_ms already charges to the system).
  std::vector<double> gen_lag_ms;
  double last_reply_s = 0.0;     // last reply, seconds after the step began
  double steal_share = 0.0;      // share of the machine's CPU time its host stole
};

/// The generator's own p99 lateness may reach this share of the latency
/// limit; beyond it the step did not offer its rate as scheduled, and it is
/// marked invalid instead of counted.
inline constexpr double kGenLagShare = 0.25;

/// A step is valid when every scheduled request was sent and the
/// generator's p99 lateness stayed within kGenLagShare × limit_ms.
[[nodiscard]] bool step_valid(const StepResult& step, double limit_ms);

/// The tail percentile the benchmark gates and limits. p99 does not repeat
/// run to run on a VM that shares its host: a stall of a few milliseconds
/// lands in the top percent of some repetitions and not others.
inline constexpr double kTailPercentile = 95.0;

/// A step passes the latency limit when it is valid, every request came
/// back ok, the kTailPercentile latency (failed requests counting as
/// misses) is within the limit, and completions kept pace: the last reply
/// came no later than a median latency plus kKeepPaceShare of the step's
/// length after the schedule ended. A backlog growing at a few percent of
/// the rate fails the last test well before it reaches the latency limit,
/// which gives the goodput ladder a sharp edge where latency alone rises
/// slowly with batching.
inline constexpr double kKeepPaceShare = 0.03;

[[nodiscard]] bool step_meets_limit(const StepResult& step, double limit_ms);

/// Outcome of one ladder rung, in the order the rungs were run.
enum class RungStatus { kPass, kFail, kInvalid };
[[nodiscard]] const char* rung_status_name(RungStatus status);

/// Host interference. On a VM that shares its host, the hypervisor can give
/// part of the machine's CPU time to other guests (steal, from /proc/stat);
/// a repetition that saw more than kStealLimit of it measured the host, not
/// the system. On the 4-vCPU VM these numbers come from, p50 at a fixed rate
/// doubled at 18% steal, and the median p95 of repetitions rose with steal
/// from 1% on (by 10% at 1-2%, by half at 2-4%). /proc/stat counts steal in
/// 10 ms ticks, so in a repetition shorter than half a second on four CPUs
/// this limit admits none.
inline constexpr double kStealLimit = 0.005;

/// The repetitions a level is read from, by the steal each one saw: those
/// within kStealLimit, or, when fewer than a tenth are (a run inside a busy
/// spell of the host), the tenth with the least steal, ties to the earlier.
/// Steal comes in bursts, so even a busy run holds a few repetitions it
/// barely touched; within a run, a repetition's latency rises with its
/// steal, so the rest read the host. Indices ascend. A disturbance the program causes itself shows in every
/// kept repetition it lands in; only the measured host is set aside.
[[nodiscard]] std::vector<std::size_t> kept_by_steal(const std::vector<double>& steal);

/// Each repetition's steal_share, in order.
[[nodiscard]] std::vector<double> steal_of(const std::vector<StepResult>& reps);

/// Median of `values` over the entries kept_by_steal(`steal`) keeps.
[[nodiscard]] double kept_median(const std::vector<double>& values,
                                 const std::vector<double>& steal);

/// A rate is run as several repetitions. Those that count are the valid ones
/// with at most kStealLimit steal — or, when no repetition is within it (a
/// busy spell of the host), the valid ones kept_by_steal keeps. The level
/// passes when a majority of them pass, fails when not, and is invalid when
/// none counts: the generator ran late in every one.
[[nodiscard]] RungStatus level_status(const std::vector<StepResult>& reps, double limit_ms);

/// The ladder climbs until two rungs have failed since the last pass; an
/// invalid rung counts neither way, so a burst of interference from outside
/// the benchmark cannot end the climb.
[[nodiscard]] bool ladder_done(const std::vector<RungStatus>& statuses);

/// Goodput: the highest rate of the ladder whose rung passed, 0 when none
/// did. `rates` ascend and pair with `statuses` in the order run.
[[nodiscard]] double goodput(const std::vector<double>& rates,
                             const std::vector<RungStatus>& statuses);

/// A level's latency: the nearest-rank percentile of the samples of its
/// kept repetitions, pooled; `n` is their count. Pooling reads a stall of
/// the program in proportion to the samples it delayed, in whichever kept
/// repetitions it lands.
[[nodiscard]] Percentile level_percentile(const std::vector<StepResult>& reps, double p);

/// CPU time of one step, in microseconds, from getrusage deltas: the whole
/// process minus the generator threads (RUSAGE_THREAD), because the load
/// generator is not the system under test.
struct CpuSample {
  double process_us = 0.0;  // RUSAGE_SELF user+sys delta
  double generator_us = 0.0;  // sum of the generator threads' RUSAGE_THREAD deltas
};
/// (process − generator) ÷ completed, or 0 when nothing completed.
[[nodiscard]] double cpu_us_per_request(const CpuSample& cpu, std::size_t completed);

}  // namespace perfbench
