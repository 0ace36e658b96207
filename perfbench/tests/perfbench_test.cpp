// Tests of the benchmark's own logic: nearest-rank percentiles with sample
// counts, step validity and the goodput ladder, the repetitions set aside
// for host steal, byte-exact reply checks, generator-CPU subtraction,
// seed determinism of the inputs, and the metric list against
// BENCHMARK.json.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <numeric>
#include <sstream>

#include "harness.hpp"
#include "inputs.hpp"
#include "serve/protocol.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(NearestRank, PicksTheSmallestValueCoveringP) {
  auto v = one_to(100);
  std::reverse(v.begin(), v.end());  // order must not matter
  EXPECT_EQ(nearest_rank(v, 50).value, 50.0);
  EXPECT_EQ(nearest_rank(v, 99).value, 99.0);
  EXPECT_EQ(nearest_rank(v, 100).value, 100.0);
  EXPECT_EQ(nearest_rank(v, 0).value, 1.0);
  EXPECT_EQ(nearest_rank(v, 99).n, 100u);
  EXPECT_EQ(nearest_rank(one_to(1000), 99).value, 990.0);
  EXPECT_EQ(nearest_rank(one_to(1), 99).value, 1.0);
  EXPECT_EQ(nearest_rank({}, 50).n, 0u);
}

TEST(NearestRank, FailedRequestsMissTheTail) {
  auto v = one_to(99);
  v.push_back(kFailedLatency);
  EXPECT_EQ(nearest_rank(v, 99).value, 99.0);
  v.push_back(kFailedLatency);
  EXPECT_EQ(nearest_rank(v, 99).value, kFailedLatency);
}

TEST(Median, AveragesTheMiddlePair) {
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_EQ(median({}), 0.0);
}

/// A step of `n` requests at 1000/s, all ok at `latency_ms`, sent on time.
StepResult clean_step(std::size_t n, double latency_ms) {
  StepResult s;
  s.offered_rps = 1000;
  s.seconds = static_cast<double>(n) / 1000.0;
  s.scheduled = s.sent = s.ok = n;
  s.latency_ms.assign(n, latency_ms);
  s.gen_lag_ms.assign(n, 0.05);
  s.last_reply_s = s.seconds;
  return s;
}

TEST(Step, ValidityNeedsEverySendOnTime) {
  StepResult s = clean_step(1000, 1.0);
  EXPECT_TRUE(step_valid(s, 5.0));
  s.sent = 999;
  EXPECT_FALSE(step_valid(s, 5.0));
  s = clean_step(1000, 1.0);
  for (std::size_t i = 0; i < 20; ++i) s.gen_lag_ms[i] = 2.0;  // 2% of sends 2 ms late
  EXPECT_FALSE(step_valid(s, 5.0));                          // bound: 1.25 ms
  EXPECT_TRUE(step_valid(s, 25.0));                          // bound: 6.25 ms
  EXPECT_FALSE(step_meets_limit(s, 5.0));
}

TEST(Step, LimitCountsFailuresTailAndBacklog) {
  EXPECT_TRUE(step_meets_limit(clean_step(1000, 1.0), 5.0));
  EXPECT_FALSE(step_meets_limit(clean_step(1000, 6.0), 5.0));
  StepResult tail = clean_step(1000, 1.0);
  for (std::size_t i = 0; i < 40; ++i) tail.latency_ms[i] = 40.0;  // 4% stalled
  EXPECT_TRUE(step_meets_limit(tail, 5.0));
  for (std::size_t i = 40; i < 60; ++i) tail.latency_ms[i] = 40.0;  // 6% stalled
  EXPECT_FALSE(step_meets_limit(tail, 5.0));
  StepResult failed = clean_step(1000, 1.0);
  failed.ok = 999;
  failed.failed = 1;
  EXPECT_FALSE(step_meets_limit(failed, 5.0));
  StepResult backlog = clean_step(1000, 1.0);      // one second of schedule
  backlog.last_reply_s = backlog.seconds + 0.025;  // a hiccup at the very end
  EXPECT_TRUE(step_meets_limit(backlog, 5.0));
  backlog.last_reply_s = backlog.seconds + 0.05;   // a backlog still draining
  EXPECT_FALSE(step_meets_limit(backlog, 5.0));
}

TEST(Steal, KeepsUndisturbedRepetitionsOrTheLeastDisturbedTenth) {
  using V = std::vector<std::size_t>;
  EXPECT_EQ(kept_by_steal({0.0, 0.004, 0.005}), (V{0, 1, 2}));
  EXPECT_EQ(kept_by_steal({0.0, 0.3, 0.01, 0.2, 0.0}), (V{0, 4}));
  // A run inside a busy spell: the tenth with the least steal, ties to the earlier.
  std::vector<double> busy(20, 0.2);
  busy[7] = 0.1;
  busy[3] = busy[12] = busy[15] = 0.05;
  EXPECT_EQ(kept_by_steal(busy), (V{3, 12}));
  busy[15] = 0.0;
  EXPECT_EQ(kept_by_steal(busy), (V{3, 15}));
  EXPECT_EQ(kept_by_steal({0.3, 0.1, 0.2, 0.1, 0.3}), (V{1}));
  EXPECT_EQ(kept_by_steal({0.2, 0.2, 0.2}), (V{0}));
  EXPECT_EQ(kept_by_steal({}), V{});
  EXPECT_EQ(kept_median({5.0, 90.0, 6.0, 80.0, 7.0}, {0.0, 0.3, 0.0, 0.2, 0.01}), 5.5);
}

TEST(Step, LevelPassesWhenMostCountedRepetitionsPass) {
  const StepResult pass = clean_step(1000, 1.0);
  const StepResult fail = clean_step(1000, 9.0);
  StepResult late = clean_step(1000, 1.0);
  late.gen_lag_ms.assign(1000, 3.0);
  StepResult stolen = fail;
  stolen.steal_share = 0.2;
  using R = RungStatus;
  EXPECT_EQ(level_status({fail, pass, pass}, 5.0), R::kPass);
  EXPECT_EQ(level_status({fail, fail, pass}, 5.0), R::kFail);  // one pass in three is not enough
  EXPECT_EQ(level_status({fail, pass}, 5.0), R::kFail);        // nor one in two
  EXPECT_EQ(level_status({fail, fail, fail}, 5.0), R::kFail);
  // Repetitions the generator ran late in, or the host disturbed, do not count.
  EXPECT_EQ(level_status({late, pass, late}, 5.0), R::kPass);
  EXPECT_EQ(level_status({stolen, pass, stolen}, 5.0), R::kPass);
  EXPECT_EQ(level_status({stolen, fail, late}, 5.0), R::kFail);
  EXPECT_EQ(level_status({late, late, late}, 5.0), R::kInvalid);
  // With every repetition disturbed, the least-disturbed tenth votes.
  StepResult stolen_pass = pass;
  stolen_pass.steal_share = 0.1;
  StepResult less_stolen_fail = fail;
  less_stolen_fail.steal_share = 0.05;
  EXPECT_EQ(level_status({stolen, stolen_pass, stolen}, 5.0), R::kPass);
  EXPECT_EQ(level_status({stolen_pass, less_stolen_fail, stolen_pass, stolen}, 5.0), R::kFail);
  EXPECT_EQ(level_status({stolen_pass, less_stolen_fail, stolen_pass, stolen_pass, stolen_pass,
                          less_stolen_fail, stolen, stolen_pass},
                         5.0),
            R::kFail);
  EXPECT_EQ(level_status({stolen_pass, stolen_pass, stolen, stolen_pass, stolen_pass}, 5.0),
            R::kPass);
}

TEST(Goodput, HighestPassingRung) {
  const std::vector<double> rates{100, 300, 330, 360, 390};
  using R = RungStatus;
  EXPECT_EQ(goodput(rates, {R::kPass, R::kPass, R::kPass, R::kFail, R::kFail}), 330.0);
  EXPECT_EQ(goodput(rates, {R::kPass, R::kPass, R::kPass, R::kPass, R::kPass}), 390.0);
  EXPECT_EQ(goodput(rates, {R::kPass, R::kPass, R::kInvalid, R::kPass, R::kFail}), 360.0);
  EXPECT_EQ(goodput(rates, {R::kFail, R::kFail}), 0.0);
}

TEST(Goodput, ClimbEndsAfterTwoFailuresSinceTheLastPass) {
  using R = RungStatus;
  EXPECT_FALSE(ladder_done({R::kPass}));
  EXPECT_FALSE(ladder_done({R::kPass, R::kFail}));
  EXPECT_FALSE(ladder_done({R::kPass, R::kFail, R::kPass}));
  EXPECT_FALSE(ladder_done({R::kPass, R::kFail, R::kInvalid, R::kInvalid}));
  EXPECT_TRUE(ladder_done({R::kPass, R::kFail, R::kInvalid, R::kFail}));
  EXPECT_TRUE(ladder_done({R::kFail, R::kFail}));
}

TEST(Level, PooledOverKeptRepetitions) {
  std::vector<StepResult> reps{clean_step(50, 1.0), clean_step(50, 3.0), clean_step(50, 2.0)};
  EXPECT_EQ(level_percentile(reps, 50).value, 2.0);
  EXPECT_EQ(level_percentile(reps, 95).value, 3.0);
  EXPECT_EQ(level_percentile(reps, 95).n, 150u);
  // A stall of the program in some repetitions is read, not hidden.
  std::vector<StepResult> stalls;
  for (double ms : {1.0, 80.0, 80.0, 1.0, 70.0, 1.0, 70.0}) stalls.push_back(clean_step(200, ms));
  EXPECT_EQ(level_percentile(stalls, 95).value, 80.0);
  EXPECT_EQ(level_percentile(stalls, 50).value, 70.0);
  // The same latencies, but the host stole CPU during two slow repetitions:
  // those are set aside, and the stall in two of the five kept still shows.
  stalls[1].steal_share = stalls[2].steal_share = 0.25;
  EXPECT_EQ(level_percentile(stalls, 95).value, 70.0);
  EXPECT_EQ(level_percentile(stalls, 50).value, 1.0);
  EXPECT_EQ(level_percentile(stalls, 95).n, 1000u);
}

/// Untraced replies must be byte-identical to the reference's formatted
/// reply; one that parses to the same prediction but differs is not.
TEST(Reply, UntracedRepliesCompareByteForByte) {
  repro::core::Predictor::KernelPrediction expected;
  expected.kernel = "k";
  expected.pareto.push_back({{1000, 800}, 1.25, 0.75, false});
  std::string reply;
  repro::serve::format_response_into(reply, 7, expected);
  EXPECT_TRUE(reply_is(reply, false, 7, expected));
  EXPECT_FALSE(reply_is(reply, false, 8, expected));
  ASSERT_EQ(reply.front(), '{');
  EXPECT_FALSE(reply_is("{ " + reply.substr(1), false, 7, expected));
  EXPECT_FALSE(reply_is(reply + " ", false, 7, expected));
}

TEST(Cpu, SubtractsTheGeneratorThreads) {
  EXPECT_DOUBLE_EQ(cpu_us_per_request({5000.0, 1000.0}, 100), 40.0);
  EXPECT_DOUBLE_EQ(cpu_us_per_request({5000.0, 0.0}, 100), 50.0);
  EXPECT_DOUBLE_EQ(cpu_us_per_request({1000.0, 2000.0}, 10), 0.0);
  EXPECT_DOUBLE_EQ(cpu_us_per_request({1000.0, 0.0}, 0), 0.0);
}

TEST(Inputs, SameSeedSameBytesOtherSeedOtherBytes) {
  const auto corpus = repo_kernels();
  ASSERT_TRUE(corpus.ok());
  ASSERT_EQ(corpus.value().size(), 118u);
  const auto a = offline_units(7, corpus.value(), 6);
  const auto b = offline_units(7, corpus.value(), 6);
  const auto c = offline_units(8, corpus.value(), 6);
  ASSERT_EQ(a.size(), 6u);
  bool any_differs = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].source, b[i].source);
    EXPECT_EQ(a[i].kernel, b[i].kernel);
    EXPECT_GE(a[i].source.size(), 20u * 1024);
    EXPECT_LE(a[i].source.size(), 64u * 1024);
    any_differs |= a[i].source != c[i].source;
  }
  EXPECT_TRUE(any_differs);
  EXPECT_EQ(pick_kernel(7, 2, 41, 118), pick_kernel(7, 2, 41, 118));
  EXPECT_EQ(inputs_digest(7, corpus.value(), 256, 4), inputs_digest(7, corpus.value(), 256, 4));
  EXPECT_NE(inputs_digest(7, corpus.value(), 256, 4), inputs_digest(8, corpus.value(), 256, 4));
}

TEST(Inputs, PicksCoverTheCorpus) {
  std::vector<int> seen(118, 0);
  for (std::uint64_t i = 0; i < 5000; ++i) ++seen[pick_kernel(3, 1, i, seen.size())];
  for (int count : seen) EXPECT_GT(count, 0);
}

/// The metrics the program reports are exactly the ones BENCHMARK.json
/// lists, with the same units, in both passes.
TEST(Catalog, MatchesBenchmarkJson) {
  std::ifstream in(PERFBENCH_JSON);
  ASSERT_TRUE(in.good()) << PERFBENCH_JSON;
  std::stringstream text;
  text << in.rdbuf();
  const auto doc = repro::serve::parse_json(text.str());
  ASSERT_TRUE(doc.ok());
  const auto check = [&](const char* section, const std::vector<MetricSpec>& catalog) {
    const auto* list = doc.value().find(section);
    ASSERT_NE(list, nullptr) << section;
    ASSERT_EQ(list->as_array().size(), catalog.size()) << section;
    for (std::size_t i = 0; i < catalog.size(); ++i) {
      const auto& entry = list->as_array()[i];
      EXPECT_EQ(entry.find("name")->as_string(), catalog[i].name);
      EXPECT_EQ(entry.find("unit")->as_string(), catalog[i].unit);
    }
  };
  check("end_to_end", end_to_end_metrics());
  check("per_layer", per_layer_metrics());
}

}  // namespace
}  // namespace perfbench
