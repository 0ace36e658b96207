// Tests for the core predictor: feature assembly, training, Pareto
// prediction with the mem-L heuristic, and model persistence.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <span>
#include <string>
#include <vector>

#include "benchgen/benchgen.hpp"
#include "core/features.hpp"
#include "core/model.hpp"
#include "gpusim/simulator.hpp"
#include "kernels/kernels.hpp"
#include "ml/registry.hpp"
#include "ml/svr.hpp"
#include "ml/synthetic.hpp"
#include "pareto/pareto.hpp"

namespace rco = repro::core;
namespace rg = repro::gpusim;
namespace rb = repro::benchgen;

namespace {

const rg::GpuSimulator& sim() {
  static const rg::GpuSimulator s(rg::DeviceModel::titan_x());
  return s;
}

/// A small but representative training subset (keeps unit tests fast).
std::span<const rb::MicroBenchmark> small_suite() {
  static const auto full = rb::generate_training_suite().value();
  static const std::vector<rb::MicroBenchmark> subset = [] {
    std::vector<rb::MicroBenchmark> out;
    for (std::size_t i = 0; i < full.size(); i += 3) out.push_back(full[i]);
    return out;
  }();
  return subset;
}

const rco::FrequencyModel& trained_model() {
  static const auto model = [] {
    rco::TrainingOptions options;
    auto m = rco::FrequencyModel::train(sim(), small_suite(), options);
    EXPECT_TRUE(m.ok()) << (m.ok() ? "" : m.error().message);
    return std::move(m).take();
  }();
  return model;
}

}  // namespace

// --- feature assembly -----------------------------------------------------------

TEST(FeatureAssemblerTest, BoundsFromDomain) {
  const rco::FeatureAssembler fa(sim().freq());
  EXPECT_DOUBLE_EQ(fa.core_min(), 135.0);
  EXPECT_DOUBLE_EQ(fa.core_max(), 1196.0);
  EXPECT_DOUBLE_EQ(fa.mem_min(), 405.0);
  EXPECT_DOUBLE_EQ(fa.mem_max(), 3505.0);
}

TEST(FeatureAssemblerTest, FrequencyNormalizationHitsUnitInterval) {
  const rco::FeatureAssembler fa(sim().freq());
  EXPECT_DOUBLE_EQ(fa.normalize_core(135), 0.0);
  EXPECT_DOUBLE_EQ(fa.normalize_core(1196), 1.0);
  EXPECT_DOUBLE_EQ(fa.normalize_mem(405), 0.0);
  EXPECT_DOUBLE_EQ(fa.normalize_mem(3505), 1.0);
}

TEST(FeatureAssemblerTest, AssembledVectorLayout) {
  const rco::FeatureAssembler fa(sim().freq());
  const auto& mb = small_suite()[0];
  const auto w = fa.assemble(mb.features, {1001, 3505});
  ASSERT_EQ(w.size(), rco::kFeatureDim);
  // Last two components are the normalized frequencies (§3.2).
  EXPECT_NEAR(w[10], (1001.0 - 135.0) / (1196.0 - 135.0), 1e-12);
  EXPECT_DOUBLE_EQ(w[11], 1.0);
  // Static part matches the normalized feature vector.
  const auto norm = mb.features.normalized();
  for (std::size_t i = 0; i < 10; ++i) EXPECT_DOUBLE_EQ(w[i], norm[i]);
}

TEST(FeatureAssemblerTest, SingleMemoryClockDeviceNormalizesToZero) {
  const rco::FeatureAssembler fa(rg::FrequencyDomain::tesla_p100());
  EXPECT_DOUBLE_EQ(fa.normalize_mem(715), 0.0);
}

// --- training --------------------------------------------------------------------

TEST(FrequencyModelTest, TrainingProducesConvergedModels) {
  const auto& model = trained_model();
  EXPECT_TRUE(model.speedup_model().fitted());
  EXPECT_TRUE(model.energy_model().fitted());
  EXPECT_EQ(model.training_configs().size(), 40u);
  EXPECT_EQ(model.training_samples(), small_suite().size() * 40u);
}

TEST(FrequencyModelTest, EmptySuiteIsRejected) {
  rco::TrainingOptions options;
  const auto result = rco::FrequencyModel::train(sim(), {}, options);
  EXPECT_FALSE(result.ok());
}

TEST(FrequencyModelTest, PredictionsAtDefaultAreNearUnity) {
  const auto& model = trained_model();
  // Predicting a *training* kernel at the default configuration should give
  // speedup and normalized energy near 1.
  const auto& mb = small_suite()[1];
  const auto def = sim().freq().default_config();
  EXPECT_NEAR(model.predict_speedup(mb.features, def), 1.0, 0.2);
  EXPECT_NEAR(model.predict_energy(mb.features, def), 1.0, 0.2);
}

TEST(FrequencyModelTest, SpeedupGrowsWithCoreClockForComputeKernel) {
  const auto& model = trained_model();
  const auto* knn = repro::kernels::find_benchmark("k-NN");
  const auto f = repro::kernels::benchmark_features(*knn).value();
  const double low = model.predict_speedup(f, {559, 3505});
  const double high = model.predict_speedup(f, {1196, 3505});
  EXPECT_GT(high, low + 0.2);
}

TEST(FrequencyModelTest, PredictAllCoversRequestedConfigs) {
  const auto& model = trained_model();
  const auto& mb = small_suite()[2];
  const auto configs = sim().freq().sample_configs(40);
  const auto pred = model.predict_all(mb.features, configs);
  ASSERT_EQ(pred.size(), configs.size());
  for (const auto& p : pred) {
    EXPECT_TRUE(std::isfinite(p.speedup));
    EXPECT_TRUE(std::isfinite(p.energy));
    EXPECT_FALSE(p.heuristic);
  }
}

// --- Pareto prediction ----------------------------------------------------------------

TEST(FrequencyModelTest, PredictParetoAppendsMemLHeuristic) {
  const auto& model = trained_model();
  const auto* bench = repro::kernels::find_benchmark("Convolution");
  const auto f = repro::kernels::benchmark_features(*bench).value();
  const auto pareto = model.predict_pareto(f);
  ASSERT_FALSE(pareto.empty());
  // Exactly one heuristic point, and it is the highest-core mem-L config.
  std::size_t heuristic_count = 0;
  for (const auto& p : pareto) {
    if (p.heuristic) {
      ++heuristic_count;
      EXPECT_EQ(p.config.mem_mhz, 405);
      EXPECT_EQ(p.config.core_mhz, 403);
    } else {
      EXPECT_NE(p.config.mem_mhz, 405) << "mem-L must not be modeled (§4.5)";
    }
  }
  EXPECT_EQ(heuristic_count, 1u);
}

TEST(FrequencyModelTest, PredictedSetIsMutuallyNonDominated) {
  const auto& model = trained_model();
  const auto* bench = repro::kernels::find_benchmark("MD");
  const auto f = repro::kernels::benchmark_features(*bench).value();
  const auto pareto = model.predict_pareto(f);
  for (const auto& a : pareto) {
    if (a.heuristic) continue;
    for (const auto& b : pareto) {
      if (b.heuristic) continue;
      repro::pareto::Point pa{a.speedup, a.energy, 0};
      repro::pareto::Point pb{b.speedup, b.energy, 1};
      EXPECT_FALSE(repro::pareto::dominates(pa, pb));
    }
  }
}

TEST(FrequencyModelTest, ParetoSubsetOfRequestedConfigs) {
  const auto& model = trained_model();
  const auto* bench = repro::kernels::find_benchmark("Flte");
  const auto f = repro::kernels::benchmark_features(*bench).value();
  const auto configs = sim().freq().sample_configs(40);
  const auto pareto = model.predict_pareto(f, configs);
  for (const auto& p : pareto) {
    EXPECT_TRUE(sim().freq().is_actual(p.config));
  }
}

TEST(FrequencyModelTest, GridPredictionsMatchPerConfigBitForBit) {
  // The default model (linear-SVR speedup, RBF-SVR energy) predicts a grid
  // in one batch whose rows share the kernel's static columns. Every point
  // must equal the single-configuration predictions bit for bit — the
  // mem-L heuristic row included — and the default sampling must give what
  // an explicit call over the same configurations gives.
  const auto& model = trained_model();
  const auto same = [](double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; };
  const auto configs = sim().freq().sample_configs(40);
  for (const char* name : {"Convolution", "MD", "k-NN"}) {
    const auto f = repro::kernels::benchmark_features(*repro::kernels::find_benchmark(name))
                       .value();
    const auto all = model.predict_all(f, configs);
    ASSERT_EQ(all.size(), configs.size());
    for (std::size_t i = 0; i < configs.size(); ++i) {
      EXPECT_TRUE(same(all[i].speedup, model.predict_speedup(f, configs[i]))) << name << i;
      EXPECT_TRUE(same(all[i].energy, model.predict_energy(f, configs[i]))) << name << i;
    }

    const auto pareto = model.predict_pareto(f);
    ASSERT_FALSE(pareto.empty());
    EXPECT_TRUE(pareto.back().heuristic);
    for (const auto& p : pareto) {
      EXPECT_TRUE(same(p.speedup, model.predict_speedup(f, p.config))) << name;
      EXPECT_TRUE(same(p.energy, model.predict_energy(f, p.config))) << name;
    }
    const auto sampled = model.domain().sample_configs(model.training_configs().size());
    const auto explicit_pareto = model.predict_pareto(f, sampled);
    ASSERT_EQ(explicit_pareto.size(), pareto.size()) << name;
    for (std::size_t i = 0; i < pareto.size(); ++i) {
      EXPECT_EQ(explicit_pareto[i].config, pareto[i].config) << name << i;
      EXPECT_EQ(explicit_pareto[i].heuristic, pareto[i].heuristic) << name << i;
      EXPECT_TRUE(same(explicit_pareto[i].speedup, pareto[i].speedup)) << name << i;
      EXPECT_TRUE(same(explicit_pareto[i].energy, pareto[i].energy)) << name << i;
    }
  }
}

// --- persistence -------------------------------------------------------------------------

TEST(FrequencyModelTest, SerializeRoundTripPreservesPredictions) {
  const auto& model = trained_model();
  const auto restored = rco::FrequencyModel::deserialize(model.serialize());
  ASSERT_TRUE(restored.ok()) << restored.error().message;
  const auto& mb = small_suite()[0];
  for (const auto& config : model.training_configs()) {
    EXPECT_DOUBLE_EQ(restored.value().predict_speedup(mb.features, config),
                     model.predict_speedup(mb.features, config));
    EXPECT_DOUBLE_EQ(restored.value().predict_energy(mb.features, config),
                     model.predict_energy(mb.features, config));
  }
}

TEST(FrequencyModelTest, SaveAndLoadFile) {
  const auto& model = trained_model();
  const std::string path =
      (std::filesystem::temp_directory_path() / "gpufreq_model_test.txt").string();
  ASSERT_TRUE(model.save(path).ok());
  const auto loaded = rco::FrequencyModel::load(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().training_configs().size(), model.training_configs().size());
  std::filesystem::remove(path);
}

TEST(FrequencyModelTest, TrainOrLoadUsesCache) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "gpufreq_model_cache_test.txt").string();
  std::filesystem::remove(path);
  rco::TrainingOptions options;
  const auto first = rco::FrequencyModel::train_or_load(sim(), small_suite(), options, path);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(std::filesystem::exists(path));
  // Second call must load (same predictions, no retraining side effects).
  const auto second = rco::FrequencyModel::train_or_load(sim(), small_suite(), options, path);
  ASSERT_TRUE(second.ok());
  const auto& mb = small_suite()[0];
  EXPECT_DOUBLE_EQ(second.value().predict_speedup(mb.features, {1001, 3505}),
                   first.value().predict_speedup(mb.features, {1001, 3505}));
  std::filesystem::remove(path);
}

TEST(FrequencyModelTest, DeserializeRejectsGarbage) {
  EXPECT_FALSE(rco::FrequencyModel::deserialize("nonsense").ok());
  EXPECT_FALSE(rco::FrequencyModel::deserialize("gpufreq_model v1\ntruncated").ok());
}

TEST(FrequencyModelTest, DeserializeRejectsRegressorOfAnotherWidth) {
  // A well-formed model file whose two SVR sections were fitted on 8
  // features, not kFeatureDim: loading must fail with a parse error rather
  // than hand out a model whose predictions read past each 8-wide row.
  repro::ml::Matrix x;
  std::vector<double> y;
  repro::ml::make_synthetic_regression(40, 8, 0x8A11, x, y);
  repro::ml::Svr narrow;
  narrow.fit(x, y);

  const std::string text = trained_model().serialize();
  const auto cut = text.find("=== speedup ===\n");
  ASSERT_NE(cut, std::string::npos);
  const std::string head = text.substr(0, cut);
  const std::string forged = head + "=== speedup ===\n" +
                             repro::ml::serialize_regressor(narrow) + "=== energy ===\n" +
                             repro::ml::serialize_regressor(narrow);
  const auto loaded = rco::FrequencyModel::deserialize(forged);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.error().code, repro::common::ErrorCode::kParseError)
      << loaded.error().to_string();
  // The same splice with the model's own sections still loads.
  const std::string own = head + "=== speedup ===\n" +
                          repro::ml::serialize_regressor(trained_model().speedup_model()) +
                          "=== energy ===\n" +
                          repro::ml::serialize_regressor(trained_model().energy_model());
  EXPECT_TRUE(rco::FrequencyModel::deserialize(own).ok());
}

// --- ablation hook -------------------------------------------------------------------------

TEST(FrequencyModelTest, ExcludeMemLFromTrainingShrinksConfigSet) {
  rco::TrainingOptions options;
  options.exclude_mem_L_from_training = true;
  const auto model = rco::FrequencyModel::train(sim(), small_suite(), options);
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(model.value().training_configs().size(), 34u);  // 40 - 6 mem-L
  for (const auto& c : model.value().training_configs()) EXPECT_NE(c.mem_mhz, 405);
}
