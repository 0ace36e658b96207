// Determinism guarantees of the parallel prediction stack: every parallel
// path (thread pool sizes 1, 2 and 8) must produce bit-identical output to
// the serial path — predictions, cross-validation scores, matrix products
// and Pareto fronts. Also property-tests the O(n log n) skyline against the
// paper's O(n^2) Algorithm 1 on random inputs.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "ml/dataset.hpp"
#include "ml/matrix.hpp"
#include "ml/model_selection.hpp"
#include "ml/svr.hpp"
#include "ml/synthetic.hpp"
#include "pareto/pareto.hpp"

namespace rc = repro::common;
namespace rm = repro::ml;
namespace rp = repro::pareto;

namespace {

constexpr std::size_t kThreadCounts[] = {1, 2, 8};

constexpr auto make_dataset = rm::make_synthetic_regression;

bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// Restores the default global pool when the test scope ends.
struct PoolGuard {
  ~PoolGuard() { rc::ThreadPool::set_global_threads(0); }
};

}  // namespace

TEST(DeterminismTest, SvrTrainingIsThreadCountInvariant) {
  PoolGuard guard;
  rm::Matrix x;
  std::vector<double> y;
  make_dataset(120, 8, 0xD373C7, x, y);

  rm::SvrParams params;
  params.kernel = rm::KernelFunction::rbf(0.5);
  params.c = 10.0;
  params.max_iter = 50'000;

  std::string reference;
  for (std::size_t threads : kThreadCounts) {
    rc::ThreadPool::set_global_threads(threads);
    rm::Svr svr(params);
    svr.fit(x, y);
    const auto serialized = svr.serialize();
    if (reference.empty()) {
      reference = serialized;
    } else {
      EXPECT_EQ(serialized, reference) << "threads=" << threads;
    }
  }
}

TEST(DeterminismTest, SvrBatchPredictMatchesPredictOneBitForBit) {
  PoolGuard guard;
  rm::Matrix x;
  std::vector<double> y;
  make_dataset(100, 8, 0xABCDEF, x, y);
  rm::SvrParams params;
  params.kernel = rm::KernelFunction::rbf(0.5);
  params.c = 10.0;
  rm::Svr svr(params);
  svr.fit(x, y);

  rm::Matrix x_test;
  std::vector<double> unused;
  make_dataset(257, 8, 0x7E57, x_test, unused);

  // Serial reference: the per-point path.
  std::vector<double> reference;
  reference.reserve(x_test.rows());
  for (std::size_t r = 0; r < x_test.rows(); ++r) {
    reference.push_back(svr.predict_one(x_test.row(r)));
  }

  for (std::size_t threads : kThreadCounts) {
    rc::ThreadPool::set_global_threads(threads);
    const auto batch = svr.predict(x_test);
    EXPECT_TRUE(bitwise_equal(batch, reference)) << "threads=" << threads;
  }
}

TEST(DeterminismTest, SharedPrefixSvrPredictMatchesPredictOneBitForBit) {
  // A frequency grid: 34 rows that share their first p columns bit for bit
  // (a kernel's static features) and differ in the rest. Svr::predict
  // reduces the shared prefix once per support vector; every row must
  // still equal predict_one exactly, for every kernel family, every prefix
  // length and every thread count. A 2048-row grid is large enough to take
  // the parallel path.
  PoolGuard guard;
  constexpr std::size_t kDim = 12;
  constexpr std::size_t kRows = 34;
  rm::Matrix x;
  std::vector<double> y;
  make_dataset(150, kDim, 0x5A4ED, x, y);

  rm::Matrix varied;
  std::vector<double> unused;
  make_dataset(2048, kDim, 0x6121D, varied, unused);
  const auto grid = [&](std::size_t p, std::size_t rows) {
    rm::Matrix g(rows, kDim);
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t c = 0; c < kDim; ++c) g(r, c) = c < p ? varied(0, c) : varied(r, c);
    }
    return g;
  };
  std::vector<std::pair<std::string, rm::Matrix>> grids;
  for (std::size_t p : {std::size_t{0}, std::size_t{1}, std::size_t{5}, kDim - 1, kDim}) {
    grids.emplace_back("p=" + std::to_string(p), grid(p, kRows));
    EXPECT_EQ(rm::shared_column_prefix(grids.back().second), p);
  }
  // +0.0 and -0.0 compare equal but differ in bits: column 3 must end the
  // shared prefix there, not count as shared.
  rm::Matrix signed_zero = grid(kDim - 2, kRows);
  for (std::size_t r = 0; r < kRows; ++r) signed_zero(r, 3) = r % 2 == 0 ? 0.0 : -0.0;
  EXPECT_EQ(rm::shared_column_prefix(signed_zero), 3u);
  grids.emplace_back("signed zero", std::move(signed_zero));
  grids.emplace_back("p=10 x 2048 rows", grid(kDim - 2, 2048));

  for (const auto& kernel : {rm::KernelFunction::linear(), rm::KernelFunction::rbf(0.5),
                             rm::KernelFunction::polynomial(2, 0.5, 1.0)}) {
    rm::SvrParams params;
    params.kernel = kernel;
    params.c = 10.0;
    params.max_iter = 50'000;
    rm::Svr svr(params);
    svr.fit(x, y);
    ASSERT_GT(svr.num_support_vectors(), 64u) << "need more than one support-vector block";
    for (const auto& [label, g] : grids) {
      std::vector<double> reference;
      for (std::size_t r = 0; r < g.rows(); ++r) reference.push_back(svr.predict_one(g.row(r)));
      for (std::size_t threads : kThreadCounts) {
        rc::ThreadPool::set_global_threads(threads);
        EXPECT_TRUE(bitwise_equal(svr.predict(g), reference))
            << svr.name() << ' ' << label << " threads=" << threads;
      }
    }
  }
}

TEST(DeterminismTest, MatrixMultiplyIsThreadCountInvariant) {
  PoolGuard guard;
  rm::Matrix a;
  rm::Matrix b;
  std::vector<double> unused;
  make_dataset(70, 45, 0xAA, a, unused);
  make_dataset(45, 33, 0xBB, b, unused);

  rc::ThreadPool::set_global_threads(1);
  const rm::Matrix reference = a.multiply(b);
  for (std::size_t threads : kThreadCounts) {
    rc::ThreadPool::set_global_threads(threads);
    const rm::Matrix out = a.multiply(b);
    ASSERT_EQ(out.rows(), reference.rows());
    ASSERT_EQ(out.cols(), reference.cols());
    EXPECT_TRUE(bitwise_equal(out.data(), reference.data())) << "threads=" << threads;
  }
}

TEST(DeterminismTest, CrossValidationScoreIsThreadCountInvariant) {
  PoolGuard guard;
  rm::Dataset data;
  rm::Matrix x;
  std::vector<double> y;
  make_dataset(90, 6, 0xCF01D, x, y);
  for (std::size_t r = 0; r < x.rows(); ++r) data.add(x.row(r), y[r]);

  const auto factory = [] {
    rm::SvrParams params;
    params.kernel = rm::KernelFunction::rbf(0.5);
    params.c = 10.0;
    return std::make_unique<rm::Svr>(params);
  };

  double reference = 0.0;
  for (std::size_t threads : kThreadCounts) {
    rc::ThreadPool::set_global_threads(threads);
    const double rmse = rm::cross_val_rmse(data, 5, 0x5EED, factory);
    if (threads == 1) {
      reference = rmse;
    } else {
      EXPECT_EQ(rmse, reference) << "threads=" << threads;
    }
  }
}

TEST(DeterminismTest, ParetoFrontIdenticalAcrossThreadCountsAndAlgorithms) {
  PoolGuard guard;
  rc::Xoshiro256 rng(0xF207);
  std::vector<rp::Point> pts(4000);
  for (std::size_t i = 0; i < pts.size(); ++i) {
    pts[i] = {rng.uniform(0.5, 1.5), rng.uniform(0.5, 1.5),
              static_cast<std::uint32_t>(i)};
  }
  const auto naive = rp::pareto_set_naive(pts);
  for (std::size_t threads : kThreadCounts) {
    rc::ThreadPool::set_global_threads(threads);
    const auto fast = rp::pareto_set_fast(pts);
    EXPECT_TRUE(rp::same_front(naive, fast)) << "threads=" << threads;
  }
}

TEST(DeterminismTest, SkylineMatchesNaiveOnRandomInputs) {
  // Property test over many random clouds, including heavy duplicate and
  // collinear cases (quantized coordinates force objective ties).
  rc::Xoshiro256 rng(0x5C11E);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t n = 1 + rng.uniform_index(300);
    const bool quantize = trial % 2 == 0;
    std::vector<rp::Point> pts(n);
    for (std::size_t i = 0; i < n; ++i) {
      double s = rng.uniform(0.5, 1.5);
      double e = rng.uniform(0.5, 1.5);
      if (quantize) {
        s = std::round(s * 8.0) / 8.0;
        e = std::round(e * 8.0) / 8.0;
      }
      pts[i] = {s, e, static_cast<std::uint32_t>(i)};
    }
    const auto naive = rp::pareto_set_naive(pts);
    const auto fast = rp::pareto_set_fast(pts);
    EXPECT_TRUE(rp::same_front(naive, fast))
        << "trial " << trial << " n=" << n << " quantize=" << quantize;
    EXPECT_EQ(naive.size(), fast.size()) << "trial " << trial;
  }
}
