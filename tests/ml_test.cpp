// Tests for the ML library: matrix/solvers, scaling, datasets, kernels and
// all four regressor families (SVR, OLS/ridge, LASSO, polynomial).
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "ml/dataset.hpp"
#include "ml/kernel.hpp"
#include "ml/lasso.hpp"
#include "ml/linear.hpp"
#include "ml/matrix.hpp"
#include "ml/model.hpp"
#include "ml/poly.hpp"
#include "ml/scaler.hpp"
#include "ml/svr.hpp"

namespace rm = repro::ml;

namespace {

/// y = 2*x0 - 3*x1 + 0.5 with optional noise.
rm::Dataset linear_dataset(std::size_t n, double noise, std::uint64_t seed) {
  repro::common::Xoshiro256 rng(seed);
  rm::Dataset d;
  for (std::size_t i = 0; i < n; ++i) {
    const double x0 = rng.uniform();
    const double x1 = rng.uniform();
    const double y = 2.0 * x0 - 3.0 * x1 + 0.5 + noise * rng.gaussian();
    const std::vector<double> row{x0, x1};
    d.add(row, y);
  }
  return d;
}

/// y = sin(4 x0) + x1^2, a smooth nonlinear target.
rm::Dataset nonlinear_dataset(std::size_t n, std::uint64_t seed) {
  repro::common::Xoshiro256 rng(seed);
  rm::Dataset d;
  for (std::size_t i = 0; i < n; ++i) {
    const double x0 = rng.uniform();
    const double x1 = rng.uniform();
    const std::vector<double> row{x0, x1};
    d.add(row, std::sin(4.0 * x0) + x1 * x1);
  }
  return d;
}

}  // namespace

// --- Matrix ---------------------------------------------------------------------

TEST(MatrixTest, InitializerListAndAccess) {
  const rm::Matrix m{{1, 2}, {3, 4}};
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
}

TEST(MatrixTest, RaggedInitializerThrows) {
  EXPECT_THROW((rm::Matrix{{1, 2}, {3}}), std::invalid_argument);
}

TEST(MatrixTest, PushRowGrowsAndChecksWidth) {
  rm::Matrix m(0, 0);
  const std::vector<double> r1{1, 2, 3};
  m.push_row(r1);
  EXPECT_EQ(m.cols(), 3u);
  const std::vector<double> bad{1, 2};
  EXPECT_THROW(m.push_row(bad), std::invalid_argument);
}

TEST(MatrixTest, MultiplyKnownProduct) {
  const rm::Matrix a{{1, 2}, {3, 4}};
  const rm::Matrix b{{5, 6}, {7, 8}};
  const auto c = a.multiply(b);
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(MatrixTest, TransposeRoundTrip) {
  const rm::Matrix a{{1, 2, 3}, {4, 5, 6}};
  const auto t = a.transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_DOUBLE_EQ(t(2, 1), 6.0);
}

TEST(MatrixTest, MatVec) {
  const rm::Matrix a{{1, 2}, {3, 4}};
  const std::vector<double> v{1, 1};
  const auto out = a.multiply(v);
  EXPECT_DOUBLE_EQ(out[0], 3.0);
  EXPECT_DOUBLE_EQ(out[1], 7.0);
}

TEST(MatrixTest, DotAndDistance) {
  const std::vector<double> a{1, 2, 3};
  const std::vector<double> b{4, 5, 6};
  EXPECT_DOUBLE_EQ(rm::dot(a, b), 32.0);
  EXPECT_DOUBLE_EQ(rm::squared_distance(a, b), 27.0);
}

TEST(MatrixTest, SolveSpdRecoversSolution) {
  // A = [[4,1],[1,3]], x = [1, 2] -> b = [6, 7].
  rm::Matrix a{{4, 1}, {1, 3}};
  const auto x = rm::solve_spd(a, {6, 7});
  EXPECT_NEAR(x[0], 1.0, 1e-10);
  EXPECT_NEAR(x[1], 2.0, 1e-10);
}

TEST(MatrixTest, SolveSpdRejectsIndefinite) {
  rm::Matrix a{{0, 2}, {2, 0}};
  EXPECT_THROW((void)rm::solve_spd(a, {1, 1}), std::runtime_error);
}

// --- Scaler ----------------------------------------------------------------------

TEST(ScalerTest, MapsToUnitInterval) {
  rm::Matrix x{{0, 10}, {5, 20}, {10, 30}};
  rm::MinMaxScaler scaler;
  const auto t = scaler.fit_transform(x);
  EXPECT_DOUBLE_EQ(t(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(t(2, 0), 1.0);
  EXPECT_DOUBLE_EQ(t(1, 1), 0.5);
}

TEST(ScalerTest, ConstantColumnMapsToZero) {
  rm::Matrix x{{7, 1}, {7, 2}};
  rm::MinMaxScaler scaler;
  const auto t = scaler.fit_transform(x);
  EXPECT_DOUBLE_EQ(t(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(t(1, 0), 0.0);
}

TEST(ScalerTest, InverseTransformRoundTrip) {
  rm::Matrix x{{1, 100}, {3, 300}};
  rm::MinMaxScaler scaler;
  scaler.fit(x);
  const std::vector<double> row{2.0, 150.0};
  const auto fwd = scaler.transform(row);
  const auto back = scaler.inverse_transform(fwd);
  EXPECT_NEAR(back[0], 2.0, 1e-12);
  EXPECT_NEAR(back[1], 150.0, 1e-12);
}

TEST(ScalerTest, SerializeRoundTrip) {
  rm::Matrix x{{1, -5}, {9, 5}};
  rm::MinMaxScaler scaler;
  scaler.fit(x);
  const auto restored = rm::MinMaxScaler::deserialize(scaler.serialize());
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored.value().mins(), scaler.mins());
  EXPECT_EQ(restored.value().maxs(), scaler.maxs());
}

// --- Dataset ---------------------------------------------------------------------

TEST(DatasetTest, SplitSizesAndDisjointness) {
  const auto d = linear_dataset(100, 0.0, 1);
  const auto [train, test] = rm::train_test_split(d, 0.25, 42);
  EXPECT_EQ(test.size(), 25u);
  EXPECT_EQ(train.size(), 75u);
}

TEST(DatasetTest, KFoldCoversEverything) {
  const auto d = linear_dataset(53, 0.0, 2);
  const auto folds = rm::k_fold(d, 5, 7);
  ASSERT_EQ(folds.size(), 5u);
  std::size_t total_val = 0;
  for (const auto& [train, val] : folds) {
    EXPECT_EQ(train.size() + val.size(), d.size());
    total_val += val.size();
  }
  EXPECT_EQ(total_val, d.size());
}

TEST(DatasetTest, KFoldRejectsBadK) {
  const auto d = linear_dataset(10, 0.0, 3);
  EXPECT_THROW((void)rm::k_fold(d, 1, 0), std::invalid_argument);
  EXPECT_THROW((void)rm::k_fold(d, 11, 0), std::invalid_argument);
}

// --- Kernels ---------------------------------------------------------------------

TEST(KernelTest, LinearIsDotProduct) {
  const auto k = rm::KernelFunction::linear();
  const std::vector<double> a{1, 2};
  const std::vector<double> b{3, 4};
  EXPECT_DOUBLE_EQ(k(a, b), 11.0);
}

TEST(KernelTest, RbfAtZeroDistanceIsOne) {
  const auto k = rm::KernelFunction::rbf(0.1);
  const std::vector<double> a{1, 2, 3};
  EXPECT_DOUBLE_EQ(k(a, a), 1.0);
}

TEST(KernelTest, RbfDecaysWithDistance) {
  const auto k = rm::KernelFunction::rbf(0.5);
  const std::vector<double> a{0, 0};
  const std::vector<double> b{1, 0};
  const std::vector<double> c{2, 0};
  EXPECT_GT(k(a, b), k(a, c));
}

TEST(KernelTest, PolynomialKnownValue) {
  const auto k = rm::KernelFunction::polynomial(2, 1.0, 1.0);
  const std::vector<double> a{1, 1};
  const std::vector<double> b{1, 1};
  EXPECT_DOUBLE_EQ(k(a, b), 9.0);  // (2 + 1)^2
}

TEST(KernelTest, NameRoundTrip) {
  for (auto t : {rm::KernelType::kLinear, rm::KernelType::kRbf, rm::KernelType::kPolynomial}) {
    const auto parsed = rm::kernel_type_from_string(rm::to_string(t));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value(), t);
  }
  EXPECT_FALSE(rm::kernel_type_from_string("sigmoid").ok());
}

// --- Linear regression --------------------------------------------------------------

TEST(OlsTest, RecoversExactCoefficients) {
  const auto d = linear_dataset(200, 0.0, 11);
  rm::LinearRegression ols;
  ols.fit(d.x, d.y);
  ASSERT_EQ(ols.coefficients().size(), 2u);
  EXPECT_NEAR(ols.coefficients()[0], 2.0, 1e-6);
  EXPECT_NEAR(ols.coefficients()[1], -3.0, 1e-6);
  EXPECT_NEAR(ols.intercept(), 0.5, 1e-6);
}

TEST(OlsTest, PredictsHeldOut) {
  const auto d = linear_dataset(300, 0.01, 13);
  const auto [train, test] = rm::train_test_split(d, 0.3, 5);
  rm::LinearRegression ols;
  ols.fit(train.x, train.y);
  const auto pred = ols.predict(test.x);
  EXPECT_LT(repro::common::rmse(pred, test.y), 0.05);
}

TEST(RidgeTest, ShrinksCoefficients) {
  const auto d = linear_dataset(100, 0.0, 17);
  rm::LinearRegression ols;
  rm::LinearRegression ridge(100.0);
  ols.fit(d.x, d.y);
  ridge.fit(d.x, d.y);
  EXPECT_LT(std::abs(ridge.coefficients()[0]), std::abs(ols.coefficients()[0]));
}

TEST(OlsTest, WidthMismatchThrows) {
  const auto d = linear_dataset(10, 0.0, 19);
  rm::LinearRegression ols;
  ols.fit(d.x, d.y);
  const std::vector<double> bad{1.0};
  EXPECT_THROW((void)ols.predict_one(bad), std::invalid_argument);
}

// --- LASSO ----------------------------------------------------------------------------

TEST(LassoTest, RecoversSparseSignal) {
  // y depends only on x0; x1 and x2 are noise features.
  repro::common::Xoshiro256 rng(23);
  rm::Dataset d;
  for (int i = 0; i < 300; ++i) {
    const double x0 = rng.uniform();
    const double x1 = rng.uniform();
    const double x2 = rng.uniform();
    const std::vector<double> row{x0, x1, x2};
    d.add(row, 5.0 * x0 + 1.0);
  }
  rm::Lasso lasso(rm::LassoParams{.alpha = 0.02, .tol = 1e-9, .max_iter = 20000});
  lasso.fit(d.x, d.y);
  EXPECT_GT(lasso.coefficients()[0], 4.0);
  EXPECT_NEAR(lasso.coefficients()[1], 0.0, 0.05);
  EXPECT_NEAR(lasso.coefficients()[2], 0.0, 0.05);
}

TEST(LassoTest, StrongPenaltyZeroesEverything) {
  const auto d = linear_dataset(100, 0.0, 29);
  rm::Lasso lasso(rm::LassoParams{.alpha = 1000.0, .tol = 1e-9, .max_iter = 1000});
  lasso.fit(d.x, d.y);
  for (double c : lasso.coefficients()) EXPECT_DOUBLE_EQ(c, 0.0);
}

TEST(LassoTest, WeakPenaltyApproachesOls) {
  const auto d = linear_dataset(200, 0.0, 31);
  rm::Lasso lasso(rm::LassoParams{.alpha = 1e-6, .tol = 1e-10, .max_iter = 50000});
  lasso.fit(d.x, d.y);
  EXPECT_NEAR(lasso.coefficients()[0], 2.0, 0.01);
  EXPECT_NEAR(lasso.coefficients()[1], -3.0, 0.01);
}

// --- Polynomial regression ---------------------------------------------------------------

TEST(PolyTest, FitsQuadraticExactly) {
  rm::Dataset d;
  for (int i = 0; i <= 20; ++i) {
    const double x = i / 10.0;
    const std::vector<double> row{x};
    d.add(row, 1.0 + 2.0 * x + 3.0 * x * x);
  }
  rm::PolynomialRegression poly(rm::PolynomialParams{.degree = 2, .l2 = 1e-10});
  poly.fit(d.x, d.y);
  const std::vector<double> probe{0.55};
  EXPECT_NEAR(poly.predict_one(probe), 1.0 + 2.0 * 0.55 + 3.0 * 0.55 * 0.55, 1e-5);
}

TEST(PolyTest, ExpansionContainsInteractions) {
  rm::PolynomialRegression poly(
      rm::PolynomialParams{.degree = 2, .l2 = 1e-8, .interactions = true});
  const std::vector<double> x{2.0, 3.0};
  const auto e = poly.expand(x);
  // [x0, x1, x0^2, x1^2, x0*x1]
  ASSERT_EQ(e.size(), 5u);
  EXPECT_DOUBLE_EQ(e.back(), 6.0);
}

// --- SVR -------------------------------------------------------------------------------

TEST(SvrTest, LinearKernelFitsLinearFunction) {
  const auto d = linear_dataset(150, 0.0, 37);
  rm::SvrParams params;
  params.kernel = rm::KernelFunction::linear();
  params.c = 1000.0;
  params.epsilon = 0.01;
  rm::Svr svr(params);
  svr.fit(d.x, d.y);
  EXPECT_TRUE(svr.training_info().converged);
  const auto pred = svr.predict(d.x);
  // Predictions must track the target within the epsilon tube + slack.
  EXPECT_LT(repro::common::rmse(pred, d.y), 0.05);
}

TEST(SvrTest, RbfKernelFitsNonlinearFunction) {
  const auto d = nonlinear_dataset(300, 41);
  rm::SvrParams params;
  params.kernel = rm::KernelFunction::rbf(2.0);
  params.c = 100.0;
  params.epsilon = 0.01;
  rm::Svr svr(params);
  svr.fit(d.x, d.y);
  const auto pred = svr.predict(d.x);
  EXPECT_LT(repro::common::rmse(pred, d.y), 0.08);
}

TEST(SvrTest, LinearKernelUnderfitsNonlinearTarget) {
  const auto d = nonlinear_dataset(300, 43);
  rm::SvrParams lin;
  lin.kernel = rm::KernelFunction::linear();
  lin.epsilon = 0.01;
  rm::SvrParams rbf;
  rbf.kernel = rm::KernelFunction::rbf(2.0);
  rbf.epsilon = 0.01;
  rm::Svr svr_lin(lin);
  rm::Svr svr_rbf(rbf);
  svr_lin.fit(d.x, d.y);
  svr_rbf.fit(d.x, d.y);
  const double rmse_lin = repro::common::rmse(svr_lin.predict(d.x), d.y);
  const double rmse_rbf = repro::common::rmse(svr_rbf.predict(d.x), d.y);
  EXPECT_GT(rmse_lin, rmse_rbf);
}

TEST(SvrTest, EpsilonTubeLimitsSupportVectors) {
  const auto d = linear_dataset(200, 0.0, 47);
  rm::SvrParams wide;
  wide.kernel = rm::KernelFunction::linear();
  wide.epsilon = 10.0;  // everything inside the tube
  rm::Svr svr(wide);
  svr.fit(d.x, d.y);
  EXPECT_EQ(svr.num_support_vectors(), 0u);
}

TEST(SvrTest, PredictBeforeFitThrows) {
  rm::Svr svr;
  const std::vector<double> x{1.0};
  EXPECT_THROW((void)svr.predict_one(x), std::logic_error);
}

TEST(SvrTest, EmptyTrainingSetThrows) {
  rm::Svr svr;
  rm::Matrix x(0, 0);
  EXPECT_THROW(svr.fit(x, {}), std::invalid_argument);
}

TEST(SvrTest, RejectsInputOfAnotherWidth) {
  // Fitted on two features: a wider or narrower input must throw instead of
  // reading past the support-vector rows — fitted and deserialized alike.
  const auto d = linear_dataset(60, 0.0, 53);
  rm::Svr svr;
  svr.fit(d.x, d.y);
  const auto restored = rm::Svr::deserialize(svr.serialize());
  ASSERT_TRUE(restored.ok());
  const std::vector<double> wide{0.1, 0.2, 0.3};
  const std::vector<double> narrow{0.1};
  const rm::Svr& fitted = svr;
  for (const rm::Svr* model : {&fitted, &restored.value()}) {
    EXPECT_THROW((void)model->predict_one(wide), std::invalid_argument);
    EXPECT_THROW((void)model->predict_one(narrow), std::invalid_argument);
    EXPECT_THROW((void)model->predict(rm::Matrix(4, 3, 0.5)), std::invalid_argument);
    EXPECT_THROW((void)model->predict(rm::Matrix(4, 1, 0.5)), std::invalid_argument);
    EXPECT_TRUE(model->predict(rm::Matrix(0, 0)).empty());
  }
}

TEST(SvrTest, SerializeRoundTripPreservesPredictions) {
  const auto d = nonlinear_dataset(120, 53);
  rm::SvrParams params;
  params.kernel = rm::KernelFunction::rbf(1.0);
  rm::Svr svr(params);
  svr.fit(d.x, d.y);
  const auto restored = rm::Svr::deserialize(svr.serialize());
  ASSERT_TRUE(restored.ok());
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(restored.value().predict_one(d.x.row(i)), svr.predict_one(d.x.row(i)));
  }
}

TEST(SvrTest, DeserializeRejectsGarbage) {
  EXPECT_FALSE(rm::Svr::deserialize("not a model").ok());
  EXPECT_FALSE(rm::Svr::deserialize("svr bogus_kernel 0 0 0 1 0.1 0 0 0").ok());
}

/// Parameterized sweep: every kernel family must beat the mean predictor on
/// data it can represent.
class SvrKernelSweep : public ::testing::TestWithParam<rm::KernelType> {};

TEST_P(SvrKernelSweep, BeatsMeanPredictorOnLinearData) {
  const auto d = linear_dataset(150, 0.05, 61);
  rm::SvrParams params;
  switch (GetParam()) {
    case rm::KernelType::kLinear: params.kernel = rm::KernelFunction::linear(); break;
    case rm::KernelType::kRbf: params.kernel = rm::KernelFunction::rbf(1.0); break;
    case rm::KernelType::kPolynomial:
      params.kernel = rm::KernelFunction::polynomial(2, 1.0, 1.0);
      break;
  }
  params.epsilon = 0.05;
  rm::Svr svr(params);
  svr.fit(d.x, d.y);
  const auto pred = svr.predict(d.x);
  const double model_rmse = repro::common::rmse(pred, d.y);
  const double mean = repro::common::mean(d.y);
  std::vector<double> mean_pred(d.y.size(), mean);
  const double mean_rmse = repro::common::rmse(mean_pred, d.y);
  EXPECT_LT(model_rmse, mean_rmse * 0.5);
}

INSTANTIATE_TEST_SUITE_P(AllKernels, SvrKernelSweep,
                         ::testing::Values(rm::KernelType::kLinear, rm::KernelType::kRbf,
                                           rm::KernelType::kPolynomial));

/// The paper's exact hyper-parameters must train stably.
TEST(SvrTest, PaperParametersTrainOnSyntheticData) {
  const auto d = nonlinear_dataset(400, 71);
  rm::SvrParams params;
  params.kernel = rm::KernelFunction::rbf(0.1);
  params.c = 1000.0;
  params.epsilon = 0.1;
  rm::Svr svr(params);
  svr.fit(d.x, d.y);
  EXPECT_TRUE(svr.fitted());
  const auto pred = svr.predict(d.x);
  // gamma = 0.1 is a very smooth kernel for this target; the fit stays
  // within the epsilon tube plus smoothing bias.
  EXPECT_LT(repro::common::rmse(pred, d.y), 0.35);
}
