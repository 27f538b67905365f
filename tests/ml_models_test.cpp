#include <gtest/gtest.h>

#include <cmath>

#include "ic/ml/greedy_models.hpp"
#include "ic/ml/linear_models.hpp"
#include "ic/ml/online_models.hpp"
#include "ic/ml/robust_models.hpp"
#include "ic/ml/svr.hpp"
#include "ic/support/rng.hpp"

namespace ic::ml {
namespace {

using graph::Matrix;

/// y = 2 x0 − 3 x1 + 1 + noise on n samples, d features (extras irrelevant).
struct LinearTask {
  Matrix x;
  std::vector<double> y;
};

LinearTask make_linear_task(std::size_t n, std::size_t d, double noise,
                            std::uint64_t seed) {
  Rng rng(seed);
  LinearTask task;
  task.x = Matrix(n, d);
  task.y.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < d; ++j) task.x(i, j) = rng.uniform(-2.0, 2.0);
    task.y[i] =
        2.0 * task.x(i, 0) - 3.0 * task.x(i, 1) + 1.0 + rng.normal(0.0, noise);
  }
  return task;
}

TEST(LinearRegression, RecoversPlantedCoefficients) {
  const auto task = make_linear_task(200, 4, 0.0, 1);
  LinearRegression lr;
  lr.fit(task.x, task.y);
  EXPECT_NEAR(lr.predict_one({1.0, 1.0, 0.0, 0.0}), 0.0, 1e-8);
  EXPECT_NEAR(lr.predict_one({0.0, 0.0, 0.0, 0.0}), 1.0, 1e-8);
  EXPECT_LT(lr.mse(task.x, task.y), 1e-16);
}

TEST(LinearRegression, NoisyFitStillClose) {
  const auto task = make_linear_task(400, 3, 0.1, 2);
  LinearRegression lr;
  lr.fit(task.x, task.y);
  EXPECT_LT(lr.mse(task.x, task.y), 0.02);
}

TEST(Ridge, ShrinksButStaysAccurate) {
  const auto task = make_linear_task(300, 4, 0.05, 3);
  RidgeRegression rr(1.0);
  rr.fit(task.x, task.y);
  EXPECT_LT(rr.mse(task.x, task.y), 0.05);
}

TEST(Ridge, HandlesConstantColumnGracefully) {
  auto task = make_linear_task(100, 3, 0.0, 4);
  for (std::size_t i = 0; i < 100; ++i) task.x(i, 2) = 5.0;  // constant
  RidgeRegression rr(1.0);
  EXPECT_NO_THROW(rr.fit(task.x, task.y));
  EXPECT_LT(rr.mse(task.x, task.y), 0.1);
}

TEST(Lasso, ZeroesIrrelevantFeaturesAtHighAlpha) {
  // Strong signal on x0, nothing on the other 9 features.
  Rng rng(5);
  Matrix x(150, 10);
  std::vector<double> y(150);
  for (std::size_t i = 0; i < 150; ++i) {
    for (std::size_t j = 0; j < 10; ++j) x(i, j) = rng.uniform(-1.0, 1.0);
    y[i] = 5.0 * x(i, 0);
  }
  Lasso lasso(0.5);
  lasso.fit(x, y);
  // Prediction must be driven almost entirely by x0.
  const double with_x0 = lasso.predict_one({1, 0, 0, 0, 0, 0, 0, 0, 0, 0});
  const double without = lasso.predict_one({0, 1, 1, 1, 1, 1, 1, 1, 1, 1});
  EXPECT_GT(with_x0, 2.0);
  EXPECT_NEAR(without, 0.0, 0.5);
}

TEST(ElasticNet, FitsReasonably) {
  const auto task = make_linear_task(250, 5, 0.05, 6);
  ElasticNet en(0.01, 0.5);
  en.fit(task.x, task.y);
  EXPECT_LT(en.mse(task.x, task.y), 0.2);
}

TEST(SvrRbf, FitsNonlinearFunction) {
  // y = sin(x) on [-3, 3]: linear models cannot, RBF-SVR can.
  Rng rng(7);
  Matrix x(120, 1);
  std::vector<double> y(120);
  for (std::size_t i = 0; i < 120; ++i) {
    x(i, 0) = rng.uniform(-3.0, 3.0);
    y[i] = std::sin(x(i, 0));
  }
  SvrOptions opt;
  opt.kernel = Kernel::Rbf;
  opt.gamma = 1.0;
  opt.c = 10.0;
  opt.epsilon = 0.01;
  opt.max_iter = 3000;
  opt.learning_rate = 0.1;
  Svr svr(opt);
  svr.fit(x, y);
  EXPECT_LT(svr.mse(x, y), 0.05);
}

TEST(SvrPoly, FitsCubicTrend) {
  Rng rng(8);
  Matrix x(100, 1);
  std::vector<double> y(100);
  for (std::size_t i = 0; i < 100; ++i) {
    x(i, 0) = rng.uniform(-1.0, 1.0);
    y[i] = x(i, 0) * x(i, 0) * x(i, 0);
  }
  SvrOptions opt;
  opt.kernel = Kernel::Poly;
  opt.gamma = 1.0;
  opt.degree = 3;
  opt.c = 10.0;
  opt.epsilon = 0.01;
  opt.max_iter = 2000;
  opt.learning_rate = 0.05;
  Svr svr(opt);
  svr.fit(x, y);
  EXPECT_LT(svr.mse(x, y), 0.05);
}

TEST(Sgd, FitsWellScaledData) {
  const auto task = make_linear_task(300, 3, 0.05, 9);
  SgdRegressor sgd(0.05, 0.25, 1e-6, 200, 1);
  sgd.fit(task.x, task.y);
  EXPECT_LT(sgd.mse(task.x, task.y), 0.1);
}

TEST(Sgd, DivergesOnBadlyScaledFeatures) {
  // Features of magnitude ~1e4 with unit-scale targets: constant-eta0 SGD
  // overshoots — the e+25 rows of the paper's tables.
  Rng rng(10);
  Matrix x(100, 2);
  std::vector<double> y(100);
  for (std::size_t i = 0; i < 100; ++i) {
    x(i, 0) = rng.uniform(1e4, 2e4);
    x(i, 1) = rng.uniform(1e4, 2e4);
    y[i] = 0.001 * x(i, 0);
  }
  SgdRegressor sgd;
  sgd.fit(x, y);
  const double m = sgd.mse(x, y);
  EXPECT_TRUE(m > 1e6 || !std::isfinite(m));
}

TEST(PassiveAggressive, FitsLinearTask) {
  const auto task = make_linear_task(300, 3, 0.0, 11);
  PassiveAggressiveRegressor par(1.0, 0.05, 80, 1);
  par.fit(task.x, task.y);
  EXPECT_LT(par.mse(task.x, task.y), 0.3);
}

TEST(Omp, SelectsTheInformativeFeatures) {
  Rng rng(12);
  Matrix x(200, 12);
  std::vector<double> y(200);
  for (std::size_t i = 0; i < 200; ++i) {
    for (std::size_t j = 0; j < 12; ++j) x(i, j) = rng.uniform(-1.0, 1.0);
    y[i] = 4.0 * x(i, 2) - 2.0 * x(i, 7);
  }
  OrthogonalMatchingPursuit omp(2);
  omp.fit(x, y);
  ASSERT_EQ(omp.active_set().size(), 2u);
  const auto& active = omp.active_set();
  EXPECT_TRUE((active[0] == 2 && active[1] == 7) ||
              (active[0] == 7 && active[1] == 2));
  EXPECT_LT(omp.mse(x, y), 1e-10);
}

TEST(Lars, ApproachesLeastSquaresOnEasyTask) {
  const auto task = make_linear_task(200, 3, 0.0, 13);
  Lars lars;
  lars.fit(task.x, task.y);
  EXPECT_LT(lars.mse(task.x, task.y), 0.1);
}

TEST(TheilSen, RobustToOutliers) {
  Rng rng(14);
  Matrix x(80, 1);
  std::vector<double> y(80);
  for (std::size_t i = 0; i < 80; ++i) {
    x(i, 0) = rng.uniform(-1.0, 1.0);
    y[i] = 3.0 * x(i, 0) + 0.5;
  }
  // Corrupt 10% with gross outliers.
  for (std::size_t i = 0; i < 8; ++i) y[i * 10] += 100.0;
  TheilSen ts(60, 1);
  ts.fit(x, y);
  LinearRegression lr;
  lr.fit(x, y);
  // Theil-Sen's slope estimate must beat OLS under contamination.
  const double ts_err = std::fabs(ts.predict_one({1.0}) - ts.predict_one({0.0}) - 3.0);
  const double lr_err = std::fabs(lr.predict_one({1.0}) - lr.predict_one({0.0}) - 3.0);
  EXPECT_LT(ts_err, lr_err);
  EXPECT_LT(ts_err, 0.5);
}

TEST(TheilSen, RefusesUnderdeterminedDesigns) {
  Matrix x(5, 10);
  std::vector<double> y(5, 1.0);
  TheilSen ts;
  EXPECT_THROW(ts.fit(x, y), std::runtime_error);
}

TEST(Factory, ProducesEveryBaseline) {
  for (const auto& name : baseline_names()) {
    const auto model = make_regressor(name);
    ASSERT_NE(model, nullptr) << name;
    EXPECT_EQ(model->name(), name);
  }
  EXPECT_THROW(make_regressor("GPT"), std::runtime_error);
}

TEST(Factory, AllBaselinesFitATinyTask) {
  const auto task = make_linear_task(60, 2, 0.1, 15);
  for (const auto& name : baseline_names()) {
    auto model = make_regressor(name);
    ASSERT_NO_THROW(model->fit(task.x, task.y)) << name;
    const double m = model->mse(task.x, task.y);
    EXPECT_TRUE(std::isfinite(m) || name == "SGD") << name << " mse " << m;
  }
}

}  // namespace
}  // namespace ic::ml
