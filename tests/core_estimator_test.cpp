#include <gtest/gtest.h>

#include <cmath>

#include "ic/circuit/generator.hpp"
#include "ic/core/estimator.hpp"
#include "ic/data/metrics.hpp"
#include "ic/locking/policy.hpp"

namespace ic::core {
namespace {

using circuit::GateId;
using circuit::Netlist;

Netlist test_circuit() {
  circuit::GeneratorSpec spec;
  spec.num_inputs = 10;
  spec.num_outputs = 5;
  spec.num_gates = 56;
  spec.seed = 99;
  return circuit::generate_circuit(spec, "est");
}

data::Dataset test_dataset(const Netlist& nl, std::size_t count,
                           std::uint64_t seed) {
  data::DatasetOptions opt;
  opt.num_instances = count;
  opt.min_gates = 1;
  opt.max_gates = 8;
  opt.attack.max_conflicts = 20000;
  opt.seed = seed;
  return data::generate_dataset(nl, opt);
}

class EstimatorEndToEnd : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    circuit_ = new Netlist(test_circuit());
    dataset_ = new data::Dataset(test_dataset(*circuit_, 40, 5));
  }
  static void TearDownTestSuite() {
    delete dataset_;
    delete circuit_;
    dataset_ = nullptr;
    circuit_ = nullptr;
  }
  static Netlist* circuit_;
  static data::Dataset* dataset_;
};

Netlist* EstimatorEndToEnd::circuit_ = nullptr;
data::Dataset* EstimatorEndToEnd::dataset_ = nullptr;

TEST_F(EstimatorEndToEnd, FitPredictsBetterThanConstantBaseline) {
  EstimatorOptions opt;
  opt.train.max_epochs = 150;
  RuntimeEstimator estimator(opt);
  EXPECT_FALSE(estimator.is_fitted());
  const auto report = estimator.fit(*dataset_);
  EXPECT_TRUE(estimator.is_fitted());
  EXPECT_GT(report.epochs_run, 0u);

  const double model_mse = estimator.evaluate(*dataset_);
  // Constant (mean) predictor baseline.
  const auto y = dataset_->log_targets();
  double mean = 0.0;
  for (double v : y) mean += v;
  mean /= static_cast<double>(y.size());
  double var = 0.0;
  for (double v : y) var += (v - mean) * (v - mean);
  var /= static_cast<double>(y.size());
  EXPECT_LT(model_mse, var) << "ICNet must beat a constant predictor in-sample";
}

TEST_F(EstimatorEndToEnd, PredictsPositiveRuntimeAndRanksBySize) {
  EstimatorOptions opt;
  opt.train.max_epochs = 150;
  RuntimeEstimator estimator(opt);
  estimator.fit(*dataset_);
  const auto small =
      locking::select_gates(*circuit_, 1, locking::SelectionPolicy::Random, 2);
  const auto large =
      locking::select_gates(*circuit_, 8, locking::SelectionPolicy::Random, 2);
  const double s_sec = estimator.predict_seconds(small);
  const double l_sec = estimator.predict_seconds(large);
  EXPECT_GT(s_sec, 0.0);
  EXPECT_GT(l_sec, s_sec) << "more locked gates must predict a longer attack";

  const auto order = estimator.rank_selections({small, large});
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1u);  // the 8-gate candidate is the harder one
}

TEST_F(EstimatorEndToEnd, FeatureAttentionIsDistribution) {
  EstimatorOptions opt;
  opt.train.max_epochs = 60;
  RuntimeEstimator estimator(opt);
  estimator.fit(*dataset_);
  estimator.predict_log_runtime(
      locking::select_gates(*circuit_, 4, locking::SelectionPolicy::Random, 3));
  const auto att = estimator.feature_attention();
  ASSERT_FALSE(att.empty());
  double sum = 0.0;
  for (double a : att) {
    EXPECT_GE(a, 0.0);
    sum += a;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST_F(EstimatorEndToEnd, SaveLoadRoundTripPreservesPredictions) {
  EstimatorOptions opt;
  opt.train.max_epochs = 60;
  RuntimeEstimator a(opt);
  a.fit(*dataset_);
  const auto sel =
      locking::select_gates(*circuit_, 5, locking::SelectionPolicy::Random, 4);
  const double before = a.predict_log_runtime(sel);

  const std::string path = ::testing::TempDir() + "/icnet_model.txt";
  a.save(path);

  auto b = RuntimeEstimator::from_file(path);
  b.set_circuit(*circuit_);
  EXPECT_DOUBLE_EQ(b.predict_log_runtime(sel), before);
}

TEST_F(EstimatorEndToEnd, VariantsAllTrain) {
  for (auto variant : {ModelVariant::ICNet, ModelVariant::Gcn, ModelVariant::ChebNet,
                       ModelVariant::Sage}) {
    EstimatorOptions opt;
    opt.variant = variant;
    opt.train.max_epochs = 40;
    RuntimeEstimator estimator(opt);
    const auto report = estimator.fit(*dataset_);
    EXPECT_TRUE(std::isfinite(report.final_train_mse));
  }
}

TEST(Estimator, GuardsAgainstMisuse) {
  RuntimeEstimator estimator;
  EXPECT_THROW(estimator.predict_log_runtime({1}), std::runtime_error);
  EXPECT_THROW(estimator.evaluate(data::Dataset{}), std::runtime_error);
  EXPECT_THROW(estimator.save("/tmp/x.txt"), std::runtime_error);

  EstimatorOptions sum_opt;
  sum_opt.readout = nn::Readout::Sum;
  RuntimeEstimator sum_est(sum_opt);
  EXPECT_THROW(sum_est.feature_attention(), std::runtime_error);
}

}  // namespace
}  // namespace ic::core

#include "ic/core/validation.hpp"

namespace ic::core {
namespace {

TEST_F(EstimatorEndToEnd, CrossValidationProducesFiniteFolds) {
  EstimatorOptions opt;
  opt.train.max_epochs = 40;
  const auto report = cross_validate(opt, *dataset_, 4, 9);
  ASSERT_EQ(report.fold_mse.size(), 4u);
  for (double v : report.fold_mse) {
    EXPECT_TRUE(std::isfinite(v));
    EXPECT_GT(v, 0.0);
  }
  EXPECT_GT(report.mean_mse, 0.0);
  EXPECT_GE(report.stddev_mse, 0.0);
}

TEST_F(EstimatorEndToEnd, CrossValidationIsBitIdenticalAtAnyJobs) {
  // One fold per task, each fold self-contained and seeded from the options:
  // the fold MSEs must not change by a single bit when folds run in parallel.
  EstimatorOptions opt;
  opt.train.max_epochs = 25;
  const auto serial = cross_validate(opt, *dataset_, 4, 9, /*jobs=*/1);
  const auto parallel = cross_validate(opt, *dataset_, 4, 9, /*jobs=*/4);
  ASSERT_EQ(serial.fold_mse.size(), parallel.fold_mse.size());
  for (std::size_t f = 0; f < serial.fold_mse.size(); ++f) {
    EXPECT_EQ(serial.fold_mse[f], parallel.fold_mse[f]) << "fold " << f;
  }
  EXPECT_EQ(serial.mean_mse, parallel.mean_mse);
  EXPECT_EQ(serial.stddev_mse, parallel.stddev_mse);
}

TEST(CrossValidate, RejectsTooFewInstances) {
  data::Dataset tiny;
  tiny.circuit = std::make_shared<const circuit::Netlist>(test_circuit());
  tiny.instances.resize(2);
  EXPECT_THROW(cross_validate({}, tiny, 5), std::runtime_error);
}

TEST_F(EstimatorEndToEnd, EnsemblePredictsWithUncertainty) {
  EstimatorOptions opt;
  opt.train.max_epochs = 40;
  EnsembleEstimator ensemble(opt, 3);
  EXPECT_FALSE(ensemble.is_fitted());
  ensemble.fit(*dataset_);
  EXPECT_TRUE(ensemble.is_fitted());
  EXPECT_EQ(ensemble.size(), 3u);

  const auto sel =
      locking::select_gates(*circuit_, 4, locking::SelectionPolicy::Random, 6);
  const auto pred = ensemble.predict(sel);
  EXPECT_TRUE(std::isfinite(pred.log_runtime));
  EXPECT_GT(pred.seconds, 0.0);
  EXPECT_GT(pred.stddev, 0.0) << "seed-diverse members must disagree a little";
  EXPECT_TRUE(std::isfinite(ensemble.evaluate(*dataset_)));
}

TEST(Ensemble, GuardsAgainstMisuse) {
  EnsembleEstimator ensemble;
  EXPECT_THROW(ensemble.predict({1}), std::runtime_error);
}

}  // namespace
}  // namespace ic::core
