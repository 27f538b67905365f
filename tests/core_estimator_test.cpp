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

  const auto y = dataset_->log_targets();
  double model_mse = 0.0;
  for (std::size_t i = 0; i < y.size(); ++i) {
    const double r =
        estimator.predict_log_runtime(dataset_->instances[i].selection) - y[i];
    model_mse += r * r;
  }
  model_mse /= static_cast<double>(y.size());
  // Constant (mean) predictor baseline.
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
  EXPECT_THROW(estimator.save("/tmp/x.txt"), std::runtime_error);
}

}  // namespace
}  // namespace ic::core
