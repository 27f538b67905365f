#include <gtest/gtest.h>

#include <cmath>

#include "ic/circuit/library.hpp"
#include "ic/data/dataset.hpp"
#include "ic/nn/optimizer.hpp"
#include "ic/nn/trainer.hpp"

namespace ic::nn {
namespace {

using graph::Matrix;

/// Synthetic learning task on the c17 graph: target = 0.4 * (#marked gates),
/// the same monotone mask→runtime dependence the real datasets have.
std::vector<GraphSample> synthetic_samples(std::size_t count, std::uint64_t seed) {
  const auto circuit = circuit::c17();
  const auto s = data::make_structure(circuit, data::StructureKind::Adjacency);
  Rng rng(seed);
  std::vector<GraphSample> out;
  for (std::size_t i = 0; i < count; ++i) {
    GraphSample sample;
    sample.structure = s;
    sample.features = Matrix(circuit.size(), 2);
    double marked = 0.0;
    for (std::size_t g = 0; g < circuit.size(); ++g) {
      const bool on = rng.bernoulli(0.4);
      sample.features(g, 0) = on ? 1.0 : 0.0;
      sample.features(g, 1) = 1.0;  // constant channel
      marked += on ? 1.0 : 0.0;
    }
    sample.target = 0.4 * marked;
    out.push_back(std::move(sample));
  }
  return out;
}

class TrainingConfigs : public ::testing::TestWithParam<Readout> {};

TEST_P(TrainingConfigs, LossDecreasesAndFitsSyntheticTask) {
  const auto samples = synthetic_samples(60, 5);
  GnnConfig cfg;
  cfg.in_features = 2;
  cfg.hidden = {8, 4};
  cfg.readout = GetParam();
  cfg.exp_head = true;
  cfg.seed = 3;
  GnnRegressor model(cfg);

  TrainOptions opt;
  opt.max_epochs = 200;
  opt.learning_rate = 0.02;
  opt.seed = 11;
  const TrainReport report = train_gnn(model, samples, opt);

  ASSERT_FALSE(report.epoch_losses.empty());
  EXPECT_LT(report.final_train_mse, report.epoch_losses.front());
  EXPECT_LT(report.final_train_mse, 0.2) << "did not fit the synthetic task";
}

INSTANTIATE_TEST_SUITE_P(Readouts, TrainingConfigs,
                         ::testing::Values(Readout::Sum, Readout::Mean,
                                           Readout::Attention),
                         [](const auto& info) {
                           switch (info.param) {
                             case Readout::Sum: return "Sum";
                             case Readout::Mean: return "Mean";
                             case Readout::Attention: return "Attention";
                           }
                           return "?";
                         });

TEST(Training, EarlyStoppingTriggersOnConvergence) {
  const auto samples = synthetic_samples(20, 9);
  GnnConfig cfg;
  cfg.in_features = 2;
  cfg.hidden = {4};
  GnnRegressor model(cfg);
  TrainOptions opt;
  opt.max_epochs = 4000;
  opt.patience = 5;
  opt.tolerance = 0.5;  // brutally strict improvement requirement
  const TrainReport report = train_gnn(model, samples, opt);
  EXPECT_LT(report.epochs_run, 4000u);  // stopped early
}

TEST(Training, EvaluateAndPredictAllAreConsistent) {
  const auto samples = synthetic_samples(30, 13);
  GnnConfig cfg;
  cfg.in_features = 2;
  cfg.hidden = {6, 3};
  GnnRegressor model(cfg);
  TrainOptions opt;
  opt.max_epochs = 60;
  train_gnn(model, samples, opt);
  const auto preds = predict_all(model, samples);
  ASSERT_EQ(preds.size(), samples.size());
  double manual = 0.0;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    manual += (preds[i] - samples[i].target) * (preds[i] - samples[i].target);
  }
  manual /= static_cast<double>(samples.size());
  EXPECT_NEAR(manual, evaluate_mse(model, samples), 1e-12);
}

TEST(Training, DeterministicGivenSeeds) {
  const auto samples = synthetic_samples(25, 21);
  GnnConfig cfg;
  cfg.in_features = 2;
  cfg.hidden = {5};
  cfg.seed = 7;
  TrainOptions opt;
  opt.max_epochs = 40;
  opt.seed = 2;

  GnnRegressor m1(cfg), m2(cfg);
  train_gnn(m1, samples, opt);
  train_gnn(m2, samples, opt);
  EXPECT_DOUBLE_EQ(evaluate_mse(m1, samples), evaluate_mse(m2, samples));
}

TEST(Training, ParallelMinibatchIsBitIdenticalToSerial) {
  // Per-sample gradient buffers are reduced on the calling thread in sample
  // order — the exact additions the serial loop performs — so the whole
  // training trajectory matches bit for bit at any jobs value.
  const auto samples = synthetic_samples(40, 17);
  GnnConfig cfg;
  cfg.in_features = 2;
  cfg.hidden = {8, 4};
  cfg.readout = Readout::Attention;
  cfg.seed = 3;
  TrainOptions opt;
  opt.max_epochs = 30;
  opt.batch_size = 8;
  opt.seed = 11;

  GnnRegressor serial_model(cfg), parallel_model(cfg);
  opt.jobs = 1;
  const TrainReport serial = train_gnn(serial_model, samples, opt);
  opt.jobs = 4;
  const TrainReport parallel = train_gnn(parallel_model, samples, opt);

  ASSERT_EQ(serial.epochs_run, parallel.epochs_run);
  ASSERT_EQ(serial.epoch_losses.size(), parallel.epoch_losses.size());
  for (std::size_t e = 0; e < serial.epoch_losses.size(); ++e) {
    EXPECT_EQ(serial.epoch_losses[e], parallel.epoch_losses[e])
        << "epoch " << e;
  }
  const auto p_serial = predict_all(serial_model, samples);
  const auto p_parallel = predict_all(parallel_model, samples);
  for (std::size_t i = 0; i < p_serial.size(); ++i) {
    EXPECT_EQ(p_serial[i], p_parallel[i]) << "sample " << i;
  }
}

TEST(Adam, ConvergesOnQuadraticBowl) {
  // Minimize ||p - t||² for a 2×2 parameter.
  Matrix p(2, 2, 1.0);
  Matrix g(2, 2);
  const Matrix t{{0.3, -0.7}, {1.5, 0.0}};
  Adam adam(0.05);
  for (int it = 0; it < 500; ++it) {
    g = (p - t) * 2.0;
    adam.step({&p}, {&g});
  }
  EXPECT_LT(Matrix::max_abs_diff(p, t), 1e-3);
}

TEST(Adam, RejectsChangedParameterSet) {
  Matrix p1(1, 1), p2(2, 2), g1(1, 1), g2(2, 2);
  Adam adam(0.01);
  adam.step({&p1}, {&g1});
  EXPECT_THROW(adam.step({&p1, &p2}, {&g1, &g2}), std::logic_error);
}

}  // namespace
}  // namespace ic::nn
