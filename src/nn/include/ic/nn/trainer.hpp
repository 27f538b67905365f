// Mini-batch training loop for GnnRegressor (Algorithm 1 of the paper).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "ic/nn/regressor.hpp"

namespace ic::nn {

/// One training/evaluation example: a graph (as a structure operator), node
/// features, and a scalar log-runtime target. The structure operator is
/// shared across samples of the same circuit.
struct GraphSample {
  std::shared_ptr<const graph::SparseMatrix> structure;
  graph::Matrix features;
  double target = 0.0;
};

struct TrainOptions {
  std::size_t max_epochs = 300;
  std::size_t batch_size = 16;
  double learning_rate = 1e-2;
  /// Stop when the epoch loss improves by less than `tolerance` relatively
  /// for `patience` consecutive epochs ("stop when the loss is converged",
  /// §IV.B).
  double tolerance = 1e-4;
  std::size_t patience = 20;
  /// Decoupled weight decay (AdamW); regularizes the small-sample regime.
  double weight_decay = 1e-4;
  std::uint64_t seed = 7;
  /// Per-graph forward/backward workers within a minibatch (0 = IC_JOBS,
  /// unset = serial). Each sample's gradient contribution is computed in a
  /// per-sample buffer and reduced on the calling thread in sample order,
  /// at jobs=1 too, so training is bit-identical at any jobs value.
  /// Scaling is sublinear: the optimizer step and the reduction stay
  /// serial (Amdahl).
  std::size_t jobs = 0;
};

struct TrainReport {
  std::size_t epochs_run = 0;
  double final_train_mse = 0.0;
  std::vector<double> epoch_losses;
  /// Wall-clock seconds per epoch, parallel to epoch_losses.
  std::vector<double> epoch_seconds;
  /// Total wall-clock seconds spent in train_gnn.
  double wall_seconds = 0.0;
};

/// Train with Adam on MSE, clipping each batch's global gradient norm to 5.
/// Returns the per-epoch loss trace.
TrainReport train_gnn(GnnRegressor& model, const std::vector<GraphSample>& train,
                      const TrainOptions& options = {});

/// Mean squared error of the model on a sample set.
double evaluate_mse(const GnnRegressor& model,
                    const std::vector<GraphSample>& samples);

/// Predictions for each sample in order.
std::vector<double> predict_all(const GnnRegressor& model,
                                const std::vector<GraphSample>& samples);

}  // namespace ic::nn
