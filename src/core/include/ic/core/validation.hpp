// Model-selection utilities: k-fold cross-validation over attack-labeled
// datasets, and a seed-ensemble estimator that reports predictive
// uncertainty — what a defender needs before trusting the estimator enough
// to skip real attacks.
#pragma once

#include <cstdint>

#include "ic/core/estimator.hpp"

namespace ic::core {

struct CrossValidationReport {
  std::vector<double> fold_mse;  ///< held-out MSE per fold
  double mean_mse = 0.0;
  double stddev_mse = 0.0;
};

/// k-fold cross-validation of an estimator configuration on a dataset.
/// Folds are a deterministic shuffle of the instances; each fold trains a
/// fresh estimator on the remaining folds and evaluates on the held-out one.
/// `jobs` runs folds concurrently, one fold per task (0 = IC_JOBS, unset =
/// serial); every fold is self-contained and seeded from `options`, so the
/// report is bit-identical at any jobs value. Note the trainer has its own
/// `options.train.jobs` knob — nested parallelism multiplies thread counts.
CrossValidationReport cross_validate(const EstimatorOptions& options,
                                     const data::Dataset& dataset,
                                     std::size_t folds = 5,
                                     std::uint64_t seed = 1,
                                     std::size_t jobs = 0);

/// Bagging-by-seed ensemble of RuntimeEstimators. Member models share the
/// architecture but differ in initialization and data order; the spread of
/// their predictions is an uncertainty estimate.
class EnsembleEstimator {
 public:
  explicit EnsembleEstimator(EstimatorOptions options = {},
                             std::size_t members = 5);

  void fit(const data::Dataset& dataset);

  struct Prediction {
    double log_runtime = 0.0;  ///< ensemble mean, label scale
    double seconds = 0.0;      ///< data::seconds_of_label(mean)
    double stddev = 0.0;       ///< member disagreement, label scale
  };
  Prediction predict(const std::vector<circuit::GateId>& selection);

  double evaluate(const data::Dataset& dataset);
  std::size_t size() const { return members_.size(); }
  bool is_fitted() const { return fitted_; }

 private:
  std::vector<RuntimeEstimator> members_;
  bool fitted_ = false;
};

}  // namespace ic::core
