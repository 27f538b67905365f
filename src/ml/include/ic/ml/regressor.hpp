// Common interface for the classic vector-input regression baselines of the
// paper's evaluation (Table I/II rows above the graph models). Each model
// consumes a flattened feature vector (the paper feeds them "sum or mean on
// concatenation of Laplacian or adjacency matrix and gate features").
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "ic/graph/matrix.hpp"

namespace ic::ml {

class VectorRegressor {
 public:
  virtual ~VectorRegressor() = default;

  /// Fit on design matrix X (N×D) and targets y (N). Throws
  /// std::runtime_error for configurations the estimator cannot handle
  /// (reported as N/A by the benchmark tables).
  virtual void fit(const graph::Matrix& x, const std::vector<double>& y) = 0;

  /// Predict a single example (size D).
  virtual double predict_one(const std::vector<double>& x) const = 0;

  virtual std::string name() const = 0;

  /// Predict every row of X.
  std::vector<double> predict(const graph::Matrix& x) const;

  /// MSE on a labeled set.
  double mse(const graph::Matrix& x, const std::vector<double>& y) const;
};

/// Factory over the paper's baseline rows: "LR", "RR", "LASSO", "EN",
/// "SVR_RBF", "SVR_POLY", "SGD", "PAR", "OMP", "LARS", "Theil".
std::unique_ptr<VectorRegressor> make_regressor(const std::string& name,
                                                std::uint64_t seed = 1);

/// The paper's baseline rows, in table order.
std::vector<std::string> baseline_names();

}  // namespace ic::ml
