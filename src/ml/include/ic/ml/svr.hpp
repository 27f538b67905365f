// ε-insensitive support vector regression with RBF and polynomial kernels.
//
// Trained in the kernel expansion f(x) = Σ_i β_i K(x_i, x) + b by projected
// subgradient descent on the regularized ε-insensitive objective
//   (1/2) βᵀKβ + C Σ_i max(0, |y_i − f(x_i)| − ε).
// This is the representer-theorem primal of the classic SVR dual; for the
// modest sample counts of the paper's datasets it reaches the same fits as
// SMO while staying a page of code.
#pragma once

#include "ic/ml/regressor.hpp"

namespace ic::ml {

enum class Kernel { Rbf, Poly };

struct SvrOptions {
  Kernel kernel = Kernel::Rbf;
  double c = 1.0;          ///< loss weight C
  double epsilon = 0.1;    ///< insensitive-tube half width
  int degree = 3;          ///< polynomial degree
  double coef0 = 0.0;      ///< polynomial additive constant
  /// Kernel scale γ; <= 0 means scikit-learn's "scale" = 1/(D·Var(X)).
  double gamma = -1.0;
  std::size_t max_iter = 500;
  double learning_rate = 0.01;
};

class Svr : public VectorRegressor {
 public:
  explicit Svr(SvrOptions options = {}) : options_(options) {}

  void fit(const graph::Matrix& x, const std::vector<double>& y) override;
  double predict_one(const std::vector<double>& x) const override;
  std::string name() const override {
    return options_.kernel == Kernel::Rbf ? "SVR_RBF" : "SVR_POLY";
  }

 private:
  double kernel_value(const std::vector<double>& a,
                      const std::vector<double>& b) const;

  SvrOptions options_;
  double gamma_used_ = 1.0;
  std::vector<std::vector<double>> support_points_;
  std::vector<double> beta_;
  double intercept_ = 0.0;
};

}  // namespace ic::ml
