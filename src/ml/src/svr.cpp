#include "ic/ml/svr.hpp"

#include <cmath>

#include "ic/support/assert.hpp"

namespace ic::ml {

using graph::Matrix;

double Svr::kernel_value(const std::vector<double>& a,
                         const std::vector<double>& b) const {
  IC_ASSERT(a.size() == b.size());
  if (options_.kernel == Kernel::Rbf) {
    double d2 = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
      const double d = a[i] - b[i];
      d2 += d * d;
    }
    return std::exp(-gamma_used_ * d2);
  }
  double dot = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) dot += a[i] * b[i];
  return std::pow(gamma_used_ * dot + options_.coef0, options_.degree);
}

void Svr::fit(const Matrix& x, const std::vector<double>& y) {
  IC_ASSERT(x.rows() == y.size());
  const std::size_t n = x.rows();
  const std::size_t d = x.cols();

  // γ = 1 / (D · Var(X)) when set to "scale".
  if (options_.gamma > 0.0) {
    gamma_used_ = options_.gamma;
  } else {
    double mean = 0.0, sq = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < d; ++j) {
        mean += x(i, j);
        sq += x(i, j) * x(i, j);
      }
    }
    const double cnt = static_cast<double>(n * d);
    mean /= cnt;
    const double var = sq / cnt - mean * mean;
    gamma_used_ = (var > 1e-12) ? 1.0 / (static_cast<double>(d) * var) : 1.0;
  }

  support_points_.assign(n, {});
  for (std::size_t i = 0; i < n; ++i) {
    support_points_[i].resize(d);
    for (std::size_t j = 0; j < d; ++j) support_points_[i][j] = x(i, j);
  }

  // Precompute the kernel matrix.
  Matrix k(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) {
      const double v = kernel_value(support_points_[i], support_points_[j]);
      k(i, j) = v;
      k(j, i) = v;
    }
  }

  beta_.assign(n, 0.0);
  // Warm-start the intercept at the target mean: the subgradient steps then
  // only have to learn deviations, not the offset.
  intercept_ = 0.0;
  for (double v : y) intercept_ += v;
  intercept_ /= static_cast<double>(n);
  std::vector<double> f(n, intercept_);  // f_i = Σ_j β_j K_ij + b

  // Scale steps by the kernel magnitude so polynomial kernels with large
  // raw features do not blow past the optimum.
  double diag_mean = 0.0;
  for (std::size_t i = 0; i < n; ++i) diag_mean += k(i, i);
  diag_mean /= static_cast<double>(n);
  const double lr_scale = 1.0 / std::max(1.0, diag_mean);

  const double nn = static_cast<double>(n);
  for (std::size_t iter = 0; iter < options_.max_iter; ++iter) {
    const double lr = options_.learning_rate * lr_scale /
                      std::sqrt(1.0 + static_cast<double>(iter));
    // Subgradient: d/dβ_i = (Kβ)_i + C Σ_j (−sign(y_j − f_j)·1{|err|>ε}) K_ij.
    std::vector<double> loss_sign(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      const double err = y[i] - f[i];
      if (err > options_.epsilon) loss_sign[i] = -1.0;
      else if (err < -options_.epsilon) loss_sign[i] = 1.0;
    }
    double db = 0.0;
    std::vector<double> dbeta(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      double reg = 0.0, loss = 0.0;
      for (std::size_t j = 0; j < n; ++j) {
        reg += k(i, j) * beta_[j];
        loss += k(i, j) * loss_sign[j];
      }
      dbeta[i] = reg + options_.c * loss / nn;
      db += loss_sign[i];
    }
    db *= options_.c / nn;
    double max_step = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double step = lr * dbeta[i];
      beta_[i] -= step;
      max_step = std::max(max_step, std::fabs(step));
    }
    intercept_ -= lr * db;
    // Refresh predictions.
    for (std::size_t i = 0; i < n; ++i) {
      double acc = intercept_;
      for (std::size_t j = 0; j < n; ++j) acc += k(i, j) * beta_[j];
      f[i] = acc;
    }
    if (max_step < 1e-9) break;
  }
}

double Svr::predict_one(const std::vector<double>& x) const {
  IC_ASSERT(!support_points_.empty());
  double acc = intercept_;
  for (std::size_t i = 0; i < support_points_.size(); ++i) {
    if (beta_[i] == 0.0) continue;
    acc += beta_[i] * kernel_value(support_points_[i], x);
  }
  return acc;
}

}  // namespace ic::ml
