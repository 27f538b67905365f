#include "ic/ml/regressor.hpp"

#include "ic/ml/greedy_models.hpp"
#include "ic/ml/linear_models.hpp"
#include "ic/ml/online_models.hpp"
#include "ic/ml/robust_models.hpp"
#include "ic/ml/svr.hpp"
#include "ic/support/assert.hpp"

namespace ic::ml {

using graph::Matrix;

std::vector<double> VectorRegressor::predict(const Matrix& x) const {
  std::vector<double> out;
  out.reserve(x.rows());
  std::vector<double> row(x.cols());
  for (std::size_t i = 0; i < x.rows(); ++i) {
    for (std::size_t j = 0; j < x.cols(); ++j) row[j] = x(i, j);
    out.push_back(predict_one(row));
  }
  return out;
}

double VectorRegressor::mse(const Matrix& x, const std::vector<double>& y) const {
  IC_ASSERT(x.rows() == y.size());
  const auto pred = predict(x);
  double acc = 0.0;
  for (std::size_t i = 0; i < y.size(); ++i) {
    const double r = pred[i] - y[i];
    acc += r * r;
  }
  return acc / static_cast<double>(y.size());
}

std::unique_ptr<VectorRegressor> make_regressor(const std::string& name,
                                                std::uint64_t seed) {
  if (name == "LR") return std::make_unique<LinearRegression>();
  if (name == "RR") return std::make_unique<RidgeRegression>();
  if (name == "LASSO") return std::make_unique<Lasso>();
  if (name == "EN") return std::make_unique<ElasticNet>();
  if (name == "SVR_RBF") {
    SvrOptions o;
    o.kernel = Kernel::Rbf;
    return std::make_unique<Svr>(o);
  }
  if (name == "SVR_POLY") {
    SvrOptions o;
    o.kernel = Kernel::Poly;
    return std::make_unique<Svr>(o);
  }
  if (name == "SGD") return std::make_unique<SgdRegressor>(0.01, 0.25, 1e-4, 100, seed);
  if (name == "PAR") {
    return std::make_unique<PassiveAggressiveRegressor>(1.0, 0.1, 50, seed);
  }
  if (name == "OMP") return std::make_unique<OrthogonalMatchingPursuit>();
  if (name == "LARS") return std::make_unique<Lars>();
  if (name == "Theil") return std::make_unique<TheilSen>(40, seed);
  input_error("unknown regressor '" + name + "'");
}

std::vector<std::string> baseline_names() {
  return {"SVR_RBF", "SVR_POLY", "SGD", "LR",   "RR",   "LASSO",
          "EN",      "OMP",      "PAR", "LARS", "Theil"};
}

}  // namespace ic::ml
