#include "ic/nn/optimizer.hpp"

#include <cmath>

#include "ic/support/assert.hpp"

namespace ic::nn {

using graph::Matrix;

void Adam::step(const std::vector<Matrix*>& params,
                const std::vector<Matrix*>& grads) {
  IC_ASSERT(params.size() == grads.size());
  if (m_.empty()) {
    for (const Matrix* p : params) {
      m_.emplace_back(p->rows(), p->cols());
      v_.emplace_back(p->rows(), p->cols());
    }
  }
  IC_ASSERT_MSG(m_.size() == params.size(), "parameter set changed under Adam");
  ++t_;
  const double bc1 = 1.0 - std::pow(beta1_, static_cast<double>(t_));
  const double bc2 = 1.0 - std::pow(beta2_, static_cast<double>(t_));
  for (std::size_t i = 0; i < params.size(); ++i) {
    Matrix& p = *params[i];
    const Matrix& g = *grads[i];
    IC_ASSERT(p.same_shape(g));
    Matrix& m = m_[i];
    Matrix& v = v_[i];
    for (std::size_t r = 0; r < p.rows(); ++r) {
      for (std::size_t c = 0; c < p.cols(); ++c) {
        const double gi = g(r, c);
        m(r, c) = beta1_ * m(r, c) + (1.0 - beta1_) * gi;
        v(r, c) = beta2_ * v(r, c) + (1.0 - beta2_) * gi * gi;
        const double mhat = m(r, c) / bc1;
        const double vhat = v(r, c) / bc2;
        p(r, c) -= lr_ * (mhat / (std::sqrt(vhat) + eps_) + weight_decay_ * p(r, c));
      }
    }
  }
}

}  // namespace ic::nn
