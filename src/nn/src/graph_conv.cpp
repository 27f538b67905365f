#include "ic/nn/graph_conv.hpp"

#include <cmath>

#include "ic/support/timeline.hpp"

namespace ic::nn {

using graph::Matrix;
using graph::SparseMatrix;

GraphConv::GraphConv(ConvMode mode, std::size_t order, std::size_t in_features,
                     std::size_t out_features, Rng& rng)
    : mode_(mode),
      order_(order),
      in_features_(in_features),
      out_features_(out_features),
      bias_(1, out_features) {
  IC_ASSERT(order >= 1);
  IC_ASSERT_MSG(mode != ConvMode::Propagate || order == 1,
                "Propagate mode uses exactly one weight matrix");
  const double limit =
      std::sqrt(6.0 / static_cast<double>(in_features + out_features));
  for (std::size_t k = 0; k < order; ++k) {
    weights_.push_back(Matrix::random_uniform(in_features, out_features, limit, rng));
  }
  // Small positive bias keeps ReLU units off the exact kink even for
  // vertices whose whole neighborhood is inactive (raw-adjacency structure
  // matrices have no self loop, so such vertices see exactly the bias).
  for (std::size_t j = 0; j < out_features; ++j) bias_(0, j) = 0.01;
}

Matrix GraphConv::forward(const SparseMatrix& s, const Matrix& input,
                          std::vector<Matrix>& basis) const {
  IC_ASSERT(input.cols() == in_features_);
  IC_ASSERT(s.rows() == input.rows() && s.cols() == input.rows());
  basis.clear();

  if (mode_ == ConvMode::Propagate) {
    basis.push_back(s.spmm(input));  // Z = S H
  } else {
    basis.push_back(input);  // T_0 H = H
    if (order_ >= 2) basis.push_back(s.spmm(input));
    for (std::size_t k = 2; k < order_; ++k) {
      Matrix z = s.spmm(basis[k - 1]);
      z *= 2.0;
      z -= basis[k - 2];
      basis.push_back(std::move(z));
    }
  }

  Matrix out = basis[0].matmul(weights_[0]);
  for (std::size_t k = 1; k < basis.size(); ++k) {
    out += basis[k].matmul(weights_[k]);
  }
  for (std::size_t g = 0; g < out.rows(); ++g) {
    for (std::size_t j = 0; j < out.cols(); ++j) out(g, j) += bias_(0, j);
  }
  // Chebyshev combination + bias are the dense half of this layer; the SpMM
  // half already marked Stage::Spmm inside SparseMatrix::spmm.
  telemetry::mark_stage(telemetry::Stage::Dense);
  return out;
}

Matrix GraphConv::backward(const SparseMatrix& s,
                           const std::vector<Matrix>& basis,
                           const Matrix& d_out, std::span<Matrix> grads) const {
  IC_ASSERT(d_out.cols() == out_features_);
  IC_ASSERT(basis.size() == order_ && grads.size() == order_ + 1);

  // Bias gradient: column sums of d_out.
  const auto cs = d_out.col_sums();
  for (std::size_t j = 0; j < out_features_; ++j) grads[order_](0, j) += cs[j];

  // Weight gradients and dL/dZ_k.
  std::vector<Matrix> d_basis;
  d_basis.reserve(basis.size());
  for (std::size_t k = 0; k < basis.size(); ++k) {
    grads[k] += basis[k].transpose().matmul(d_out);
    d_basis.push_back(d_out.matmul(weights_[k].transpose()));
  }

  if (mode_ == ConvMode::Propagate) {
    return s.spmm_transposed(d_basis[0]);  // dH = Sᵀ dZ
  }

  // Reverse the Chebyshev recurrence Z_k = 2 S Z_{k−1} − Z_{k−2}.
  for (std::size_t k = basis.size(); k-- > 2;) {
    Matrix t = s.spmm_transposed(d_basis[k]);
    t *= 2.0;
    d_basis[k - 1] += t;
    d_basis[k - 2] -= d_basis[k];
  }
  if (basis.size() >= 2) {
    d_basis[0] += s.spmm_transposed(d_basis[1]);  // Z_1 = S Z_0
  }
  return d_basis[0];
}

std::vector<Matrix*> GraphConv::parameters() {
  std::vector<Matrix*> out;
  for (auto& w : weights_) out.push_back(&w);
  out.push_back(&bias_);
  return out;
}

Matrix relu(Matrix m) {
  for (double* v = m.data(); v != m.data() + m.size(); ++v) {
    *v = *v > 0.0 ? *v : 0.0;
  }
  return m;
}

void relu_backward(const Matrix& output, Matrix& d_output) {
  IC_ASSERT(output.same_shape(d_output));
  const double* y = output.data();
  double* d = d_output.data();
  // Multiply by 1.0/0.0 rather than select, so NaN and signed zeros in
  // d_output propagate exactly as through an explicit mask.
  for (std::size_t i = 0; i < d_output.size(); ++i) d[i] *= y[i] > 0.0 ? 1.0 : 0.0;
}

}  // namespace ic::nn
