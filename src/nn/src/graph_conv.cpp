#include "ic/nn/graph_conv.hpp"

#include <cmath>
#include <cstdint>
#include <cstring>

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
  const Reach all{input.rows()};
  Matrix out;
  std::vector<std::uint32_t> columns;
  forward_rows(s, all, 0, RowView(all, 0, input.data(), nullptr, input.cols()),
               {}, basis, out, columns);
  return out;
}

void GraphConv::forward_rows(const SparseMatrix& s, const Reach& reach,
                             std::size_t hops, const RowView& input,
                             std::span<const Matrix> base_terms,
                             std::vector<Matrix>& terms, Matrix& out,
                             std::vector<std::uint32_t>& columns) const {
  IC_ASSERT(s.rows() == reach.n && s.cols() == reach.n);
  IC_ASSERT(base_terms.empty() || base_terms.size() == order_);
  const std::size_t in = in_features_;
  terms.resize(order_);
  const auto term = [&](std::size_t k) {
    return RowView(reach, hops + term_hops(k), terms[k].data(),
                   base_terms.empty() ? nullptr : base_terms[k].data(), in);
  };

  // Sparse half: Z = S·H (Propagate), or Z_0 = H, Z_1 = S·H and
  // Z_k = 2·S·Z_{k−1} − Z_{k−2} (Chebyshev), one row at a time.
  for (std::size_t k = 0; k < order_; ++k) {
    const std::size_t count = reach.rows(hops + term_hops(k));
    terms[k].resize(reach.n, in);
    const bool copy = mode_ == ConvMode::Chebyshev && k == 0;
    const RowView source = k < 2 ? input : term(k - 1);
    const RowView back = term(k < 2 ? 0 : k - 2);
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t r = reach.row(i);
      double* z = terms[k].data() + r * in;
      if (copy) {
        const double* h = input(r);
        for (std::size_t j = 0; j < in; ++j) z[j] = h[j];
        continue;
      }
      s.spmm_row(r, source, in, z);
      if (k >= 2) {
        const double* prev = back(r);
        for (std::size_t j = 0; j < in; ++j) z[j] *= 2.0;
        for (std::size_t j = 0; j < in; ++j) z[j] -= prev[j];
      }
    }
  }
  // Attribute the products to the serving request's timeline, if one is
  // active on this thread (no-op everywhere else: training, tools, tests).
  telemetry::mark_stage(telemetry::Stage::Spmm);

  // Dense half: ReLU(Σ_k Z_k·W_k + b), one row at a time. Each term's
  // product is summed on its own from zero, skipping zero entries of Z_k,
  // then added to the running total kept in the output row: the order
  // Matrix::matmul and += use. A row's nonzero columns are listed first,
  // without a branch per column (a NaN is listed: it is not zero), and each
  // block of output columns (for_each_column_block) runs over the list with
  // its sums in registers. The bias and the ReLU get a pass of their own,
  // which the compiler vectorizes; inside a block it branched on each ReLU.
  const std::size_t width = out_features_;
  const std::size_t count = reach.rows(hops + this->hops());
  out.resize(reach.n, width);
  columns.resize(in);
  const double* bias = bias_.data();
  for (std::size_t k = 0; k < order_; ++k) {
    const RowView z_of = term(k);
    const double* w = weights_[k].data();
    const bool first = k == 0;
    const bool last = k + 1 == order_;
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t r = reach.row(i);
      const double* z = z_of(r);
      std::uint32_t* nonzero = columns.data();
      std::size_t m = 0;
      // A few instructions per column, so the loop's own count and branch
      // would be a third of them.
#pragma GCC unroll 4
      for (std::size_t c = 0; c < in; ++c) {
        // z[c] != 0.0 as a bit test: only ±0.0 have no bit but the sign.
        std::uint64_t bits = 0;
        std::memcpy(&bits, z + c, sizeof bits);
        nonzero[m] = static_cast<std::uint32_t>(c);
        m += (bits << 1) != 0;
      }
      double* o = out.data() + r * width;
      graph::for_each_column_block(width, [&]<std::size_t B>(std::size_t j0) {
        double acc[B] = {};
        for (std::size_t t = 0; t < m; ++t) {
          const double zc = z[nonzero[t]];
          const double* wrow = w + nonzero[t] * width + j0;
          for (std::size_t j = 0; j < B; ++j) acc[j] += zc * wrow[j];
        }
        if (!first) {
          for (std::size_t j = 0; j < B; ++j) acc[j] = o[j0 + j] + acc[j];
        }
        for (std::size_t j = 0; j < B; ++j) o[j0 + j] = acc[j];
      });
      if (last) {
        for (std::size_t j = 0; j < width; ++j) o[j] = relu(o[j] + bias[j]);
      }
    }
  }
  telemetry::mark_stage(telemetry::Stage::Dense);
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

void relu_backward(const Matrix& output, Matrix& d_output) {
  IC_ASSERT(output.same_shape(d_output));
  const double* y = output.data();
  double* d = d_output.data();
  // Multiply by 1.0/0.0 rather than select, so NaN and signed zeros in
  // d_output propagate exactly as through an explicit mask.
  for (std::size_t i = 0; i < d_output.size(); ++i) d[i] *= y[i] > 0.0 ? 1.0 : 0.0;
}

}  // namespace ic::nn
