// Graph convolution layer with a pluggable structure operator.
//
// Two modes:
//   * Propagate  — H_out = S · H · W + b          (GCN and ICNet; S is the
//     renormalized propagation matrix or, for ICNet, the raw adjacency)
//   * Chebyshev  — H_out = Σ_k T_k(S) · H · W_k + b with the recurrence
//     T_0 = I, T_1 = S, T_k = 2 S T_{k−1} − T_{k−2}   (ChebNet; S is the
//     scaled normalized Laplacian)
// The layer holds only its parameters. forward() leaves what backward()
// needs in a caller-owned basis, and backward() adds into caller-owned
// gradients, so one layer serves any number of concurrent passes.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ic/graph/matrix.hpp"
#include "ic/graph/sparse.hpp"

namespace ic::nn {

enum class ConvMode { Propagate, Chebyshev };

class GraphConv {
 public:
  /// `order` is the number of weight matrices: 1 for Propagate, the
  /// Chebyshev polynomial order K for Chebyshev.
  GraphConv(ConvMode mode, std::size_t order, std::size_t in_features,
            std::size_t out_features, Rng& rng);

  /// Forward pass (before the activation). Fills `basis` with Z_k
  /// (Chebyshev) or {S·H} (Propagate) for backward().
  graph::Matrix forward(const graph::SparseMatrix& structure,
                        const graph::Matrix& input,
                        std::vector<graph::Matrix>& basis) const;

  /// Backward pass for the forward() that filled `basis`; returns
  /// dL/d(input) and adds dL/dW_k, dL/db into `grads`, which is laid out
  /// like parameters().
  graph::Matrix backward(const graph::SparseMatrix& structure,
                         const std::vector<graph::Matrix>& basis,
                         const graph::Matrix& d_output,
                         std::span<graph::Matrix> grads) const;

  /// W_0 … W_{order−1}, then the bias.
  std::vector<graph::Matrix*> parameters();

  std::size_t in_features() const { return in_features_; }
  std::size_t out_features() const { return out_features_; }
  std::size_t order() const { return order_; }
  ConvMode mode() const { return mode_; }

 private:
  ConvMode mode_;
  std::size_t order_;
  std::size_t in_features_;
  std::size_t out_features_;

  std::vector<graph::Matrix> weights_;  // order_ matrices (in×out)
  graph::Matrix bias_;                  // 1×out, broadcast over gates
};

/// Elementwise max(x, 0).
graph::Matrix relu(graph::Matrix input);

/// ReLU backward from the recorded output: d_output ⊙ [y > 0], in place.
/// y > 0 exactly when x > 0, so no separate mask is kept.
void relu_backward(const graph::Matrix& output, graph::Matrix& d_output);

}  // namespace ic::nn
