// Graph convolution layer with a pluggable structure operator.
//
// Two modes:
//   * Propagate  — H_out = ReLU(S · H · W + b)      (GCN and ICNet; S is the
//     renormalized propagation matrix or, for ICNet, the raw adjacency)
//   * Chebyshev  — H_out = ReLU(Σ_k T_k(S) · H · W_k + b) with the recurrence
//     T_0 = I, T_1 = S, T_k = 2 S T_{k−1} − T_{k−2}   (ChebNet; S is the
//     scaled normalized Laplacian)
// The layer holds only its parameters. Its forward pass is a set of row
// kernels (one row of S·H, then of Σ_k Z_k W_k + b and the ReLU), run either
// over every row or over only the rows a change to the input can reach
// (Reach). forward() leaves what backward() needs in a caller-owned basis,
// and backward() adds into caller-owned gradients, so one layer serves any
// number of concurrent passes.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "ic/graph/matrix.hpp"
#include "ic/graph/sparse.hpp"

namespace ic::nn {

enum class ConvMode { Propagate, Chebyshev };

/// Slot of a row that a delta pass does not recompute.
inline constexpr std::uint32_t kUnreached =
    std::numeric_limits<std::uint32_t>::max();

/// The rows one pass computes. A pass keeps each row it computes at its row
/// index. A full pass computes every row. A delta pass computes only the
/// rows a change to the input can reach: slot i names the i-th row reached,
/// and the rows at most h products by S away from a changed row hold slots
/// [0, within[h]).
struct Reach {
  std::size_t n = 0;                     ///< rows of the graph
  const std::uint32_t* order = nullptr;  ///< row in each slot
  const std::uint32_t* slot = nullptr;   ///< slot of each row, or kUnreached
  const std::size_t* within = nullptr;   ///< null in a full pass

  bool full() const { return within == nullptr; }
  /// Rows computed for a matrix `hops` products away from the input.
  std::size_t rows(std::size_t hops) const {
    return full() ? n : within[hops];
  }
  std::size_t row(std::size_t i) const { return full() ? i : order[i]; }
};

/// One n×width matrix of a pass as its rows are read: the rows the pass
/// computed from `own`, every other row from `base`. Both hold row r at
/// r·width.
class RowView {
 public:
  RowView(const Reach& reach, std::size_t hops, const double* own,
          const double* base, std::size_t width)
      : from_{base, own},
        slot_(reach.full() ? nullptr : reach.slot),
        owned_(reach.rows(hops)),
        width_(width) {}

  const double* operator()(std::size_t r) const {
    if (slot_ == nullptr) return from_[1] + r * width_;
    // Own or base, picked by index rather than a branch: which one a row
    // is depends on the selection, so a branch would mispredict.
    return from_[slot_[r] < owned_] + r * width_;
  }

 private:
  const double* from_[2];  ///< {base, own}
  const std::uint32_t* slot_;
  std::size_t owned_;
  std::size_t width_;
};

class GraphConv {
 public:
  /// `order` is the number of weight matrices: 1 for Propagate, the
  /// Chebyshev polynomial order K for Chebyshev.
  GraphConv(ConvMode mode, std::size_t order, std::size_t in_features,
            std::size_t out_features, Rng& rng);

  /// Full pass over every row. Fills `basis` with Z_k (Chebyshev) or
  /// {S·H} (Propagate) for backward() and returns the post-ReLU output.
  graph::Matrix forward(const graph::SparseMatrix& structure,
                        const graph::Matrix& input,
                        std::vector<graph::Matrix>& basis) const;

  /// The row kernels over the rows `reach` selects, for an input that
  /// differs from the base pass's only within `hops` hops of the change.
  /// Resizes terms[k] and `out` to n rows and fills the rows the pass
  /// computes with Z_k and the post-ReLU output. A delta pass reads the
  /// rows it does not compute from `base_terms`, the base pass's basis. A
  /// full pass gives none, and so may a Propagate delta pass, which reads
  /// S·H only at rows it computes.
  /// `columns` is scratch for one row's nonzero columns; reusing it across
  /// calls keeps the pass from allocating.
  void forward_rows(const graph::SparseMatrix& structure, const Reach& reach,
                    std::size_t hops, const RowView& input,
                    std::span<const graph::Matrix> base_terms,
                    std::vector<graph::Matrix>& terms, graph::Matrix& out,
                    std::vector<std::uint32_t>& columns) const;

  /// Products by S between the layer's input and its output: how many hops
  /// further a change to the input reaches.
  std::size_t hops() const {
    return mode_ == ConvMode::Propagate ? 1 : order_ - 1;
  }

  /// Backward pass for the forward() that filled `basis`; `d_output` is
  /// dL/d(pre-activation output). Returns dL/d(input) and adds dL/dW_k,
  /// dL/db into `grads`, which is laid out like parameters().
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
  /// Products by S between the input and basis term k.
  std::size_t term_hops(std::size_t k) const {
    return mode_ == ConvMode::Propagate ? 1 : k;
  }

  ConvMode mode_;
  std::size_t order_;
  std::size_t in_features_;
  std::size_t out_features_;

  std::vector<graph::Matrix> weights_;  // order_ matrices (in×out)
  graph::Matrix bias_;                  // 1×out, broadcast over gates
};

/// max(x, 0), the activation every layer applies.
inline double relu(double x) { return x > 0.0 ? x : 0.0; }

/// ReLU backward from the recorded output: d_output ⊙ [y > 0], in place.
/// y > 0 exactly when x > 0, so no separate mask is kept.
void relu_backward(const graph::Matrix& output, graph::Matrix& d_output);

}  // namespace ic::nn
