// Whole-graph regressor: graph convolutions + readout + scalar head.
//
// This single class instantiates the three models of the paper's evaluation:
//   * ICNet   — Propagate convs over the raw adjacency matrix, attention
//               (Θ_feat, Θ_gate) or sum/mean readout, exp output head (Eq. 3)
//   * GCN     — Propagate convs over D̃^{-1/2}(A+I)D̃^{-1/2}
//   * ChebNet — Chebyshev convs over the scaled normalized Laplacian
// The variant is decided purely by which structure operator the caller feeds
// in and by the config flags, so ablations (DESIGN.md §4) swap one knob at a
// time.
//
// Output head: with exp_head the raw-scale prediction is exp(z) (runtime
// grows exponentially in key bits, §III.B); trained against log-scale
// targets this is exactly softplus(z) = log(1 + exp(z)), which is how it is
// computed here (numerically stable; see DESIGN.md §5).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ic/nn/graph_conv.hpp"

namespace ic::nn {

enum class Readout {
  Sum,        ///< r_j = Σ_g H[g,j]
  Mean,       ///< r_j = (1/n) Σ_g H[g,j]
  Attention,  ///< learned feature- then gate-attention (the "-NN" variants)
};

struct GnnConfig {
  ConvMode conv_mode = ConvMode::Propagate;
  std::size_t cheb_order = 3;       ///< used when conv_mode == Chebyshev
  std::size_t in_features = 7;      ///< gate mask + one-hot type
  std::vector<std::size_t> hidden = {16, 8};  ///< two graph convolutions (Fig. 2)
  Readout readout = Readout::Attention;
  bool exp_head = true;
  std::uint64_t seed = 1;
};

/// What one forward pass records: the activations backward() needs and the
/// attention weights behind the paper's Table III case study. The caller
/// owns it, so a const model serves any number of concurrent passes.
struct Tape {
  struct Layer {
    std::vector<graph::Matrix> basis;  ///< GraphConv::forward's record
    graph::Matrix out;                 ///< post-ReLU output (n×h)
  };
  std::vector<Layer> layers;
  std::vector<double> readout;         ///< r (d, or 1 for attention)
  std::vector<double> feat_means;      ///< m_j
  std::vector<double> feat_attention;  ///< a_j (Attention readout only)
  std::vector<double> gate_repr;       ///< p_g
  std::vector<double> gate_attention;  ///< b_g (Attention readout only)
  double z = 0.0;                      ///< head pre-activation
};

/// The layers of one full pass on a circuit's base features (every mask
/// bit clear), kept so that a delta predict recomputes only the rows a
/// change can reach. Immutable once built; any number of concurrent
/// predicts may share it.
struct BaseActivations {
  graph::Matrix features;       ///< the base X
  graph::SparseMatrix readers;  ///< Sᵀ: row c lists the rows that read row c
  /// Each layer's basis and output on X. A Propagate layer keeps no basis:
  /// a delta pass reads S·H only at rows it recomputes itself.
  std::vector<Tape::Layer> layers;
};

/// A delta predict's scratch, reused from call to call. It grows to the
/// largest circuit and reach it has seen and then stops allocating; give
/// each thread its own.
class Workspace {
 private:
  friend class GnnRegressor;
  std::vector<std::uint32_t> slot;     ///< per row; kUnreached off the reach
  std::vector<std::uint8_t> marked;    ///< per row: reads a row of the reach
  std::vector<std::uint32_t> order;    ///< reached rows, by slot
  std::vector<std::size_t> within;     ///< Reach::within
  graph::Matrix x;                     ///< changed feature rows, by row
  std::vector<Tape::Layer> layers;     ///< recomputed rows, by row
  std::vector<std::uint32_t> columns;  ///< GraphConv::forward_rows scratch
  Tape readout;                        ///< readout record (no layers)
};

/// Holds only its config and parameters; forward, predict and backward are
/// const.
class GnnRegressor {
 public:
  explicit GnnRegressor(const GnnConfig& config);

  /// The one forward pass, for training and inference alike. Returns the
  /// (log-scale) runtime prediction and records the pass in `tape`.
  double forward(const graph::SparseMatrix& structure,
                 const graph::Matrix& features, Tape& tape) const;

  /// forward() on a local tape.
  double predict(const graph::SparseMatrix& structure,
                 const graph::Matrix& features) const;

  /// Base activations of `features` on `structure`: one full pass.
  BaseActivations base(const graph::SparseMatrix& structure,
                       graph::Matrix features) const;

  /// predict() for the features that equal base.features except in rows
  /// `rows[i]`, which hold values.row(i) (a repeated row takes its last
  /// value). Recomputes only the rows within reach of a changed row, reads
  /// every other row from `base`, then runs the readout over all rows, so
  /// the answer is bit-identical to predict(structure, features). `base`
  /// must come from base() on the same structure.
  double predict(const graph::SparseMatrix& structure,
                 const BaseActivations& base,
                 std::span<const std::uint32_t> rows,
                 const graph::Matrix& values, Workspace& workspace) const;

  /// Backpropagate dL/d(prediction) through the pass `tape` recorded on
  /// `structure`, adding the parameter gradients into `grads` (laid out
  /// like parameters(); see zero_gradients()).
  void backward(const graph::SparseMatrix& structure, const Tape& tape,
                double d_prediction, std::vector<graph::Matrix>& grads) const;

  /// Initialize the output head so the untrained model predicts roughly
  /// `target_mean`. Adam moves each scalar by ~learning-rate per step, so
  /// without this the head bias needs thousands of steps just to reach the
  /// label offset. Called by train_gnn before the first epoch.
  void warm_start_head(double target_mean);

  std::vector<graph::Matrix*> parameters();
  std::vector<const graph::Matrix*> parameters() const;
  /// Zero matrices shaped like parameters(), for backward() to add into.
  std::vector<graph::Matrix> zero_gradients() const;
  std::size_t parameter_count() const;

  const GnnConfig& config() const { return config_; }

 private:
  /// Every conv layer over every row of `x`.
  void forward_layers(const graph::SparseMatrix& structure,
                      const graph::Matrix& x,
                      std::vector<Tape::Layer>& layers) const;
  /// The readout and head over all n rows of the last layer, in index order.
  double readout(const RowView& h, std::size_t n, Tape& tape) const;

  GnnConfig config_;
  std::vector<GraphConv> convs_;

  // Attention parameters (1×d / 1×1 matrices so the optimizer is uniform).
  graph::Matrix theta_feat_;  // 1×d
  graph::Matrix phi_gate_;    // 1×1
  // Head parameters.
  graph::Matrix head_w_;  // r_dim×1
  graph::Matrix head_b_;  // 1×1
};

}  // namespace ic::nn
