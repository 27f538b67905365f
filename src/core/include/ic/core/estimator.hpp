// Public end-to-end API: the de-obfuscation runtime estimator.
//
// Workflow (the paper's defender loop):
//   1. generate a labeled dataset for your circuit (ic::data::generate_dataset
//      runs the built-in SAT attack), or bring your own labels;
//   2. fit() an estimator — ICNet by default;
//   3. predict_seconds() candidate obfuscation gate-sets instantly and keep
//      the ones the attacker would take longest to break (rank_selections()).
//
// Prediction is const: each call runs the forward pass on its own tape, so a
// fitted estimator keeps no per-call state.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ic/circuit/netlist.hpp"
#include "ic/data/dataset.hpp"
#include "ic/nn/trainer.hpp"

namespace ic::core {

/// Which graph model backs the estimator.
enum class ModelVariant {
  ICNet,    ///< adjacency structure, Propagate convs (the paper's model)
  Gcn,      ///< Kipf–Welling propagation matrix
  ChebNet,  ///< Chebyshev convs over the scaled Laplacian
  Sage,     ///< GraphSAGE-mean: {self, neighbour-mean} basis per layer
};

struct EstimatorOptions {
  ModelVariant variant = ModelVariant::ICNet;
  nn::Readout readout = nn::Readout::Attention;  ///< "-NN" flavor by default
  data::FeatureSet features = data::FeatureSet::All;
  bool exp_head = true;
  std::vector<std::size_t> hidden = {16, 8};
  std::size_t cheb_order = 3;
  nn::TrainOptions train = {};
  std::uint64_t seed = 1;
};

/// Structure operator a variant consumes (shared with ic::serve, which
/// featurizes circuits without going through a RuntimeEstimator).
data::StructureKind structure_kind_for(ModelVariant variant);

/// The convolution a variant runs.
struct Convolution {
  nn::ConvMode mode;
  std::size_t cheb_order;
  bool operator==(const Convolution&) const = default;
};

/// ChebNet runs the Chebyshev basis of the requested order, GraphSAGE-mean
/// the fixed order-2 basis, ICNet and GCN the propagation (the order rides
/// along unused). core::load_model refuses a header that pairs a variant
/// with any other convolution.
Convolution convolution_for(ModelVariant variant, std::size_t cheb_order);

class RuntimeEstimator {
 public:
  explicit RuntimeEstimator(EstimatorOptions options = {});
  ~RuntimeEstimator();
  RuntimeEstimator(RuntimeEstimator&&) noexcept;
  RuntimeEstimator& operator=(RuntimeEstimator&&) noexcept;

  /// Train on a labeled dataset. Returns the training report.
  nn::TrainReport fit(const data::Dataset& dataset);

  /// Bind a circuit for subsequent predictions (precomputes the structure
  /// operator). fit() binds the dataset's circuit automatically.
  void set_circuit(const circuit::Netlist& circuit);

  /// Predicted label-scale value, log(1 + runtime in microseconds), for
  /// obfuscating `selection` in the bound circuit. Requires fit() and a
  /// bound circuit.
  double predict_log_runtime(
      const std::vector<circuit::GateId>& selection) const;

  /// Predicted de-obfuscation runtime in seconds.
  double predict_seconds(const std::vector<circuit::GateId>& selection) const;

  /// Rank candidate gate-sets by predicted runtime, hardest first. Returns
  /// indices into `candidates`.
  std::vector<std::size_t> rank_selections(
      const std::vector<std::vector<circuit::GateId>>& candidates) const;

  const EstimatorOptions& options() const { return options_; }
  bool is_fitted() const { return fitted_; }

  /// Write the trained model to a self-describing text file (DESIGN.md §9).
  void save(const std::string& path) const;

  /// Construct a fitted estimator from a model file alone — architecture
  /// options come from the file's header (core::load_model).
  static RuntimeEstimator from_file(const std::string& path);

 private:
  /// A fitted estimator around an already-built model (from_file).
  RuntimeEstimator(EstimatorOptions options,
                   std::unique_ptr<nn::GnnRegressor> model);

  data::StructureKind structure_kind() const;
  nn::GnnConfig gnn_config() const;

  EstimatorOptions options_;
  std::unique_ptr<nn::GnnRegressor> model_;
  std::shared_ptr<const graph::SparseMatrix> structure_;
  std::shared_ptr<const circuit::Netlist> circuit_;
  bool fitted_ = false;
};

}  // namespace ic::core
