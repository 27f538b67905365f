// Dataset generation (§IV.A of the paper).
//
// Each instance: pick k random gates, replace them with key-programmable
// LUT-4s, run the SAT attack against a simulated oracle, and record the
// deobfuscation cost. The cost is the deterministic solver-effort model's
// seconds (AttackResult::estimated_seconds(), DESIGN.md §3), and the
// regression target is label_of_seconds() of it.
#pragma once

#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "ic/attack/sat_attack.hpp"
#include "ic/circuit/netlist.hpp"
#include "ic/data/features.hpp"
#include "ic/graph/sparse.hpp"
#include "ic/nn/trainer.hpp"

namespace ic::data {

struct Instance {
  std::vector<circuit::GateId> selection;  ///< encrypted gate ids
  double runtime_seconds = 0.0;            ///< deobfuscation cost label
  attack::AttackResult attack;             ///< full attack telemetry
};

/// Which obfuscation backend labels the instances. The paper's datasets use
/// LUT-4 replacement; XOR locking is provided because the estimator is
/// retrainable for any scheme (§IV.A's closing remark).
enum class ObfuscationScheme { Lut, Xor };

struct DatasetOptions {
  std::size_t num_instances = 160;
  /// Encrypted-gate count range, inclusive (Dataset 1: 1..350, Dataset 2: 1..3).
  std::size_t min_gates = 1;
  std::size_t max_gates = 350;
  ObfuscationScheme scheme = ObfuscationScheme::Lut;
  attack::AttackOptions attack = {};
  std::uint64_t seed = 1;
  /// SAT-attack labeling workers: one attack per task. 0 defers to the
  /// IC_JOBS environment variable (unset = serial). Instances are
  /// bit-identical at every jobs value: each instance's randomness comes from
  /// derive_seed(seed, index), not from a shared sequential stream.
  std::size_t jobs = 0;
};

struct Dataset {
  std::shared_ptr<const circuit::Netlist> circuit;
  std::vector<Instance> instances;

  /// Regression targets shared by every model in the evaluation:
  /// label_of_seconds() of each instance's runtime.
  std::vector<double> log_targets() const;
};

/// The label scale: log(1 + runtime in microseconds). The microsecond scale
/// keeps small instances (Dataset 2's sub-second attacks) on a usable
/// dynamic range while preserving the exponential-growth story — the log of
/// a rescaled quantity differs only by an additive constant.
inline double label_of_seconds(double seconds) {
  return std::log1p(seconds * 1e6);
}

/// Inverse of label_of_seconds(): the seconds a predicted label stands for.
inline double seconds_of_label(double label) { return std::expm1(label) / 1e6; }

/// Generate a labeled dataset by attacking obfuscation instances of `circuit`.
Dataset generate_dataset(const circuit::Netlist& circuit,
                         const DatasetOptions& options);

// ---- model-ready encodings ------------------------------------------------

enum class StructureKind {
  Adjacency,         ///< raw symmetrized adjacency (ICNet)
  Laplacian,         ///< combinatorial Laplacian D − A
  GcnNorm,           ///< D̃^{-1/2}(A+I)D̃^{-1/2} (GCN)
  ScaledLaplacian,   ///< 2 L_norm / λ_max − I (ChebNet)
  RowNormAdjacency,  ///< D^{-1} A, GraphSAGE's mean aggregator
};

/// Structure operator of a circuit, shareable across samples.
std::shared_ptr<const graph::SparseMatrix> make_structure(
    const circuit::Netlist& circuit, StructureKind kind);

/// Per-instance GNN samples over a shared structure operator.
std::vector<nn::GraphSample> to_gnn_samples(const Dataset& dataset,
                                            FeatureSet features,
                                            StructureKind structure);

enum class Aggregation { Sum, Mean };

/// Flattened N×(n+F) design matrix for the vector baselines: each row is the
/// gate-wise sum (or mean) of the horizontal concatenation [S | X_i]
/// (§IV intro: "encoded as mean or sum on concatenation of Laplacian or
/// adjacency matrix and gate features").
graph::Matrix flatten_dataset(const Dataset& dataset, FeatureSet features,
                              StructureKind structure, Aggregation aggregation);

// ---- splits ----------------------------------------------------------------

struct Split {
  std::vector<std::size_t> train;
  std::vector<std::size_t> test;
};

/// Shuffled train/test split of [0, n).
Split split_indices(std::size_t n, double test_fraction, std::uint64_t seed);

/// Select rows of a design matrix / vector by index.
graph::Matrix take_rows(const graph::Matrix& x, const std::vector<std::size_t>& idx);
std::vector<double> take(const std::vector<double>& v,
                         const std::vector<std::size_t>& idx);
std::vector<nn::GraphSample> take(const std::vector<nn::GraphSample>& v,
                                  const std::vector<std::size_t>& idx);

}  // namespace ic::data
