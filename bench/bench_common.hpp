// Shared harness for the paper-reproduction benchmarks.
//
// Each bench binary regenerates one table or figure of the paper. They all
// share the experiment profile (ICNET_PROFILE=ci|paper), the SAT-attack
// labeled datasets (cached under ./bench_cache so later binaries reuse the
// attacks run by earlier ones), and the model-evaluation helpers.
#pragma once

#include <string>
#include <vector>

#include "ic/circuit/netlist.hpp"
#include "ic/core/estimator.hpp"
#include "ic/data/dataset.hpp"
#include "ic/data/profile.hpp"
#include "ic/nn/regressor.hpp"
#include "ic/nn/trainer.hpp"

namespace icbench {

using ic::data::Dataset;
using ic::data::ExperimentProfile;

/// The experiment's main circuit (1529 gates in the paper profile).
ic::circuit::Netlist main_circuit(const ExperimentProfile& profile);

/// Dataset 1 / Dataset 2 of §IV.A, cached on disk.
Dataset dataset1(const ExperimentProfile& profile);
Dataset dataset2(const ExperimentProfile& profile);

using ic::core::ModelVariant;

/// The paper's row name of a graph model ("GCN", "ChebNet", "ICNet").
const char* variant_name(ModelVariant variant);

/// The benches' GNN recipe: the variant's convolution (core::convolution_for,
/// order 3), hidden widths {8, 4}, seed 1234, and the exponential head
/// (Eq. 3) for ICNet only. An ablation overrides the one field it varies.
ic::nn::GnnConfig config_for(ModelVariant variant, ic::nn::Readout readout,
                             ic::data::FeatureSet features);

/// Training settings of every bench GNN: the profile's epoch budget, Adam at
/// 0.005 (0.002 for the Sum readout), patience 80, weight decay 1e-3, seed 77.
ic::nn::TrainOptions train_options_for(ic::nn::Readout readout,
                                       const ExperimentProfile& profile);

/// Train a GNN on the dataset's train split and return test MSE.
/// `readout` Sum/Mean are the fixed aggregations, Attention is the "-NN"
/// row. The samples use the variant's structure operator
/// (core::structure_kind_for). Deterministic per (variant, readout,
/// features, profile).
double evaluate_gnn(const Dataset& dataset, const ic::data::Split& split,
                    ModelVariant variant, ic::nn::Readout readout,
                    ic::data::FeatureSet features,
                    const ExperimentProfile& profile);

/// Fit one classic baseline on the flattened encoding; returns test MSE.
/// Throws std::runtime_error where the estimator is inapplicable (rendered
/// as "N/A" by the caller).
double evaluate_baseline(const std::string& name, const Dataset& dataset,
                         const ic::data::Split& split,
                         ic::data::FeatureSet features,
                         ic::data::Aggregation aggregation);

/// Print the full Table I/II model matrix for a dataset.
void print_regression_table(const std::string& title, const Dataset& dataset,
                            const ExperimentProfile& profile);

/// Train the ICNet-NN configuration and return the fitted model plus the
/// split used (for figure/case-study benches).
struct TrainedICNet {
  std::unique_ptr<ic::nn::GnnRegressor> model;
  std::vector<ic::nn::GraphSample> train;
  std::vector<ic::nn::GraphSample> test;
  std::vector<std::size_t> test_indices;
};
TrainedICNet train_icnet_nn(const Dataset& dataset,
                            const ExperimentProfile& profile,
                            ic::data::FeatureSet features);

/// Format helper: fixed 4 decimals or scientific for huge/N-A values.
std::string cell(double v);

/// Record one benchmark measurement as gauge `bench.<name>` in the global
/// ic::telemetry metrics registry. Every bench number flows through here, so
/// BENCH_*.json snapshots all come from one code path. The first call
/// registers an exit hook that writes the registry JSON to the path named by
/// ICNET_METRICS_OUT (no-op when unset).
void record_measurement(const std::string& name, double value);

/// Immediate snapshot to ICNET_METRICS_OUT (no-op when unset).
void flush_bench_metrics();

/// Write the normalized benchmark document the regression gate compares:
///   {"schema":1,"bench":<name>,"jobs":N,"metrics":{"<key>":value,...}}
/// with one entry per `bench.*` gauge (the "bench." prefix stripped; keys
/// sorted). scripts/bench_compare.py consumes these files.
void write_bench_json(const std::string& bench_name, const std::string& path);

/// write_bench_json to the path named by ICNET_BENCH_OUT (no-op when unset).
void flush_bench_json(const std::string& bench_name);

}  // namespace icbench
