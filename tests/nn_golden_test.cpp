// Numerics pin for the learning stack.
//
// Every other nn test compares two runs of the same build, so none of them
// notices a change that moves the forward pass, the backward pass or the
// optimizer by one ulp in both runs. This test replays a fixed corpus and
// compares it, as %a hex doubles, with what the reference implementation
// produced (tests/golden/nn_outputs.txt):
//
//  1. predict() for every model configuration nn_gradcheck_test covers
//     (ICNet/GCN/ChebNet/SAGE × readouts × heads) on a generated circuit,
//     and for widths the paper model does not use (a one-column input,
//     layers that are not a multiple of 8 wide, a layer wider than 16);
//  2. every epoch loss and the final predict_all() of train_gnn, at jobs=1
//     and at jobs=4;
//  3. InferenceEngine answers, at jobs=4, from a model trained and saved
//     here.
//
// The NnDelta cases hold the delta predict (GnnRegressor::predict against
// BaseActivations) to the full pass bit for bit, for the same
// configurations; they need no golden file.
//
// The values are those of an x86-64 build, whose compilers do not contract
// a*b+c into FMA by default; a target that does will diverge here. A
// deliberate numerics change (SIMD, FMA, reordered sums) is a versioned
// event (DESIGN.md §11); regenerate only then, with:
//
//     IC_REGEN_GOLDEN=tests/golden/nn_outputs.txt ./nn_golden_test
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "ic/circuit/generator.hpp"
#include "ic/core/model_io.hpp"
#include "ic/data/dataset.hpp"
#include "ic/data/features.hpp"
#include "ic/nn/trainer.hpp"
#include "ic/serve/serve.hpp"
#include "ic/support/rng.hpp"

#ifndef IC_GOLDEN_FILE
#define IC_GOLDEN_FILE "tests/golden/nn_outputs.txt"
#endif

namespace ic::nn {
namespace {

using circuit::GateId;
using Corpus = std::vector<std::pair<std::string, std::string>>;

std::string hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

circuit::Netlist golden_circuit() {
  circuit::GeneratorSpec spec;
  spec.num_inputs = 12;
  spec.num_outputs = 6;
  spec.num_gates = 96;
  spec.seed = 2020;
  return circuit::generate_circuit(spec, "nn_golden");
}

/// `count` seeded selections of 1..8 distinct gates each.
std::vector<std::vector<GateId>> selections(const circuit::Netlist& circuit,
                                            std::size_t count,
                                            std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<GateId>> out;
  for (std::size_t i = 0; i < count; ++i) {
    std::vector<GateId> sel;
    const std::size_t size = 1 + rng.index(8);
    while (sel.size() < size) {
      const auto id = static_cast<GateId>(rng.index(circuit.size()));
      bool seen = false;
      for (const GateId g : sel) seen = seen || g == id;
      if (!seen) sel.push_back(id);
    }
    out.push_back(std::move(sel));
  }
  return out;
}

struct ModelCase {
  const char* label;
  ConvMode mode;
  Readout readout;
  bool exp_head;
  data::StructureKind structure;
};

// The configurations of nn_gradcheck_test's AllConfigs suite.
const ModelCase kCases[] = {
    {"ICNet_NN", ConvMode::Propagate, Readout::Attention, true,
     data::StructureKind::Adjacency},
    {"ICNet_Sum", ConvMode::Propagate, Readout::Sum, true,
     data::StructureKind::Adjacency},
    {"ICNet_Mean", ConvMode::Propagate, Readout::Mean, true,
     data::StructureKind::Adjacency},
    {"ICNet_LinearHead", ConvMode::Propagate, Readout::Attention, false,
     data::StructureKind::Adjacency},
    {"GCN_NN", ConvMode::Propagate, Readout::Attention, false,
     data::StructureKind::GcnNorm},
    {"GCN_Mean", ConvMode::Propagate, Readout::Mean, false,
     data::StructureKind::GcnNorm},
    {"Cheb_NN", ConvMode::Chebyshev, Readout::Attention, false,
     data::StructureKind::ScaledLaplacian},
    {"Cheb_Sum", ConvMode::Chebyshev, Readout::Sum, false,
     data::StructureKind::ScaledLaplacian},
    {"Cheb_ExpHead", ConvMode::Chebyshev, Readout::Mean, true,
     data::StructureKind::ScaledLaplacian},
    {"Sage_NN", ConvMode::Chebyshev, Readout::Attention, false,
     data::StructureKind::RowNormAdjacency},
    {"Sage_Sum", ConvMode::Chebyshev, Readout::Sum, true,
     data::StructureKind::RowNormAdjacency},
};

GnnConfig config_for(const ModelCase& mc) {
  GnnConfig cfg;
  cfg.conv_mode = mc.mode;
  // SAGE is the order-2 Chebyshev basis (RuntimeEstimator::gnn_config).
  cfg.cheb_order = mc.structure == data::StructureKind::RowNormAdjacency ? 2 : 3;
  cfg.in_features = data::feature_width(data::FeatureSet::All);
  cfg.hidden = {16, 8};
  cfg.readout = mc.readout;
  cfg.exp_head = mc.exp_head;
  cfg.seed = 99;
  return cfg;
}

/// A model at widths the paper's (7 → 16 → 8) does not use, so the row
/// kernels' remainder blocks and more than two full blocks are pinned too.
struct WidthCase {
  const char* label;
  ConvMode mode;
  data::StructureKind structure;
  data::FeatureSet features;
  std::size_t hidden[2];
};

const WidthCase kWidthCases[] = {
    {"Location", ConvMode::Propagate, data::StructureKind::Adjacency,
     data::FeatureSet::Location, {16, 8}},
    {"Propagate_12_5", ConvMode::Propagate, data::StructureKind::Adjacency,
     data::FeatureSet::All, {12, 5}},
    {"Cheb_12_5", ConvMode::Chebyshev, data::StructureKind::ScaledLaplacian,
     data::FeatureSet::All, {12, 5}},
    {"Propagate_20_9", ConvMode::Propagate, data::StructureKind::Adjacency,
     data::FeatureSet::All, {20, 9}},
};

GnnConfig config_for(const WidthCase& wc) {
  GnnConfig cfg;
  cfg.conv_mode = wc.mode;
  cfg.cheb_order = 3;
  cfg.in_features = data::feature_width(wc.features);
  cfg.hidden = {wc.hidden[0], wc.hidden[1]};
  cfg.readout = Readout::Attention;
  cfg.exp_head = wc.mode == ConvMode::Propagate;
  cfg.seed = 99;
  return cfg;
}

/// Synthetic labels: a fixed function of the selection, so training has a
/// signal to follow without running SAT attacks.
std::vector<GraphSample> training_samples(
    const circuit::Netlist& circuit,
    std::shared_ptr<const graph::SparseMatrix> structure) {
  std::vector<GraphSample> out;
  for (const auto& sel : selections(circuit, 32, 5)) {
    GraphSample sample;
    sample.structure = structure;
    sample.features = data::gate_features(circuit, sel, data::FeatureSet::All);
    double id_term = 0.0;
    for (const GateId g : sel) id_term += static_cast<double>(g % 7);
    sample.target = 1.0 + 0.4 * static_cast<double>(sel.size()) + 0.05 * id_term;
    out.push_back(std::move(sample));
  }
  return out;
}

void add_predictions(Corpus& corpus, const circuit::Netlist& circuit) {
  const auto probes = selections(circuit, 4, 17);
  for (const ModelCase& mc : kCases) {
    const auto s = data::make_structure(circuit, mc.structure);
    GnnRegressor model(config_for(mc));
    for (std::size_t i = 0; i < probes.size(); ++i) {
      const auto x =
          data::gate_features(circuit, probes[i], data::FeatureSet::All);
      corpus.emplace_back(
          "predict." + std::string(mc.label) + "." + std::to_string(i),
          hex(model.predict(*s, x)));
    }
  }
  for (const WidthCase& wc : kWidthCases) {
    const auto s = data::make_structure(circuit, wc.structure);
    GnnRegressor model(config_for(wc));
    for (std::size_t i = 0; i < probes.size(); ++i) {
      const auto x = data::gate_features(circuit, probes[i], wc.features);
      corpus.emplace_back(
          "predict." + std::string(wc.label) + "." + std::to_string(i),
          hex(model.predict(*s, x)));
    }
  }
}

/// Trains `mc` at jobs=1 and jobs=4, records both trajectories, and leaves
/// the jobs=1 model in `trained`.
void add_training(Corpus& corpus, const circuit::Netlist& circuit,
                  const ModelCase& mc, std::unique_ptr<GnnRegressor>* trained) {
  const auto samples =
      training_samples(circuit, data::make_structure(circuit, mc.structure));
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    auto model = std::make_unique<GnnRegressor>(config_for(mc));
    TrainOptions opt;
    opt.max_epochs = 25;
    opt.batch_size = 8;
    opt.learning_rate = 0.02;
    opt.seed = 11;
    opt.jobs = jobs;
    const TrainReport report = train_gnn(*model, samples, opt);
    const std::string prefix =
        "train." + std::string(mc.label) + ".jobs" + std::to_string(jobs);
    corpus.emplace_back(prefix + ".epochs", std::to_string(report.epochs_run));
    for (std::size_t e = 0; e < report.epoch_losses.size(); ++e) {
      corpus.emplace_back(prefix + ".loss." + std::to_string(e),
                          hex(report.epoch_losses[e]));
    }
    const auto preds = predict_all(*model, samples);
    for (std::size_t i = 0; i < preds.size(); ++i) {
      corpus.emplace_back(prefix + ".predict." + std::to_string(i),
                          hex(preds[i]));
    }
    if (jobs == 1 && trained != nullptr) *trained = std::move(model);
  }
}

void add_served(Corpus& corpus, std::shared_ptr<const circuit::Netlist> circuit,
                GnnRegressor& model) {
  const std::string path = ::testing::TempDir() + "nn_golden_model.txt";
  core::save_model(model, path, core::ModelVariant::ICNet,
                   data::FeatureSet::All);
  serve::ModelRegistry registry;
  registry.load("default", path);
  serve::EngineOptions options;
  options.jobs = 4;
  serve::InferenceEngine engine(registry, options);
  engine.register_circuit("default", circuit);
  std::vector<serve::PredictRequest> requests;
  for (auto& sel : selections(*circuit, 24, 29)) {
    serve::PredictRequest request;
    request.selection = std::move(sel);
    requests.push_back(std::move(request));
  }
  const auto results = engine.predict_batch(std::move(requests));
  for (std::size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].ok()) << results[i].error;
    corpus.emplace_back("serve.jobs4." + std::to_string(i),
                        hex(results[i].log_runtime));
  }
}

Corpus build_corpus() {
  Corpus corpus;
  const auto circuit =
      std::make_shared<const circuit::Netlist>(golden_circuit());
  add_predictions(corpus, *circuit);
  std::unique_ptr<GnnRegressor> icnet;
  add_training(corpus, *circuit, kCases[0], &icnet);   // ICNet_NN
  add_training(corpus, *circuit, kCases[7], nullptr);  // Cheb_Sum
  add_served(corpus, circuit, *icnet);
  return corpus;
}

TEST(NnGolden, OutputsAreBitIdentical) {
  const auto corpus = build_corpus();

  if (const char* regen = std::getenv("IC_REGEN_GOLDEN")) {
    std::ofstream out(regen);
    ASSERT_TRUE(out.good()) << "cannot write " << regen;
    out << "# Golden nn outputs (%a hex doubles) — regenerate only on an\n"
           "# intended numerics change (a versioned event, DESIGN.md §11):\n"
           "#   IC_REGEN_GOLDEN=tests/golden/nn_outputs.txt ./nn_golden_test\n";
    for (const auto& [name, payload] : corpus) {
      out << name << " " << payload << "\n";
    }
    GTEST_SKIP() << "regenerated golden outputs at " << regen;
  }

  std::ifstream in(IC_GOLDEN_FILE);
  ASSERT_TRUE(in.good()) << "missing golden outputs " << IC_GOLDEN_FILE;
  std::map<std::string, std::string> golden;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const auto space = line.find(' ');
    ASSERT_NE(space, std::string::npos) << "malformed golden line: " << line;
    golden[line.substr(0, space)] = line.substr(space + 1);
  }
  ASSERT_EQ(golden.size(), corpus.size())
      << "corpus entry count drifted; regenerate deliberately";

  for (const auto& [name, payload] : corpus) {
    const auto it = golden.find(name);
    ASSERT_NE(it, golden.end()) << "no golden entry for " << name;
    EXPECT_EQ(it->second, payload) << "numerics diverged on " << name;
  }
}

/// The feature rows `selection` changes from the unselected features, in
/// selection order, as a caller of the delta predict passes them.
graph::Matrix changed_rows(const graph::Matrix& x,
                           const std::vector<GateId>& selection) {
  graph::Matrix values(selection.size(), x.cols());
  for (std::size_t i = 0; i < selection.size(); ++i) {
    for (std::size_t j = 0; j < x.cols(); ++j) values(i, j) = x(selection[i], j);
  }
  return values;
}

TEST(NnDelta, PredictMatchesTheFullPassBitForBit) {
  circuit::Netlist circuit = golden_circuit();
  const GateId isolated = circuit.add_input("isolated");  // no neighbours
  std::vector<GateId> every(circuit.size());
  std::iota(every.begin(), every.end(), GateId{0});
  std::vector<GateId> random8;
  Rng rng(31);
  while (random8.size() < 8) {
    const auto id = static_cast<GateId>(rng.index(circuit.size()));
    if (std::find(random8.begin(), random8.end(), id) == random8.end()) {
      random8.push_back(id);
    }
  }
  const std::vector<std::pair<std::string, std::vector<GateId>>> cases = {
      {"empty", {}},
      {"one", {40}},
      {"isolated", {isolated}},
      {"duplicates", {7, 3, 7, 7}},
      {"random8", random8},
      {"random8b", {2, 19, 33, 47, 58, 71, 88, 95}},
      {"every", every},
  };
  Workspace workspace;  // shared by every case, as an engine thread's is
  const auto check = [&](const char* model_label, const GnnConfig& cfg,
                         data::StructureKind structure,
                         data::FeatureSet features) {
    const auto s = data::make_structure(circuit, structure);
    const GnnRegressor model(cfg);
    const BaseActivations base =
        model.base(*s, data::gate_features(circuit, {}, features));
    for (const auto& [label, selection] : cases) {
      const auto x = data::gate_features(circuit, selection, features);
      const double full = model.predict(*s, x);
      const double delta = model.predict(*s, base, selection,
                                         changed_rows(x, selection), workspace);
      EXPECT_EQ(std::memcmp(&full, &delta, sizeof full), 0)
          << model_label << " " << label << ": " << hex(full) << " vs "
          << hex(delta);
    }
  };
  for (const ModelCase& mc : kCases) {
    check(mc.label, config_for(mc), mc.structure, data::FeatureSet::All);
  }
  for (const WidthCase& wc : kWidthCases) {
    check(wc.label, config_for(wc), wc.structure, wc.features);
  }
}

TEST(NnDelta, ReachFollowsTheColumnPatternOfAnAsymmetricOperator) {
  // Row r reads only row r + 1, so a change at row k reaches rows k − 1,
  // k − 2, …; a reach taken from S's row pattern would miss all of them.
  // Nothing reads row 0.
  constexpr std::size_t kRows = 12;
  std::vector<std::size_t> tr, tc;
  std::vector<double> tv;
  for (std::size_t r = 0; r + 1 < kRows; ++r) {
    tr.push_back(r);
    tc.push_back(r + 1);
    tv.push_back(0.5 + 0.1 * static_cast<double>(r));
  }
  const auto s = graph::SparseMatrix::from_triplets(kRows, kRows, tr, tc, tv);
  Rng rng(5);
  const graph::Matrix x0 = graph::Matrix::random_uniform(kRows, 3, 1.0, rng);
  Workspace workspace;
  for (const ConvMode mode : {ConvMode::Propagate, ConvMode::Chebyshev}) {
    GnnConfig cfg;
    cfg.conv_mode = mode;
    cfg.in_features = 3;
    cfg.hidden = {4, 3};
    cfg.seed = 8;
    const GnnRegressor model(cfg);
    const BaseActivations base = model.base(s, x0);
    for (const GateId k : {GateId{0}, GateId{6}, GateId{11}}) {
      const graph::Matrix values =
          graph::Matrix::random_uniform(1, 3, 1.0, rng);
      graph::Matrix x = x0;
      for (std::size_t j = 0; j < 3; ++j) x(k, j) = values(0, j);
      const double full = model.predict(s, x);
      const double delta =
          model.predict(s, base, std::vector<GateId>{k}, values, workspace);
      EXPECT_EQ(std::memcmp(&full, &delta, sizeof full), 0)
          << "row " << k << ": " << hex(full) << " vs " << hex(delta);
      if (k > 0) {
        EXPECT_NE(full, model.predict(s, x0)) << "row " << k;
      }
    }
  }
}

}  // namespace
}  // namespace ic::nn
