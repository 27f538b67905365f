// Model-file format coverage (DESIGN.md §9): the self-describing v2 header,
// load_model as its one reader, and rejection of malformed files.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "ic/circuit/generator.hpp"
#include "ic/core/estimator.hpp"
#include "ic/core/model_io.hpp"
#include "ic/data/dataset.hpp"
#include "ic/data/features.hpp"

namespace ic::core {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "model_io_" + name;
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

nn::GnnConfig small_config() {
  nn::GnnConfig config;
  config.hidden = {6, 4};
  config.seed = 3;
  return config;
}

/// Deterministic (structure, features) pair for prediction comparisons.
struct Probe {
  std::shared_ptr<const graph::SparseMatrix> structure;
  graph::Matrix features;
};

Probe make_probe() {
  circuit::GeneratorSpec spec;
  spec.num_inputs = 8;
  spec.num_outputs = 4;
  spec.num_gates = 40;
  spec.seed = 11;
  const auto circuit = circuit::generate_circuit(spec, "probe");
  Probe probe;
  probe.structure = data::make_structure(circuit, data::StructureKind::Adjacency);
  probe.features = data::gate_features(circuit, {2, 5, 9}, data::FeatureSet::All);
  return probe;
}

TEST(ModelIoV2, RoundTripIsBitIdentical) {
  nn::GnnRegressor original(small_config());
  const std::string path = temp_path("v2_roundtrip.txt");
  save_model(original, path, ModelVariant::ICNet, data::FeatureSet::All);

  ModelSpec spec;
  const auto loaded = load_model(path, &spec);
  EXPECT_EQ(spec.variant, ModelVariant::ICNet);
  EXPECT_EQ(spec.features, data::FeatureSet::All);
  EXPECT_EQ(spec.config.hidden, small_config().hidden);
  EXPECT_EQ(spec.param_count, original.parameters().size());

  const auto a = original.parameters();
  const auto b = loaded->parameters();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t p = 0; p < a.size(); ++p) {
    ASSERT_EQ(a[p]->rows(), b[p]->rows());
    ASSERT_EQ(a[p]->cols(), b[p]->cols());
    for (std::size_t r = 0; r < a[p]->rows(); ++r) {
      for (std::size_t c = 0; c < a[p]->cols(); ++c) {
        EXPECT_EQ((*a[p])(r, c), (*b[p])(r, c));
      }
    }
  }

  auto probe = make_probe();
  EXPECT_EQ(original.predict(*probe.structure, probe.features),
            loaded->predict(*probe.structure, probe.features));
}

TEST(ModelIoV2, HeaderDescribesNonDefaultArchitecture) {
  nn::GnnConfig config;
  config.conv_mode = nn::ConvMode::Chebyshev;
  config.cheb_order = 4;
  config.hidden = {5};
  config.readout = nn::Readout::Mean;
  config.exp_head = false;
  nn::GnnRegressor model(config);
  const std::string path = temp_path("v2_header.txt");
  save_model(model, path, ModelVariant::ChebNet, data::FeatureSet::All);

  // load_model rebuilds that architecture without outside help.
  ModelSpec spec;
  const auto loaded = load_model(path, &spec);
  EXPECT_EQ(spec.variant, ModelVariant::ChebNet);
  EXPECT_EQ(spec.config.conv_mode, nn::ConvMode::Chebyshev);
  EXPECT_EQ(spec.config.cheb_order, 4u);
  EXPECT_EQ(spec.config.hidden, std::vector<std::size_t>{5});
  EXPECT_EQ(spec.config.readout, nn::Readout::Mean);
  EXPECT_FALSE(spec.config.exp_head);
  EXPECT_EQ(loaded->config().conv_mode, nn::ConvMode::Chebyshev);
  EXPECT_EQ(loaded->config().cheb_order, 4u);
  EXPECT_EQ(loaded->config().hidden, config.hidden);
}

/// `load(path)` throws std::runtime_error whose message contains `needle`.
template <typename Load>
void expect_load_error(Load load, const std::string& path,
                       const std::string& needle) {
  try {
    load(path);
    ADD_FAILURE() << "loaded '" << path << "'";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
  }
}

TEST(ModelIoErrors, GarbageHeaderIsRejected) {
  const std::string path = temp_path("garbage.txt");
  write_file(path, "definitely not a model file\n1 2 3\n");
  EXPECT_THROW(load_model(path), std::runtime_error);

  write_file(path, "icnet-params v9 12\n");
  EXPECT_THROW(load_model(path), std::runtime_error);

  // The retired v1 format (a bare parameter count, no architecture) is one
  // more unsupported version, for the estimator as for load_model.
  write_file(path, "icnet-params v1 2\n1 1\n0.5\n1 1\n0.5\n");
  const std::string v1 = "unsupported parameter-file version 'v1'";
  expect_load_error([](const std::string& p) { load_model(p); }, path, v1);
  expect_load_error(
      [](const std::string& p) { RuntimeEstimator::from_file(p); }, path, v1);

  write_file(path, "icnet-params v2\nwibble 3\nparams 8\n");
  EXPECT_THROW(load_model(path), std::runtime_error);

  EXPECT_THROW(load_model(temp_path("missing.txt")), std::runtime_error);
}

TEST(ModelIoErrors, TruncatedFileIsRejected) {
  nn::GnnRegressor model(small_config());
  const std::string path = temp_path("truncated.txt");
  save_model(model, path, ModelVariant::ICNet, data::FeatureSet::All);
  const std::string full = read_file(path);
  write_file(path, full.substr(0, full.size() * 3 / 5));
  EXPECT_THROW(load_model(path), std::exception);

  // Header cut off mid-way.
  write_file(path, "icnet-params v2\nvariant icnet\nfeatures all\n");
  EXPECT_THROW(load_model(path), std::runtime_error);
}

TEST(ModelIoErrors, ShapeMismatchIsRejected) {
  nn::GnnRegressor model(small_config());
  const std::string path = temp_path("shape.txt");
  save_model(model, path, ModelVariant::ICNet, data::FeatureSet::All);
  const std::string saved = read_file(path);
  const auto load = [](const std::string& p) { load_model(p); };

  // The header claims a wider first layer than the blocks that follow.
  const std::string hidden = "hidden 2 6 4\n";
  ASSERT_NE(saved.find(hidden), std::string::npos);
  std::string wider = saved;
  wider.replace(wider.find(hidden), hidden.size(), "hidden 2 7 4\n");
  write_file(path, wider);
  expect_load_error(load, path, "parameter shape mismatch");

  // The header counts one parameter block fewer than the model has.
  const std::string count =
      "params " + std::to_string(model.parameters().size()) + "\n";
  ASSERT_NE(saved.find(count), std::string::npos);
  std::string fewer = saved;
  fewer.replace(fewer.find(count), count.size(),
                "params " + std::to_string(model.parameters().size() - 1) +
                    "\n");
  write_file(path, fewer);
  expect_load_error(load, path, "parameter count mismatch");
}

TEST(ModelIoErrors, ConvolutionMustBeTheVariants) {
  // A Chebyshev model labelled ICNet, and one labelled GraphSAGE-mean at
  // order 3: neither is what an estimator of that variant runs.
  nn::GnnConfig config = small_config();
  config.conv_mode = nn::ConvMode::Chebyshev;
  config.cheb_order = 3;
  nn::GnnRegressor model(config);
  const std::string path = temp_path("conv.txt");
  for (const ModelVariant variant : {ModelVariant::ICNet, ModelVariant::Sage}) {
    save_model(model, path, variant, data::FeatureSet::All);
    expect_load_error([](const std::string& p) { load_model(p); }, path,
                      "pairs variant");
    expect_load_error(
        [](const std::string& p) { RuntimeEstimator::from_file(p); }, path,
        "pairs variant");
  }
  // Labelled ChebNet, the same model is what ChebNet runs.
  save_model(model, path, ModelVariant::ChebNet, data::FeatureSet::All);
  EXPECT_NO_THROW(load_model(path));
}

TEST(ModelIoEstimator, FromFileRebuildsTheEstimator) {
  circuit::GeneratorSpec cspec;
  cspec.num_inputs = 8;
  cspec.num_outputs = 4;
  cspec.num_gates = 40;
  cspec.seed = 21;
  const auto circuit = circuit::generate_circuit(cspec, "est_io");

  EstimatorOptions options;
  options.hidden = {6, 4};
  options.train.max_epochs = 5;
  RuntimeEstimator trained(options);
  data::Dataset dataset;
  dataset.circuit = std::make_shared<const circuit::Netlist>(circuit);
  for (std::size_t i = 0; i < 8; ++i) {
    data::Instance inst;
    inst.selection = {static_cast<circuit::GateId>(i),
                      static_cast<circuit::GateId>(i + 3)};
    inst.runtime_seconds = 0.001 * static_cast<double>(i + 1);
    dataset.instances.push_back(inst);
  }
  trained.fit(dataset);

  const std::string path = temp_path("estimator.txt");
  trained.save(path);
  auto reloaded = RuntimeEstimator::from_file(path);
  EXPECT_TRUE(reloaded.is_fitted());
  EXPECT_EQ(reloaded.options().hidden, options.hidden);
  reloaded.set_circuit(circuit);
  const std::vector<circuit::GateId> sel = {2, 7, 11};
  EXPECT_EQ(trained.predict_log_runtime(sel),
            reloaded.predict_log_runtime(sel));
}

}  // namespace
}  // namespace ic::core
