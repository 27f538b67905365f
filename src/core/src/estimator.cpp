#include "ic/core/estimator.hpp"

#include <algorithm>

#include "ic/core/model_io.hpp"
#include "ic/support/assert.hpp"
#include "ic/support/telemetry.hpp"

namespace ic::core {

using circuit::GateId;
using circuit::Netlist;

RuntimeEstimator::RuntimeEstimator(EstimatorOptions options)
    : options_(std::move(options)) {
  model_ = std::make_unique<nn::GnnRegressor>(gnn_config());
}

RuntimeEstimator::RuntimeEstimator(EstimatorOptions options,
                                   std::unique_ptr<nn::GnnRegressor> model)
    : options_(std::move(options)), model_(std::move(model)), fitted_(true) {}

RuntimeEstimator::~RuntimeEstimator() = default;
RuntimeEstimator::RuntimeEstimator(RuntimeEstimator&&) noexcept = default;
RuntimeEstimator& RuntimeEstimator::operator=(RuntimeEstimator&&) noexcept = default;

data::StructureKind structure_kind_for(ModelVariant variant) {
  switch (variant) {
    case ModelVariant::ICNet: return data::StructureKind::Adjacency;
    case ModelVariant::Gcn: return data::StructureKind::GcnNorm;
    case ModelVariant::ChebNet: return data::StructureKind::ScaledLaplacian;
    case ModelVariant::Sage: return data::StructureKind::RowNormAdjacency;
  }
  IC_ASSERT_MSG(false, "unhandled ModelVariant");
  return data::StructureKind::Adjacency;
}

Convolution convolution_for(ModelVariant variant, std::size_t cheb_order) {
  switch (variant) {
    case ModelVariant::ICNet:
    case ModelVariant::Gcn: return {nn::ConvMode::Propagate, cheb_order};
    case ModelVariant::ChebNet: return {nn::ConvMode::Chebyshev, cheb_order};
    // GraphSAGE-mean is the order-2 polynomial basis {H, ŜH} with independent
    // weights over the row-normalized adjacency — exactly the Chebyshev
    // machinery with K = 2 (T_0 = I, T_1 = Ŝ).
    case ModelVariant::Sage: return {nn::ConvMode::Chebyshev, 2};
  }
  IC_ASSERT_MSG(false, "unhandled ModelVariant");
  return {nn::ConvMode::Propagate, cheb_order};
}

data::StructureKind RuntimeEstimator::structure_kind() const {
  return structure_kind_for(options_.variant);
}

nn::GnnConfig RuntimeEstimator::gnn_config() const {
  nn::GnnConfig cfg;
  const Convolution conv =
      convolution_for(options_.variant, options_.cheb_order);
  cfg.conv_mode = conv.mode;
  cfg.cheb_order = conv.cheb_order;
  cfg.in_features = data::feature_width(options_.features);
  cfg.hidden = options_.hidden;
  cfg.readout = options_.readout;
  cfg.exp_head = options_.exp_head;
  cfg.seed = options_.seed;
  return cfg;
}

void RuntimeEstimator::set_circuit(const Netlist& circuit) {
  circuit_ = std::make_shared<const Netlist>(circuit);
  structure_ = data::make_structure(*circuit_, structure_kind());
}

nn::TrainReport RuntimeEstimator::fit(const data::Dataset& dataset) {
  IC_ASSERT(dataset.circuit != nullptr);
  telemetry::TraceSpan span("estimator/fit");
  telemetry::MetricsRegistry::global().counter("estimator.fits").add(1);
  circuit_ = dataset.circuit;
  structure_ = data::make_structure(*circuit_, structure_kind());
  const auto samples =
      data::to_gnn_samples(dataset, options_.features, structure_kind());
  const auto report = nn::train_gnn(*model_, samples, options_.train);
  fitted_ = true;
  return report;
}

double RuntimeEstimator::predict_log_runtime(
    const std::vector<GateId>& selection) const {
  IC_CHECK(fitted_, "RuntimeEstimator::predict called before fit()");
  IC_CHECK(circuit_ != nullptr, "no circuit bound; call set_circuit()");
  telemetry::TraceSpan span("estimator/predict");
  telemetry::MetricsRegistry::global().counter("estimator.predictions").add(1);
  const auto x = data::gate_features(*circuit_, selection, options_.features);
  return model_->predict(*structure_, x);
}

double RuntimeEstimator::predict_seconds(
    const std::vector<GateId>& selection) const {
  return data::seconds_of_label(predict_log_runtime(selection));
}

std::vector<std::size_t> RuntimeEstimator::rank_selections(
    const std::vector<std::vector<GateId>>& candidates) const {
  telemetry::TraceSpan span("estimator/rank_selections");
  telemetry::MetricsRegistry::global()
      .counter("estimator.ranked_candidates")
      .add(candidates.size());
  std::vector<double> predicted;
  predicted.reserve(candidates.size());
  for (const auto& sel : candidates) predicted.push_back(predict_log_runtime(sel));
  std::vector<std::size_t> order(candidates.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return predicted[a] > predicted[b];  // hardest (longest runtime) first
  });
  return order;
}

void RuntimeEstimator::save(const std::string& path) const {
  IC_CHECK(fitted_, "cannot save an unfitted estimator");
  save_model(*model_, path, options_.variant, options_.features);
}

RuntimeEstimator RuntimeEstimator::from_file(const std::string& path) {
  ModelSpec spec;
  auto model = load_model(path, &spec);
  EstimatorOptions options;
  options.variant = spec.variant;
  options.features = spec.features;
  options.readout = spec.config.readout;
  options.exp_head = spec.config.exp_head;
  options.hidden = spec.config.hidden;
  options.cheb_order = spec.config.cheb_order;
  return RuntimeEstimator(std::move(options), std::move(model));
}

}  // namespace ic::core
