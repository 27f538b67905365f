#include "ic/search/oracle.hpp"

#include "ic/serve/engine.hpp"
#include "ic/support/assert.hpp"
#include "ic/support/metrics.hpp"

namespace ic::search {

EngineOracle::EngineOracle(serve::InferenceEngine& engine, std::string model,
                           std::string circuit)
    : engine_(engine),
      model_(std::move(model)),
      circuit_(std::move(circuit)),
      calls_(telemetry::MetricsRegistry::global().counter(
          "search.oracle_calls")),
      batches_(telemetry::MetricsRegistry::global().counter(
          "search.oracle_batches")) {}

std::vector<double> EngineOracle::predict_log_batch(
    const std::vector<std::vector<circuit::GateId>>& selections) {
  if (selections.empty()) return {};
  std::vector<serve::PredictRequest> requests;
  requests.reserve(selections.size());
  for (const auto& selection : selections) {
    serve::PredictRequest request;
    request.model = model_;
    request.circuit = circuit_;
    request.selection = selection;
    requests.push_back(std::move(request));
  }
  const auto results = engine_.predict_batch(std::move(requests));
  std::vector<double> out;
  out.reserve(results.size());
  for (const auto& result : results) {
    IC_CHECK(result.ok(), "oracle prediction failed ("
                              << serve::status_name(result.status)
                              << "): " << result.error);
    out.push_back(result.log_runtime);
  }
  calls_.add(selections.size());
  batches_.add(1);
  return out;
}

}  // namespace ic::search
