// Fitness oracles for obfuscation policy search (DESIGN.md §14).
//
// The searcher scores every neighbor candidate of a step in ONE
// predict_log_batch() call, so the oracle can amortize feature extraction
// and queueing across the whole neighborhood, and score it in parallel,
// instead of paying per-candidate round trips. Three backends:
//
//   * EngineOracle    — in-process ic::serve::InferenceEngine via
//                       predict_batch(): all requests enqueued before any
//                       wait, so every engine worker takes a share.
//   * ClientOracle    — remote server over the JSON-lines wire protocol via
//                       Client::predict_batch(): all requests pipelined on
//                       one connection before the first response is read.
//   * EstimatorOracle — a bound ic::core::RuntimeEstimator, scored serially
//                       (offline experiments and tests).
//
// Results are index-aligned with the input and bit-identical however the
// backend parallelizes (the §8 determinism contract), so the search itself
// is reproducible at any jobs setting. Every batch increments the
// global counters search.oracle_calls (by the batch size) and
// search.oracle_batches (by one); batches < calls is the observable proof
// that candidates were scored in bulk rather than one by one.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ic/circuit/netlist.hpp"

namespace ic::core {
class RuntimeEstimator;
}  // namespace ic::core

namespace ic::serve {
class InferenceEngine;
class Client;
}  // namespace ic::serve

namespace ic::search {

class FitnessOracle {
 public:
  virtual ~FitnessOracle() = default;

  /// Predicted label-scale runtime, log(1 + seconds·1e6), for each selection;
  /// index-aligned with the input. Throws std::runtime_error when any
  /// prediction fails (rejected, deadline, unknown model/circuit...).
  std::vector<double> predict_log_batch(
      const std::vector<std::vector<circuit::GateId>>& selections);

 protected:
  virtual std::vector<double> predict_batch_impl(
      const std::vector<std::vector<circuit::GateId>>& selections) = 0;
};

/// Scores candidates through an in-process serving engine. The engine must
/// have `circuit` registered and `model` loaded in its registry.
class EngineOracle final : public FitnessOracle {
 public:
  EngineOracle(serve::InferenceEngine& engine, std::string model = "default",
               std::string circuit = "default");

 protected:
  std::vector<double> predict_batch_impl(
      const std::vector<std::vector<circuit::GateId>>& selections) override;

 private:
  serve::InferenceEngine& engine_;
  std::string model_;
  std::string circuit_;
};

/// Scores candidates against a remote server, pipelining the whole batch on
/// the client's single connection.
class ClientOracle final : public FitnessOracle {
 public:
  ClientOracle(serve::Client& client, std::string model = "default",
               std::string circuit = "default");

 protected:
  std::vector<double> predict_batch_impl(
      const std::vector<std::vector<circuit::GateId>>& selections) override;

 private:
  serve::Client& client_;
  std::string model_;
  std::string circuit_;
};

/// Scores candidates with a fitted estimator bound to the search circuit.
class EstimatorOracle final : public FitnessOracle {
 public:
  explicit EstimatorOracle(core::RuntimeEstimator& estimator);

 protected:
  std::vector<double> predict_batch_impl(
      const std::vector<std::vector<circuit::GateId>>& selections) override;

 private:
  core::RuntimeEstimator& estimator_;
};

}  // namespace ic::search
