// Fitness oracle for obfuscation policy search (DESIGN.md §14).
//
// The searcher scores every neighbor candidate of a step in ONE
// predict_log_batch() call through the in-process serving engine's
// predict_batch(): all requests are enqueued before any wait, so every
// engine worker takes a share of the neighborhood instead of paying
// per-candidate round trips.
//
// Results are index-aligned with the input and bit-identical however the
// engine parallelizes (the §8 determinism contract), so the search itself
// is reproducible at any jobs setting. Every batch increments the
// global counters search.oracle_calls (by the batch size) and
// search.oracle_batches (by one), resolved once at construction;
// batches < calls is the observable proof that candidates were scored in
// bulk rather than one by one.
#pragma once

#include <string>
#include <vector>

#include "ic/circuit/netlist.hpp"

namespace ic::serve {
class InferenceEngine;
}  // namespace ic::serve

namespace ic::telemetry {
class Counter;
}  // namespace ic::telemetry

namespace ic::search {

/// Scores candidates through an in-process serving engine. The engine must
/// have `circuit` registered and `model` loaded in its registry.
class EngineOracle {
 public:
  EngineOracle(serve::InferenceEngine& engine, std::string model = "default",
               std::string circuit = "default");

  /// Predicted label-scale runtime, log(1 + seconds·1e6), for each selection;
  /// index-aligned with the input. Throws std::runtime_error when any
  /// prediction fails (rejected, deadline, unknown model/circuit...).
  std::vector<double> predict_log_batch(
      const std::vector<std::vector<circuit::GateId>>& selections);

 private:
  serve::InferenceEngine& engine_;
  std::string model_;
  std::string circuit_;
  telemetry::Counter& calls_;    // search.oracle_calls
  telemetry::Counter& batches_;  // search.oracle_batches
};

}  // namespace ic::search
