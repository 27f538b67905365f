// Production workflow: train once, persist the model, reload it in a later
// process and keep predicting without retraining. Also demonstrates dataset
// caching, which the benchmark harness uses to amortize attack time.
//
// Usage: train_and_save [model_path]
#include <cstdio>

#include "ic/circuit/generator.hpp"
#include "ic/core/estimator.hpp"
#include "ic/data/dataset_io.hpp"
#include "ic/locking/policy.hpp"

int main(int argc, char** argv) {
  const std::string model_path =
      argc > 1 ? argv[1] : "/tmp/icnet_trained_model.txt";

  ic::circuit::GeneratorSpec spec;
  spec.num_gates = 120;
  spec.num_inputs = 20;
  spec.num_outputs = 10;
  spec.seed = 77;
  const auto circuit = ic::circuit::generate_circuit(spec, "persisted");

  // Dataset caching: the second run of this program reuses the attacks.
  ic::data::DatasetOptions dopt;
  dopt.num_instances = 36;
  dopt.min_gates = 1;
  dopt.max_gates = 10;
  dopt.attack.max_conflicts = 20000;
  dopt.seed = 5;
  const auto dataset = ic::data::load_or_generate(
      circuit, dopt, "/tmp/icnet_example_dataset.txt");
  std::printf("dataset ready: %zu instances\n", dataset.instances.size());

  // Train and save.
  ic::core::EstimatorOptions eopt;
  eopt.train.max_epochs = 150;
  ic::core::RuntimeEstimator trainer(eopt);
  const auto report = trainer.fit(dataset);
  trainer.save(model_path);
  std::printf("model trained (%zu epochs) and saved to %s\n", report.epochs_run,
              model_path.c_str());

  // A "different process": the file alone rebuilds the estimator.
  auto deployed = ic::core::RuntimeEstimator::from_file(model_path);
  deployed.set_circuit(circuit);
  const auto sel = ic::locking::select_gates(
      circuit, 6, ic::locking::SelectionPolicy::Random, 9);
  std::printf("reloaded model predicts %.4f s for a 6-gate obfuscation\n",
              deployed.predict_seconds(sel));

  // The two must agree bit-for-bit.
  const double a = trainer.predict_log_runtime(sel);
  const double b = deployed.predict_log_runtime(sel);
  std::printf("trainer vs reloaded prediction delta: %.3g (must be 0)\n", a - b);
  return a == b ? 0 : 1;
}
