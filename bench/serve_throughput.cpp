// Serving-layer throughput bench (DESIGN.md §9): inference requests/s and
// latency percentiles as the engine's worker count grows, plus the
// cold-vs-warm cost of a circuit's first predict. All numbers are recorded as
// bench.serve.* gauges via the metrics registry (ICNET_METRICS_OUT snapshots
// them; ICNET_BENCH_OUT writes the normalized BENCH_serve.json), and the
// latency percentiles come straight from Histogram::quantile on the engine's
// own serve.request_seconds histogram.
#include <sys/stat.h>

#include <cstdio>
#include <future>
#include <random>
#include <vector>

#include "bench_common.hpp"
#include "ic/circuit/generator.hpp"
#include "ic/core/estimator.hpp"
#include "ic/serve/serve.hpp"
#include "ic/support/metrics.hpp"
#include "ic/support/timer.hpp"

namespace {

std::vector<std::vector<ic::circuit::GateId>> make_selections(
    std::size_t count, std::size_t num_gates) {
  std::mt19937_64 rng(99);
  std::vector<std::vector<ic::circuit::GateId>> out(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t k = 1 + i % 6;
    for (std::size_t g = 0; g < k; ++g) {
      out[i].push_back(static_cast<ic::circuit::GateId>(rng() % num_gates));
    }
  }
  return out;
}

}  // namespace

int main() {
  const auto profile = icbench::ExperimentProfile::from_env();
  const bool paper = profile.name == "paper";
  std::printf("=== serving layer: throughput and latency vs workers ===\n");

  ic::circuit::GeneratorSpec spec;
  spec.num_gates = paper ? 512 : 128;
  spec.num_inputs = 32;
  spec.num_outputs = 16;
  spec.seed = 7;
  const auto circuit = std::make_shared<const ic::circuit::Netlist>(
      ic::circuit::generate_circuit(spec, "serve_bench"));

  // Train a small model on synthetic labels — the bench measures the serving
  // machinery, not label quality.
  ::mkdir("bench_cache", 0755);
  const std::string model_path = "bench_cache/serve_bench_model.txt";
  {
    ic::data::Dataset ds;
    ds.circuit = circuit;
    for (std::size_t i = 0; i < 12; ++i) {
      ic::data::Instance inst;
      inst.selection = {static_cast<ic::circuit::GateId>(i * 3 + 1),
                        static_cast<ic::circuit::GateId>(i * 5 + 2)};
      inst.runtime_seconds = 0.001 * static_cast<double>(i + 1);
      ds.instances.push_back(inst);
    }
    ic::core::EstimatorOptions options;
    options.train.max_epochs = 30;
    ic::core::RuntimeEstimator estimator(options);
    estimator.fit(ds);
    estimator.save(model_path);
  }

  const std::size_t requests = paper ? 4000 : 800;
  const auto selections = make_selections(requests, spec.num_gates);
  auto& metrics = ic::telemetry::MetricsRegistry::global();
  // Register the latency histogram before any engine touches it: first
  // creation fixes the bounds, and percentile estimates need buckets much
  // finer than the default decade-wide ones.
  metrics.histogram("serve.request_seconds",
                    ic::telemetry::Histogram::exponential_bounds(
                        1e-5, 1.5, 40));

  // Cold vs warm: a fresh engine's first request builds the circuit's
  // prepared state (structure operator, base features and activations);
  // every later request shares it.
  {
    ic::serve::ModelRegistry registry;
    registry.load("default", model_path);
    ic::serve::InferenceEngine engine(registry, {});
    engine.register_circuit("default", circuit);
    ic::serve::PredictRequest request;
    request.selection = selections[0];

    ic::Timer cold_timer;
    engine.predict(request);
    const double cold = cold_timer.seconds();

    double warm_total = 0.0;
    const std::size_t warm_reps = 50;
    for (std::size_t i = 0; i < warm_reps; ++i) {
      ic::Timer warm_timer;
      engine.predict(request);
      warm_total += warm_timer.seconds();
    }
    const double warm = warm_total / static_cast<double>(warm_reps);
    std::printf("first predict: cold %.6f s, warm %.6f s (%.1fx)\n", cold,
                warm, warm > 0 ? cold / warm : 0.0);
    icbench::record_measurement("serve.cold_request_seconds", cold);
    icbench::record_measurement("serve.warm_request_seconds", warm);
    engine.stop();
  }

  std::printf("%8s %12s %12s %12s\n", "jobs", "requests/s", "p50 (ms)",
              "p99 (ms)");
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{2},
                                 std::size_t{4}}) {
    ic::serve::ModelRegistry registry;
    registry.load("default", model_path);
    ic::serve::EngineOptions options;
    options.jobs = jobs;
    options.max_batch = 64;
    options.max_queue = requests + 1;
    ic::serve::InferenceEngine engine(registry, options);
    engine.register_circuit("default", circuit);

    // Build the circuit's prepared state out of band.
    ic::serve::PredictRequest warmup;
    warmup.selection = selections[0];
    engine.predict(warmup);
    metrics.histogram("serve.request_seconds").reset();

    std::vector<std::future<ic::serve::PredictResult>> futures;
    futures.reserve(requests);
    ic::Timer timer;
    for (std::size_t i = 0; i < requests; ++i) {
      ic::serve::PredictRequest request;
      request.selection = selections[i];
      futures.push_back(engine.submit(std::move(request)));
    }
    for (auto& f : futures) {
      const auto result = f.get();
      if (!result.ok()) {
        std::fprintf(stderr, "request failed: %s\n", result.error.c_str());
        return 1;
      }
    }
    const double wall = timer.seconds();
    engine.stop();

    const auto& latency = metrics.histogram("serve.request_seconds");
    const double rps = static_cast<double>(requests) / wall;
    const double p50 = latency.quantile(0.50);
    const double p99 = latency.quantile(0.99);
    std::printf("%8zu %12.0f %12.3f %12.3f\n", jobs, rps, p50 * 1e3,
                p99 * 1e3);
    const std::string tag = "serve.jobs" + std::to_string(jobs);
    icbench::record_measurement(tag + ".requests_per_second", rps);
    icbench::record_measurement(tag + ".p50_latency_seconds", p50);
    icbench::record_measurement(tag + ".p99_latency_seconds", p99);
  }

  icbench::flush_bench_metrics();
  icbench::flush_bench_json("serve");
  return 0;
}
