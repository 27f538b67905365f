#include "ic/data/dataset.hpp"

#include <cmath>
#include <future>

#include "ic/attack/oracle.hpp"
#include "ic/graph/structure.hpp"
#include "ic/locking/lut_lock.hpp"
#include "ic/locking/policy.hpp"
#include "ic/locking/xor_lock.hpp"
#include "ic/support/assert.hpp"
#include "ic/support/rng.hpp"
#include "ic/support/telemetry.hpp"
#include "ic/support/thread_pool.hpp"

namespace ic::data {

using circuit::Netlist;
using graph::Matrix;
using graph::SparseMatrix;

std::vector<double> Dataset::log_targets() const {
  std::vector<double> out;
  out.reserve(instances.size());
  for (const Instance& inst : instances) {
    out.push_back(label_of_seconds(inst.runtime_seconds));
  }
  return out;
}

Dataset generate_dataset(const Netlist& circuit, const DatasetOptions& options) {
  IC_ASSERT(options.min_gates >= 1 && options.min_gates <= options.max_gates);
  Dataset ds;
  ds.circuit = std::make_shared<const Netlist>(circuit);

  const std::size_t lockable = locking::lockable_gates(circuit).size();
  const std::size_t max_gates = std::min(options.max_gates, lockable);
  IC_CHECK(options.min_gates <= max_gates,
           "circuit has only " << lockable << " lockable gates; min_gates="
                               << options.min_gates);

  telemetry::TraceSpan gen_span("dataset/generate");
  auto& metrics = telemetry::MetricsRegistry::global();
  auto& instance_counter = metrics.counter("dataset.instances");
  auto& label_hist = metrics.histogram("dataset.label_seconds");
  // Instance N/M for the heartbeat; advanced from whichever worker finishes
  // an instance (ProgressJob is thread-safe).
  telemetry::ProgressJob progress("dataset.label", options.num_instances);
  progress.set_phase("label");

  // One attack per task. Every instance draws from its own Rng seeded by
  // (options.seed, i), so the result is bit-identical at any jobs value —
  // the loop below and the thread pool produce the same instances in the
  // same slots. Each task owns a private oracle: NetlistOracle mutates
  // simulator state and a query counter, so it cannot be shared.
  auto label_instance = [&](std::size_t i) -> Instance {
    telemetry::TraceSpan inst_span("dataset/instance");
    Rng inst_rng(derive_seed(options.seed, i));
    Instance inst;
    const std::size_t k = static_cast<std::size_t>(
        inst_rng.uniform_int(static_cast<std::int64_t>(options.min_gates),
                             static_cast<std::int64_t>(max_gates)));
    inst.selection = locking::select_gates(
        circuit, k, locking::SelectionPolicy::Random, inst_rng.fork());

    const circuit::Netlist locked =
        options.scheme == ObfuscationScheme::Lut
            ? locking::lut_lock(circuit, inst.selection, inst_rng.fork()).locked
            : locking::xor_lock(circuit, inst.selection, inst_rng.fork()).locked;

    attack::NetlistOracle oracle(circuit);
    inst.attack = attack::sat_attack(locked, oracle, options.attack);
    inst.runtime_seconds = inst.attack.estimated_seconds();
    instance_counter.add(1);
    label_hist.observe(inst.runtime_seconds);
    progress.advance(1);
    // Emitted from the labeling task itself with the instance index, so
    // interleaved lines from concurrent workers stay attributable.
    ICLOG(debug) << "labeled instance" << telemetry::kv("index", i)
                 << telemetry::kv("gates", inst.selection.size())
                 << telemetry::kv("runtime_s", inst.runtime_seconds);
    return inst;
  };

  ds.instances.resize(options.num_instances);
  const std::size_t jobs = std::min(
      support::ThreadPool::effective_jobs(options.jobs),
      std::max<std::size_t>(options.num_instances, 1));
  if (jobs <= 1) {
    for (std::size_t i = 0; i < options.num_instances; ++i) {
      ds.instances[i] = label_instance(i);
    }
  } else {
    // Submit one task per instance (not a chunked parallel_for): attack cost
    // varies by orders of magnitude across instances, so dynamic dispatch is
    // what makes labeling scale ~linearly.
    support::ThreadPool pool(jobs);
    std::vector<std::future<void>> pending;
    pending.reserve(options.num_instances);
    for (std::size_t i = 0; i < options.num_instances; ++i) {
      pending.push_back(pool.submit(
          [&, i] { ds.instances[i] = label_instance(i); }));
    }
    for (auto& f : pending) f.get();
  }
  ICLOG(info) << "dataset generated"
              << telemetry::kv("instances", ds.instances.size())
              << telemetry::kv("jobs", jobs);
  return ds;
}

std::shared_ptr<const SparseMatrix> make_structure(const Netlist& circuit,
                                                   StructureKind kind) {
  const SparseMatrix a = graph::adjacency(circuit);
  switch (kind) {
    case StructureKind::Adjacency:
      return std::make_shared<const SparseMatrix>(a);
    case StructureKind::Laplacian:
      return std::make_shared<const SparseMatrix>(graph::laplacian(a));
    case StructureKind::GcnNorm:
      return std::make_shared<const SparseMatrix>(graph::gcn_propagation(a));
    case StructureKind::ScaledLaplacian:
      return std::make_shared<const SparseMatrix>(graph::scaled_laplacian(a));
    case StructureKind::RowNormAdjacency:
      return std::make_shared<const SparseMatrix>(
          graph::row_normalized_adjacency(a));
  }
  IC_ASSERT_MSG(false, "unhandled StructureKind");
  return nullptr;
}

std::vector<nn::GraphSample> to_gnn_samples(const Dataset& dataset,
                                            FeatureSet features,
                                            StructureKind structure) {
  IC_ASSERT(dataset.circuit != nullptr);
  telemetry::TraceSpan span("dataset/to_gnn_samples");
  const auto op = make_structure(*dataset.circuit, structure);
  const auto targets = dataset.log_targets();
  std::vector<nn::GraphSample> samples;
  samples.reserve(dataset.instances.size());
  for (std::size_t i = 0; i < dataset.instances.size(); ++i) {
    nn::GraphSample s;
    s.structure = op;
    s.features = gate_features(*dataset.circuit, dataset.instances[i].selection,
                               features);
    s.target = targets[i];
    samples.push_back(std::move(s));
  }
  return samples;
}

Matrix flatten_dataset(const Dataset& dataset, FeatureSet features,
                       StructureKind structure, Aggregation aggregation) {
  IC_ASSERT(dataset.circuit != nullptr);
  const auto op = make_structure(*dataset.circuit, structure);
  const std::size_t n = dataset.circuit->size();
  const std::size_t f = feature_width(features);

  // The structure block is identical for every instance: aggregate it once.
  // Sum across gates (rows) of S gives the column sums.
  const Matrix dense = op->to_dense();
  std::vector<double> s_part = dense.col_sums();
  if (aggregation == Aggregation::Mean) {
    for (double& v : s_part) v /= static_cast<double>(n);
  }

  Matrix out(dataset.instances.size(), n + f);
  for (std::size_t i = 0; i < dataset.instances.size(); ++i) {
    for (std::size_t j = 0; j < n; ++j) out(i, j) = s_part[j];
    const Matrix x =
        gate_features(*dataset.circuit, dataset.instances[i].selection, features);
    const auto x_part = aggregation == Aggregation::Sum ? x.col_sums() : x.col_means();
    for (std::size_t j = 0; j < f; ++j) out(i, n + j) = x_part[j];
  }
  return out;
}

Split split_indices(std::size_t n, double test_fraction, std::uint64_t seed) {
  IC_ASSERT(test_fraction > 0.0 && test_fraction < 1.0);
  std::vector<std::size_t> idx(n);
  for (std::size_t i = 0; i < n; ++i) idx[i] = i;
  Rng rng(seed);
  rng.shuffle(idx);
  const std::size_t test_count =
      std::max<std::size_t>(1, static_cast<std::size_t>(
                                   std::llround(test_fraction * static_cast<double>(n))));
  Split split;
  split.test.assign(idx.begin(), idx.begin() + static_cast<std::ptrdiff_t>(test_count));
  split.train.assign(idx.begin() + static_cast<std::ptrdiff_t>(test_count), idx.end());
  IC_ASSERT(!split.train.empty());
  return split;
}

Matrix take_rows(const Matrix& x, const std::vector<std::size_t>& idx) {
  Matrix out(idx.size(), x.cols());
  for (std::size_t i = 0; i < idx.size(); ++i) {
    IC_ASSERT(idx[i] < x.rows());
    for (std::size_t j = 0; j < x.cols(); ++j) out(i, j) = x(idx[i], j);
  }
  return out;
}

std::vector<double> take(const std::vector<double>& v,
                         const std::vector<std::size_t>& idx) {
  std::vector<double> out;
  out.reserve(idx.size());
  for (std::size_t i : idx) {
    IC_ASSERT(i < v.size());
    out.push_back(v[i]);
  }
  return out;
}

std::vector<nn::GraphSample> take(const std::vector<nn::GraphSample>& v,
                                  const std::vector<std::size_t>& idx) {
  std::vector<nn::GraphSample> out;
  out.reserve(idx.size());
  for (std::size_t i : idx) {
    IC_ASSERT(i < v.size());
    out.push_back(v[i]);
  }
  return out;
}

}  // namespace ic::data
