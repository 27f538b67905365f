#include "bench_common.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "ic/circuit/generator.hpp"
#include "ic/support/assert.hpp"
#include "ic/data/dataset_io.hpp"
#include "ic/data/metrics.hpp"
#include "ic/ml/regressor.hpp"
#include "ic/support/strings.hpp"
#include "ic/support/telemetry.hpp"
#include "ic/support/thread_pool.hpp"

namespace icbench {

using ic::data::Aggregation;
using ic::data::FeatureSet;
using ic::data::Split;
using ic::data::StructureKind;
using ic::nn::Readout;

namespace {

/// Every bench binary passes through here (main_circuit or a measurement):
/// register the exit-time ICNET_METRICS_OUT snapshot exactly once, and stamp
/// the worker count into the snapshot so BENCH_*.json records how it was run.
void ensure_flush_hook() {
  static const bool registered = [] {
    std::atexit(flush_bench_metrics);
    ic::telemetry::MetricsRegistry::global().gauge("bench.jobs").set(
        static_cast<double>(ic::support::ThreadPool::effective_jobs(0)));
    return true;
  }();
  (void)registered;
}

}  // namespace

ic::circuit::Netlist main_circuit(const ExperimentProfile& profile) {
  ensure_flush_hook();
  ic::circuit::GeneratorSpec spec;
  spec.num_gates = profile.circuit_gates;
  spec.num_inputs = profile.circuit_inputs;
  spec.num_outputs = profile.circuit_outputs;
  spec.seed = profile.seed;
  return ic::circuit::generate_circuit(spec, "main_" + profile.name);
}

Dataset dataset1(const ExperimentProfile& profile) {
  const auto circuit = main_circuit(profile);
  return ic::data::load_or_generate(
      circuit, profile.dataset1_options(),
      "bench_cache/" + profile.name + "_dataset1.txt");
}

Dataset dataset2(const ExperimentProfile& profile) {
  const auto circuit = main_circuit(profile);
  return ic::data::load_or_generate(
      circuit, profile.dataset2_options(),
      "bench_cache/" + profile.name + "_dataset2.txt");
}

const char* variant_name(ModelVariant variant) {
  switch (variant) {
    case ModelVariant::Gcn: return "GCN";
    case ModelVariant::ChebNet: return "ChebNet";
    case ModelVariant::ICNet: return "ICNet";
    case ModelVariant::Sage: break;  // not a row of the paper's tables
  }
  return "?";
}

ic::nn::GnnConfig config_for(ModelVariant variant, Readout readout,
                             FeatureSet features) {
  ic::nn::GnnConfig cfg;
  const auto conv = ic::core::convolution_for(variant, 3);
  cfg.conv_mode = conv.mode;
  cfg.cheb_order = conv.cheb_order;
  cfg.in_features = ic::data::feature_width(features);
  cfg.hidden = {8, 4};
  cfg.readout = readout;
  cfg.exp_head = variant == ModelVariant::ICNet;  // Eq. 3 is ICNet's design
  cfg.seed = 1234;
  return cfg;
}

ic::nn::TrainOptions train_options_for(Readout readout,
                                       const ExperimentProfile& profile) {
  ic::nn::TrainOptions opt;
  opt.max_epochs = profile.gnn_epochs;
  // Sum readout accumulates over every gate, so its head sees inputs two
  // orders of magnitude larger; a gentler step keeps Adam stable there.
  opt.learning_rate = readout == ic::nn::Readout::Sum ? 0.002 : 0.005;
  opt.patience = 80;
  opt.weight_decay = 1e-3;
  opt.seed = 77;
  return opt;
}

namespace {

const char* readout_name(Readout readout) {
  switch (readout) {
    case Readout::Sum: return "sum";
    case Readout::Mean: return "mean";
    case Readout::Attention: return "nn";
  }
  return "?";
}

const char* feature_name(FeatureSet features) {
  return features == FeatureSet::Location ? "location" : "all";
}

}  // namespace

void record_measurement(const std::string& name, double value) {
  ensure_flush_hook();
  ic::telemetry::MetricsRegistry::global().gauge("bench." + name).set(value);
}

void flush_bench_metrics() {
  const char* path = std::getenv("ICNET_METRICS_OUT");
  if (path == nullptr || *path == '\0') return;
  ic::telemetry::dump_metrics(path);
}

void write_bench_json(const std::string& bench_name, const std::string& path) {
  const auto gauges = ic::telemetry::MetricsRegistry::global().gauge_snapshot();
  double jobs = 1.0;
  if (const auto it = gauges.find("bench.jobs"); it != gauges.end()) {
    jobs = it->second;
  }
  std::ofstream out(path);
  IC_CHECK(out.good(), "write_bench_json: cannot open " << path);
  out << "{\n  \"schema\": 1,\n  \"bench\": " << ic::json_quote(bench_name)
      << ",\n  \"jobs\": " << static_cast<long long>(jobs)
      << ",\n  \"metrics\": {";
  bool first = true;
  char buf[64];
  for (const auto& [name, value] : gauges) {
    if (name.rfind("bench.", 0) != 0 || name == "bench.jobs") continue;
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    out << (first ? "" : ",") << "\n    "
        << ic::json_quote(name.substr(6)) << ": " << buf;
    first = false;
  }
  out << "\n  }\n}\n";
}

void flush_bench_json(const std::string& bench_name) {
  const char* path = std::getenv("ICNET_BENCH_OUT");
  if (path == nullptr || *path == '\0') return;
  write_bench_json(bench_name, path);
}

double evaluate_gnn(const Dataset& dataset, const Split& split,
                    ModelVariant variant, Readout readout, FeatureSet features,
                    const ExperimentProfile& profile) {
  const auto samples = ic::data::to_gnn_samples(
      dataset, features, ic::core::structure_kind_for(variant));
  const auto train = ic::data::take(samples, split.train);
  const auto test = ic::data::take(samples, split.test);

  ic::nn::GnnRegressor model(config_for(variant, readout, features));
  const auto report =
      ic::nn::train_gnn(model, train, train_options_for(readout, profile));
  const double mse = ic::nn::evaluate_mse(model, test);

  const std::string key = std::string(variant_name(variant)) + "." +
                          readout_name(readout) + "." + feature_name(features);
  record_measurement("gnn." + key + ".mse", mse);
  record_measurement("gnn." + key + ".train_seconds", report.wall_seconds);
  return mse;
}

double evaluate_baseline(const std::string& name, const Dataset& dataset,
                         const Split& split, FeatureSet features,
                         Aggregation aggregation) {
  // Paper encoding: gate-wise sum/mean of [structure | features]; the
  // structure block uses the adjacency matrix (EXPERIMENTS.md).
  const auto x = ic::data::flatten_dataset(dataset, features,
                                           StructureKind::Adjacency, aggregation);
  const auto y = dataset.log_targets();
  const auto xtrain = ic::data::take_rows(x, split.train);
  const auto xtest = ic::data::take_rows(x, split.test);
  const auto ytrain = ic::data::take(y, split.train);
  const auto ytest = ic::data::take(y, split.test);

  auto model = ic::ml::make_regressor(name, 555);
  model->fit(xtrain, ytrain);
  const double mse = model->mse(xtest, ytest);
  record_measurement("baseline." + name + "." + feature_name(features) + "." +
                         (aggregation == Aggregation::Sum ? "sum" : "mean") +
                         ".mse",
                     mse);
  return mse;
}

std::string cell(double v) {
  if (std::isnan(v)) return "N/A";
  return ic::format_mse(v);
}

void print_regression_table(const std::string& title, const Dataset& dataset,
                            const ExperimentProfile& profile) {
  const Split split = ic::data::split_indices(dataset.instances.size(), 0.2, 99);
  std::printf("%s (profile=%s, %zu instances, %zu train / %zu test)\n",
              title.c_str(), profile.name.c_str(), dataset.instances.size(),
              split.train.size(), split.test.size());
  std::printf("%-12s %12s %12s %12s %12s\n", "", "Location/Sum", "Location/Mean",
              "Allfeat/Sum", "Allfeat/Mean");

  auto baseline_row = [&](const std::string& name) {
    double v[4];
    int i = 0;
    for (FeatureSet fs : {FeatureSet::Location, FeatureSet::All}) {
      for (Aggregation agg : {Aggregation::Sum, Aggregation::Mean}) {
        try {
          v[i] = evaluate_baseline(name, dataset, split, fs, agg);
        } catch (const std::runtime_error&) {
          v[i] = std::nan("");
        }
        ++i;
      }
    }
    // Table order is (Loc/Sum, Loc/Mean, All/Sum, All/Mean); we computed
    // (Loc/Sum, Loc/Mean, All/Sum, All/Mean) already in that order.
    std::printf("%-12s %12s %12s %12s %12s\n", name.c_str(), cell(v[0]).c_str(),
                cell(v[1]).c_str(), cell(v[2]).c_str(), cell(v[3]).c_str());
  };

  for (const auto& name : ic::ml::baseline_names()) baseline_row(name);

  for (ModelVariant variant :
       {ModelVariant::ChebNet, ModelVariant::Gcn, ModelVariant::ICNet}) {
    double v[4];
    int i = 0;
    for (FeatureSet fs : {FeatureSet::Location, FeatureSet::All}) {
      for (Readout readout : {Readout::Sum, Readout::Mean}) {
        v[i++] = evaluate_gnn(dataset, split, variant, readout, fs, profile);
      }
    }
    std::printf("%-12s %12s %12s %12s %12s\n", variant_name(variant),
                cell(v[0]).c_str(), cell(v[1]).c_str(), cell(v[2]).c_str(),
                cell(v[3]).c_str());
    const double loc_nn = evaluate_gnn(dataset, split, variant,
                                       Readout::Attention, FeatureSet::Location,
                                       profile);
    const double all_nn = evaluate_gnn(dataset, split, variant,
                                       Readout::Attention, FeatureSet::All,
                                       profile);
    const std::string nn_name = std::string(variant_name(variant)) + "-NN";
    std::printf("%-12s %12s %12s %12s %12s\n", nn_name.c_str(),
                cell(loc_nn).c_str(), "-", cell(all_nn).c_str(), "-");
  }
}

TrainedICNet train_icnet_nn(const Dataset& dataset,
                            const ExperimentProfile& profile,
                            FeatureSet features) {
  const Split split = ic::data::split_indices(dataset.instances.size(), 0.2, 99);
  const auto samples = ic::data::to_gnn_samples(
      dataset, features, ic::core::structure_kind_for(ModelVariant::ICNet));
  TrainedICNet out;
  out.train = ic::data::take(samples, split.train);
  out.test = ic::data::take(samples, split.test);
  out.test_indices = split.test;
  out.model = std::make_unique<ic::nn::GnnRegressor>(
      config_for(ModelVariant::ICNet, Readout::Attention, features));
  const auto report = ic::nn::train_gnn(
      *out.model, out.train, train_options_for(Readout::Attention, profile));
  record_measurement(std::string("icnet_nn.") + feature_name(features) +
                         ".train_seconds",
                     report.wall_seconds);
  record_measurement(std::string("icnet_nn.") + feature_name(features) +
                         ".final_train_mse",
                     report.final_train_mse);
  return out;
}

}  // namespace icbench
