// Ablation B (Eq. 3): the exponential output head, motivated by runtime
// growing exponentially in the number of encrypted gates, vs a plain linear
// head. Everything else is ICNet-NN.
#include <cstdio>

#include "bench_common.hpp"

int main() {
  const auto profile = icbench::ExperimentProfile::from_env();
  std::printf("=== Ablation B: exponential vs linear output head ===\n");
  const auto ds = icbench::dataset1(profile);
  const auto split = ic::data::split_indices(ds.instances.size(), 0.2, 99);
  const auto samples = ic::data::to_gnn_samples(
      ds, ic::data::FeatureSet::All,
      ic::core::structure_kind_for(icbench::ModelVariant::ICNet));
  const auto train = ic::data::take(samples, split.train);
  const auto test = ic::data::take(samples, split.test);

  const auto opt =
      icbench::train_options_for(ic::nn::Readout::Attention, profile);
  for (bool exp_head : {true, false}) {
    auto cfg = icbench::config_for(icbench::ModelVariant::ICNet,
                                   ic::nn::Readout::Attention,
                                   ic::data::FeatureSet::All);
    cfg.exp_head = exp_head;
    ic::nn::GnnRegressor model(cfg);
    ic::nn::train_gnn(model, train, opt);
    std::printf("%-28s test MSE %s\n",
                exp_head ? "exp head (Eq. 3, ICNet)" : "linear head",
                icbench::cell(ic::nn::evaluate_mse(model, test)).c_str());
  }
  return 0;
}
