// Ablation A (§III.B, design change 1): ICNet replaces the graph Laplacian
// with the raw adjacency matrix to avoid the label-propagation smoothness
// prior. This bench holds the rest of ICNet-NN fixed and swaps only the
// structure operator.
#include <cstdio>

#include "bench_common.hpp"

int main() {
  const auto profile = icbench::ExperimentProfile::from_env();
  std::printf("=== Ablation A: structure operator (ICNet-NN, All features) ===\n");
  const auto ds = icbench::dataset1(profile);
  const auto split = ic::data::split_indices(ds.instances.size(), 0.2, 99);

  struct Case {
    const char* label;
    ic::data::StructureKind kind;
  };
  const Case cases[] = {
      {"adjacency (ICNet choice)", ic::data::StructureKind::Adjacency},
      {"combinatorial Laplacian", ic::data::StructureKind::Laplacian},
      {"normalized GCN propagation", ic::data::StructureKind::GcnNorm},
      {"scaled Laplacian (ChebNet's)", ic::data::StructureKind::ScaledLaplacian},
  };

  const auto cfg = icbench::config_for(icbench::ModelVariant::ICNet,
                                       ic::nn::Readout::Attention,
                                       ic::data::FeatureSet::All);
  const auto opt =
      icbench::train_options_for(ic::nn::Readout::Attention, profile);
  for (const auto& c : cases) {
    const auto samples =
        ic::data::to_gnn_samples(ds, ic::data::FeatureSet::All, c.kind);
    const auto train = ic::data::take(samples, split.train);
    const auto test = ic::data::take(samples, split.test);
    ic::nn::GnnRegressor model(cfg);
    ic::nn::train_gnn(model, train, opt);
    std::printf("%-30s test MSE %s\n", c.label,
                icbench::cell(ic::nn::evaluate_mse(model, test)).c_str());
  }
  std::printf("expectation: adjacency <= Laplacian variants (paper §III.B)\n");
  return 0;
}
