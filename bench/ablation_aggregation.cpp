// Ablation C (§III.B, design changes 2–3): learned attention aggregation
// (Θ_feat, Θ_gate) vs fixed sum/mean readouts, isolated on ICNet with both
// feature sets.
#include <cstdio>

#include "bench_common.hpp"

int main() {
  const auto profile = icbench::ExperimentProfile::from_env();
  std::printf("=== Ablation C: readout aggregation (ICNet) ===\n");
  const auto ds = icbench::dataset1(profile);
  const auto split = ic::data::split_indices(ds.instances.size(), 0.2, 99);

  struct Case {
    const char* label;
    ic::nn::Readout readout;
  };
  const Case cases[] = {
      {"sum", ic::nn::Readout::Sum},
      {"mean", ic::nn::Readout::Mean},
      {"attention (ICNet-NN)", ic::nn::Readout::Attention},
  };
  for (auto fs : {ic::data::FeatureSet::Location, ic::data::FeatureSet::All}) {
    std::printf("feature set: %s\n",
                fs == ic::data::FeatureSet::Location ? "Location" : "All");
    for (const auto& c : cases) {
      const double mse = icbench::evaluate_gnn(
          ds, split, icbench::ModelVariant::ICNet, c.readout, fs, profile);
      std::printf("  %-22s test MSE %s\n", c.label, icbench::cell(mse).c_str());
    }
  }
  std::printf("expectation: a learned aggregation is never worse than the "
              "best fixed one (§IV.C)\n");
  return 0;
}
