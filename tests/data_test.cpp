#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "ic/circuit/generator.hpp"
#include "ic/circuit/library.hpp"
#include "ic/data/dataset.hpp"
#include "ic/data/metrics.hpp"
#include "ic/data/profile.hpp"

namespace ic::data {
namespace {

using circuit::GateId;
using circuit::Netlist;

TEST(Features, LocationEncodingMarksExactlyTheSelection) {
  const Netlist nl = circuit::c17();
  const std::vector<GateId> sel{5, 7};
  const auto x = gate_features(nl, sel, FeatureSet::Location);
  EXPECT_EQ(x.cols(), 1u);
  EXPECT_EQ(x.rows(), nl.size());
  double total = 0.0;
  for (std::size_t g = 0; g < nl.size(); ++g) total += x(g, 0);
  EXPECT_DOUBLE_EQ(total, 2.0);
  EXPECT_DOUBLE_EQ(x(5, 0), 1.0);
  EXPECT_DOUBLE_EQ(x(7, 0), 1.0);
}

TEST(Features, AllEncodingAddsOneHotTypes) {
  const Netlist nl = circuit::c17();  // all logic gates are NAND
  const auto x = gate_features(nl, {}, FeatureSet::All);
  EXPECT_EQ(x.cols(), 7u);
  // NAND slot is index 4 (mask, AND, NOR, NOT, NAND...).
  for (GateId g = 0; g < nl.size(); ++g) {
    if (circuit::is_logic(nl.gate(g).kind)) {
      EXPECT_DOUBLE_EQ(x(g, 4), 1.0);
      // Exactly one type bit set.
      double row = 0.0;
      for (std::size_t j = 1; j < 7; ++j) row += x(g, j);
      EXPECT_DOUBLE_EQ(row, 1.0);
    } else {
      for (std::size_t j = 1; j < 7; ++j) EXPECT_DOUBLE_EQ(x(g, j), 0.0);
    }
  }
}

TEST(Metrics, MseOfEqualVectorsIsZero) {
  EXPECT_DOUBLE_EQ(mse({1, 2, 3}, {1, 2, 3}), 0.0);
  EXPECT_DOUBLE_EQ(mse({1, 2}, {2, 4}), 2.5);
}

TEST(Metrics, PearsonKnownValues) {
  EXPECT_NEAR(pearson({1, 2, 3, 4}, {2, 4, 6, 8}), 1.0, 1e-12);
  EXPECT_NEAR(pearson({1, 2, 3, 4}, {8, 6, 4, 2}), -1.0, 1e-12);
  EXPECT_DOUBLE_EQ(pearson({1, 1, 1}, {2, 5, 9}), 0.0);  // zero variance
}

TEST(Metrics, SpearmanIsRankBased) {
  // Monotone nonlinear relation: Spearman 1, Pearson < 1.
  const std::vector<double> a{1, 2, 3, 4, 5};
  const std::vector<double> b{1, 8, 27, 64, 125};
  EXPECT_NEAR(spearman(a, b), 1.0, 1e-12);
  EXPECT_LT(pearson(a, b), 1.0);
}

TEST(Metrics, SpearmanHandlesTies) {
  const std::vector<double> a{1, 2, 2, 3};
  const std::vector<double> b{10, 20, 20, 30};
  EXPECT_NEAR(spearman(a, b), 1.0, 1e-12);
}

TEST(Metrics, AverageRanks) {
  const auto r = average_ranks({30, 10, 20, 10});
  ASSERT_EQ(r.size(), 4u);
  EXPECT_DOUBLE_EQ(r[0], 4.0);
  EXPECT_DOUBLE_EQ(r[1], 1.5);
  EXPECT_DOUBLE_EQ(r[2], 3.0);
  EXPECT_DOUBLE_EQ(r[3], 1.5);
}

TEST(Metrics, LinearSlope) {
  EXPECT_NEAR(linear_slope({0, 1, 2, 3}, {1, 3, 5, 7}), 2.0, 1e-12);
}

TEST(Split, PartitionsWithoutOverlap) {
  const Split s = split_indices(100, 0.2, 7);
  EXPECT_EQ(s.test.size(), 20u);
  EXPECT_EQ(s.train.size(), 80u);
  std::set<std::size_t> all(s.train.begin(), s.train.end());
  all.insert(s.test.begin(), s.test.end());
  EXPECT_EQ(all.size(), 100u);
}

TEST(Split, DeterministicPerSeed) {
  const Split a = split_indices(50, 0.3, 3);
  const Split b = split_indices(50, 0.3, 3);
  EXPECT_EQ(a.train, b.train);
  EXPECT_EQ(a.test, b.test);
}

TEST(Structure, EveryKindBuilds) {
  const Netlist nl = circuit::c17();
  for (auto kind : {StructureKind::Adjacency, StructureKind::Laplacian,
                    StructureKind::GcnNorm, StructureKind::ScaledLaplacian}) {
    const auto s = make_structure(nl, kind);
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->rows(), nl.size());
    EXPECT_EQ(s->cols(), nl.size());
  }
}

class DatasetPipeline : public ::testing::Test {
 protected:
  static Dataset make() {
    circuit::GeneratorSpec spec;
    spec.num_inputs = 10;
    spec.num_outputs = 5;
    spec.num_gates = 48;
    spec.seed = 5;
    const Netlist nl = circuit::generate_circuit(spec, "dp");
    DatasetOptions opt;
    opt.num_instances = 12;
    opt.min_gates = 1;
    opt.max_gates = 6;
    opt.attack.max_conflicts = 20000;
    opt.seed = 3;
    return generate_dataset(nl, opt);
  }
};

TEST_F(DatasetPipeline, GeneratesLabeledInstances) {
  const Dataset ds = make();
  ASSERT_EQ(ds.instances.size(), 12u);
  for (const auto& inst : ds.instances) {
    EXPECT_GE(inst.selection.size(), 1u);
    EXPECT_LE(inst.selection.size(), 6u);
    EXPECT_TRUE(inst.attack.success) << "CI-sized instances must all solve";
    EXPECT_GT(inst.runtime_seconds, 0.0);
  }
  const auto y = ds.log_targets();
  for (double v : y) {
    EXPECT_TRUE(std::isfinite(v));
    EXPECT_GT(v, 0.0);
  }
}

TEST_F(DatasetPipeline, GnnSamplesShareTheStructureOperator) {
  const Dataset ds = make();
  const auto samples = to_gnn_samples(ds, FeatureSet::All, StructureKind::Adjacency);
  ASSERT_EQ(samples.size(), ds.instances.size());
  for (const auto& s : samples) {
    EXPECT_EQ(s.structure.get(), samples.front().structure.get());
    EXPECT_EQ(s.features.rows(), ds.circuit->size());
    EXPECT_EQ(s.features.cols(), 7u);
  }
}

TEST_F(DatasetPipeline, FlattenShapesAndStructureBlockConstant) {
  const Dataset ds = make();
  const auto m = flatten_dataset(ds, FeatureSet::Location,
                                 StructureKind::Adjacency, Aggregation::Sum);
  const std::size_t n = ds.circuit->size();
  EXPECT_EQ(m.rows(), ds.instances.size());
  EXPECT_EQ(m.cols(), n + 1);
  // Structure block identical across instances; mask sum equals key count.
  for (std::size_t i = 1; i < m.rows(); ++i) {
    for (std::size_t j = 0; j < n; ++j) EXPECT_DOUBLE_EQ(m(i, j), m(0, j));
  }
  for (std::size_t i = 0; i < m.rows(); ++i) {
    EXPECT_DOUBLE_EQ(m(i, n),
                     static_cast<double>(ds.instances[i].selection.size()));
  }
}

TEST_F(DatasetPipeline, MeanAggregationScalesSum) {
  const Dataset ds = make();
  const auto sum = flatten_dataset(ds, FeatureSet::All, StructureKind::Laplacian,
                                   Aggregation::Sum);
  const auto mean = flatten_dataset(ds, FeatureSet::All, StructureKind::Laplacian,
                                    Aggregation::Mean);
  const double n = static_cast<double>(ds.circuit->size());
  for (std::size_t j = 0; j < sum.cols(); ++j) {
    EXPECT_NEAR(mean(0, j), sum(0, j) / n, 1e-9);
  }
}

TEST_F(DatasetPipeline, TakeHelpers) {
  const Dataset ds = make();
  const auto y = ds.log_targets();
  const Split split = split_indices(y.size(), 0.25, 1);
  const auto ytest = take(y, split.test);
  EXPECT_EQ(ytest.size(), split.test.size());
  EXPECT_DOUBLE_EQ(ytest[0], y[split.test[0]]);
  const auto m = flatten_dataset(ds, FeatureSet::Location,
                                 StructureKind::Adjacency, Aggregation::Mean);
  const auto mtest = take_rows(m, split.test);
  EXPECT_EQ(mtest.rows(), split.test.size());
  EXPECT_DOUBLE_EQ(mtest(0, 0), m(split.test[0], 0));
}

TEST(Profiles, CiAndPaperDiffer) {
  const auto ci = ExperimentProfile::ci();
  const auto paper = ExperimentProfile::paper();
  EXPECT_LT(ci.circuit_gates, paper.circuit_gates);
  EXPECT_EQ(paper.circuit_gates, 1529u);
  EXPECT_EQ(paper.d1_max_gates, 350u);
  const auto d1 = ci.dataset1_options();
  EXPECT_EQ(d1.min_gates, 1u);
  const auto d2 = ci.dataset2_options();
  EXPECT_EQ(d2.max_gates, 3u);
}

TEST(Profiles, EnvSelection) {
  unsetenv("ICNET_PROFILE");
  EXPECT_EQ(ExperimentProfile::from_env().name, "ci");
  setenv("ICNET_PROFILE", "paper", 1);
  EXPECT_EQ(ExperimentProfile::from_env().name, "paper");
  setenv("ICNET_PROFILE", "bogus", 1);
  EXPECT_THROW(ExperimentProfile::from_env(), std::runtime_error);
  unsetenv("ICNET_PROFILE");
}

TEST(Dataset, RuntimeGrowsWithKeyCountOnAverage) {
  // The monotone trend the whole paper rests on.
  circuit::GeneratorSpec spec;
  spec.num_inputs = 12;
  spec.num_outputs = 6;
  spec.num_gates = 64;
  spec.seed = 8;
  const Netlist nl = circuit::generate_circuit(spec, "trend");

  DatasetOptions small;
  small.num_instances = 8;
  small.min_gates = 1;
  small.max_gates = 1;
  small.seed = 10;
  DatasetOptions large = small;
  large.min_gates = 10;
  large.max_gates = 10;
  large.seed = 11;

  const auto ds_small = generate_dataset(nl, small);
  const auto ds_large = generate_dataset(nl, large);
  double mean_small = 0.0, mean_large = 0.0;
  for (const auto& i : ds_small.instances) mean_small += i.runtime_seconds;
  for (const auto& i : ds_large.instances) mean_large += i.runtime_seconds;
  EXPECT_GT(mean_large / 8.0, mean_small / 8.0);
}

}  // namespace
}  // namespace ic::data

namespace ic::data {
namespace {

TEST(Dataset, ParallelLabelingIsBitIdenticalToSerial) {
  // The determinism contract (DESIGN.md §8): per-instance seeds are derived
  // from (seed, index), so the worker count cannot change a single bit of
  // the dataset — same selections, same keys, same labels.
  circuit::GeneratorSpec spec;
  spec.num_inputs = 10;
  spec.num_outputs = 5;
  spec.num_gates = 48;
  spec.seed = 21;
  const circuit::Netlist nl = circuit::generate_circuit(spec, "par_ds");
  DatasetOptions opt;
  opt.num_instances = 10;
  opt.min_gates = 1;
  opt.max_gates = 6;
  opt.attack.max_conflicts = 20000;
  opt.seed = 3;
  opt.jobs = 1;
  const Dataset serial = generate_dataset(nl, opt);
  opt.jobs = 4;
  const Dataset parallel = generate_dataset(nl, opt);

  ASSERT_EQ(serial.instances.size(), parallel.instances.size());
  for (std::size_t i = 0; i < serial.instances.size(); ++i) {
    const auto& a = serial.instances[i];
    const auto& b = parallel.instances[i];
    EXPECT_EQ(a.selection, b.selection) << "instance " << i;
    EXPECT_EQ(a.runtime_seconds, b.runtime_seconds) << "instance " << i;
    EXPECT_EQ(a.attack.key, b.attack.key) << "instance " << i;
    EXPECT_EQ(a.attack.iterations, b.attack.iterations) << "instance " << i;
    EXPECT_EQ(a.attack.conflicts, b.attack.conflicts) << "instance " << i;
  }
  // And the same again via the IC_JOBS environment path (jobs = 0).
  setenv("IC_JOBS", "3", 1);
  opt.jobs = 0;
  const Dataset env_jobs = generate_dataset(nl, opt);
  unsetenv("IC_JOBS");
  for (std::size_t i = 0; i < serial.instances.size(); ++i) {
    EXPECT_EQ(serial.instances[i].selection, env_jobs.instances[i].selection);
    EXPECT_EQ(serial.instances[i].runtime_seconds,
              env_jobs.instances[i].runtime_seconds);
  }
}

TEST(Dataset, XorSchemeAlsoLabels) {
  circuit::GeneratorSpec spec;
  spec.num_inputs = 10;
  spec.num_outputs = 5;
  spec.num_gates = 40;
  spec.seed = 77;
  const circuit::Netlist nl = circuit::generate_circuit(spec, "xor_ds");
  DatasetOptions opt;
  opt.num_instances = 6;
  opt.min_gates = 2;
  opt.max_gates = 8;
  opt.scheme = ObfuscationScheme::Xor;
  opt.attack.max_conflicts = 20000;
  opt.seed = 4;
  const Dataset ds = generate_dataset(nl, opt);
  ASSERT_EQ(ds.instances.size(), 6u);
  for (const auto& inst : ds.instances) {
    EXPECT_TRUE(inst.attack.success);
    EXPECT_GT(inst.runtime_seconds, 0.0);
  }
}

TEST(Dataset, XorAndLutSchemesGiveDifferentHardness) {
  circuit::GeneratorSpec spec;
  spec.num_inputs = 10;
  spec.num_outputs = 5;
  spec.num_gates = 40;
  spec.seed = 78;
  const circuit::Netlist nl = circuit::generate_circuit(spec, "sch_cmp");
  DatasetOptions opt;
  opt.num_instances = 8;
  opt.min_gates = 6;
  opt.max_gates = 6;
  opt.attack.max_conflicts = 50000;
  opt.seed = 5;
  const Dataset lut_ds = generate_dataset(nl, opt);
  opt.scheme = ObfuscationScheme::Xor;
  const Dataset xor_ds = generate_dataset(nl, opt);
  double lut_mean = 0.0, xor_mean = 0.0;
  for (const auto& i : lut_ds.instances) lut_mean += i.runtime_seconds;
  for (const auto& i : xor_ds.instances) xor_mean += i.runtime_seconds;
  // A LUT-4 hides 16 truth bits per gate vs one key bit for XOR: same gate
  // count must be at least as hard (strictly, in practice).
  EXPECT_GT(lut_mean, xor_mean);
}

}  // namespace
}  // namespace ic::data
