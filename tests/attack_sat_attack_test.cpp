#include <gtest/gtest.h>

#include <cmath>

#include "ic/attack/sat_attack.hpp"
#include "ic/circuit/generator.hpp"
#include "ic/circuit/library.hpp"
#include "ic/locking/lut_lock.hpp"
#include "ic/locking/policy.hpp"
#include "ic/locking/xor_lock.hpp"
#include "ic/support/metrics.hpp"

namespace ic::attack {
namespace {

using circuit::Netlist;

TEST(SatAttack, RecoversFunctionOfLutLockedC17) {
  const Netlist original = circuit::c17();
  const auto sel =
      locking::select_gates(original, 2, locking::SelectionPolicy::Random, 3);
  const auto locked = locking::lut_lock(original, sel);
  NetlistOracle oracle(original);
  const AttackResult r = sat_attack(locked.locked, oracle);
  ASSERT_TRUE(r.success);
  EXPECT_FALSE(r.hit_cap);
  EXPECT_GT(r.iterations, 0u);
  EXPECT_EQ(r.key.size(), locked.locked.num_keys());
  EXPECT_EQ(verify_key(locked.locked, r.key, original), 0u);
}

TEST(SatAttack, RecoversFunctionOfXorLockedCircuit) {
  circuit::GeneratorSpec spec;
  spec.num_inputs = 10;
  spec.num_outputs = 5;
  spec.num_gates = 60;
  spec.seed = 17;
  const Netlist original = circuit::generate_circuit(spec, "xt");
  const auto sel =
      locking::select_gates(original, 8, locking::SelectionPolicy::Random, 5);
  const auto locked = locking::xor_lock(original, sel);
  NetlistOracle oracle(original);
  const AttackResult r = sat_attack(locked.locked, oracle);
  ASSERT_TRUE(r.success);
  EXPECT_EQ(verify_key(locked.locked, r.key, original), 0u);
}

class AttackSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(AttackSweep, MoreLockedGatesNeverBreakCorrectness) {
  circuit::GeneratorSpec spec;
  spec.num_inputs = 12;
  spec.num_outputs = 6;
  spec.num_gates = 90;
  spec.seed = 23;
  const Netlist original = circuit::generate_circuit(spec, "sw");
  const auto sel = locking::select_gates(
      original, GetParam(), locking::SelectionPolicy::Random, GetParam());
  const auto locked = locking::lut_lock(original, sel);
  NetlistOracle oracle(original);
  const AttackResult r = sat_attack(locked.locked, oracle);
  ASSERT_TRUE(r.success) << GetParam() << " locked gates";
  EXPECT_EQ(verify_key(locked.locked, r.key, original), 0u)
      << GetParam() << " locked gates";
}

INSTANTIATE_TEST_SUITE_P(KeyCounts, AttackSweep, ::testing::Values(1u, 3u, 6u, 10u));

TEST(SatAttack, ExtractedKeyMayDifferFromInsertedKeyButMustBeFunctional) {
  // Multiple keys can be correct (unobservable truth-table rows); the attack
  // promises functional equivalence, not bit equality.
  const Netlist original = circuit::c17();
  const auto sel =
      locking::select_gates(original, 3, locking::SelectionPolicy::Random, 7);
  const auto locked = locking::lut_lock(original, sel);
  NetlistOracle oracle(original);
  const AttackResult r = sat_attack(locked.locked, oracle);
  ASSERT_TRUE(r.success);
  EXPECT_EQ(verify_key(locked.locked, r.key, original), 0u);
}

TEST(SatAttack, ConflictCapAborts) {
  circuit::GeneratorSpec spec;
  spec.num_inputs = 16;
  spec.num_outputs = 8;
  spec.num_gates = 150;
  spec.seed = 37;
  const Netlist original = circuit::generate_circuit(spec, "ccap");
  const auto sel =
      locking::select_gates(original, 20, locking::SelectionPolicy::Random, 9);
  const auto locked = locking::lut_lock(original, sel);
  NetlistOracle oracle(original);
  AttackOptions opt;
  opt.max_conflicts = 1;
  const AttackResult r = sat_attack(locked.locked, oracle, opt);
  // With a 1-conflict budget either the instance was trivial (no conflicts
  // at all) or the cap fired.
  if (!r.success) {
    EXPECT_TRUE(r.hit_cap);
  }
}

TEST(SatAttack, EffortCountersPopulated) {
  const Netlist original = circuit::c499_like();
  const auto sel =
      locking::select_gates(original, 4, locking::SelectionPolicy::Random, 11);
  const auto locked = locking::lut_lock(original, sel);
  NetlistOracle oracle(original);
  const AttackResult r = sat_attack(locked.locked, oracle);
  ASSERT_TRUE(r.success);
  EXPECT_GT(r.propagations, 0u);
  EXPECT_GT(r.oracle_queries, 0u);
  EXPECT_EQ(r.oracle_queries, r.iterations);
  EXPECT_GT(r.estimated_seconds(), 0.0);
  EXPECT_GE(r.wall_seconds, 0.0);
}

TEST(SatAttack, HarderInstancesCostMore) {
  // The core premise of the paper: attack effort grows with the number of
  // locked gates. Compare a 1-gate and a 12-gate instance on one circuit.
  const Netlist original = circuit::c499_like();
  NetlistOracle oracle(original);

  const auto easy_sel =
      locking::select_gates(original, 1, locking::SelectionPolicy::Random, 13);
  const auto easy = locking::lut_lock(original, easy_sel);
  const AttackResult easy_r = sat_attack(easy.locked, oracle);

  const auto hard_sel =
      locking::select_gates(original, 12, locking::SelectionPolicy::Random, 13);
  const auto hard = locking::lut_lock(original, hard_sel);
  const AttackResult hard_r = sat_attack(hard.locked, oracle);

  ASSERT_TRUE(easy_r.success);
  ASSERT_TRUE(hard_r.success);
  EXPECT_GT(hard_r.estimated_seconds(), easy_r.estimated_seconds());
}

TEST(SatAttack, RequiresKeyInputs) {
  const Netlist original = circuit::c17();
  NetlistOracle oracle(original);
  EXPECT_THROW(sat_attack(original, oracle), std::runtime_error);
}

/// The calibration histograms, asked for with the bounds sat_attack gives
/// them, so they get the same buckets whichever side asks first.
telemetry::Histogram& log10_error_histogram() {
  return telemetry::MetricsRegistry::global().histogram(
      "estimator.calibration.signed_log10_error",
      {kCalibrationLog10ErrorBounds.begin(), kCalibrationLog10ErrorBounds.end()});
}
telemetry::Histogram& rel_error_histogram() {
  return telemetry::MetricsRegistry::global().histogram(
      "estimator.calibration.abs_rel_error",
      {kCalibrationRelErrorBounds.begin(), kCalibrationRelErrorBounds.end()});
}

TEST(SatAttack, PredictedRuntimeFeedsCalibrationTelemetry) {
  auto& metrics = telemetry::MetricsRegistry::global();
  auto& signed_hist = log10_error_histogram();
  auto& rel_hist = rel_error_histogram();
  const std::uint64_t samples_before =
      metrics.counter("estimator.calibration.samples").value();
  const std::uint64_t signed_before = signed_hist.count();
  const std::uint64_t rel_before = rel_hist.count();

  const Netlist original = circuit::c17();
  const auto sel =
      locking::select_gates(original, 2, locking::SelectionPolicy::Random, 3);
  const auto locked = locking::lut_lock(original, sel);
  NetlistOracle oracle(original);
  AttackOptions opt;
  opt.predicted_seconds = 0.5;  // pretend the GNN forecast half a second
  const AttackResult r = sat_attack(locked.locked, oracle, opt);
  ASSERT_TRUE(r.success);

  EXPECT_EQ(metrics.counter("estimator.calibration.samples").value(),
            samples_before + 1);
  EXPECT_EQ(signed_hist.count(), signed_before + 1);
  EXPECT_EQ(rel_hist.count(), rel_before + 1);
}

TEST(SatAttack, CalibrationComparesThePredictionWithTheModeledSeconds) {
  // The labels are modeled seconds, so calibration must be too: a
  // prediction 10^0.75 times the attack's modeled seconds is an error of
  // exactly -0.75 decades, whatever the machine's speed.
  const Netlist original = circuit::c17();
  const auto sel =
      locking::select_gates(original, 2, locking::SelectionPolicy::Random, 3);
  const auto locked = locking::lut_lock(original, sel);
  NetlistOracle oracle(original);
  const double modeled = sat_attack(locked.locked, oracle).estimated_seconds();

  auto& signed_hist = log10_error_histogram();
  auto& rel_hist = rel_error_histogram();
  const auto buckets_before = signed_hist.bucket_counts();
  const double signed_sum_before = signed_hist.sum();
  const double rel_sum_before = rel_hist.sum();

  AttackOptions opt;
  opt.predicted_seconds = modeled * std::pow(10.0, 0.75);
  const AttackResult r = sat_attack(locked.locked, oracle, opt);
  ASSERT_TRUE(r.success);
  ASSERT_EQ(r.estimated_seconds(), modeled);  // the attack is deterministic

  // Bounds {-3, -2, -1, -0.5, ...}: bucket 3 is (-1, -0.5].
  const auto buckets = signed_hist.bucket_counts();
  ASSERT_EQ(signed_hist.bounds()[2], -1.0);
  ASSERT_EQ(signed_hist.bounds()[3], -0.5);
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    EXPECT_EQ(buckets[b] - buckets_before[b], b == 3 ? 1u : 0u) << "bucket " << b;
  }
  EXPECT_NEAR(signed_hist.sum() - signed_sum_before, -0.75, 1e-9);
  EXPECT_NEAR(rel_hist.sum() - rel_sum_before, 1.0 - std::pow(10.0, -0.75),
              1e-9);
}

TEST(SatAttack, NoPredictionMeansNoCalibrationSample) {
  auto& metrics = telemetry::MetricsRegistry::global();
  const std::uint64_t samples_before =
      metrics.counter("estimator.calibration.samples").value();

  const Netlist original = circuit::c17();
  const auto sel =
      locking::select_gates(original, 2, locking::SelectionPolicy::Random, 5);
  const auto locked = locking::lut_lock(original, sel);
  NetlistOracle oracle(original);
  const AttackResult r = sat_attack(locked.locked, oracle);
  ASSERT_TRUE(r.success);

  EXPECT_EQ(metrics.counter("estimator.calibration.samples").value(),
            samples_before);
}

}  // namespace
}  // namespace ic::attack
