#include <gtest/gtest.h>

#include "ic/attack/app_sat.hpp"
#include "ic/attack/cec.hpp"
#include "ic/bdd/circuit_bdd.hpp"
#include "ic/circuit/generator.hpp"
#include "ic/circuit/library.hpp"
#include "ic/circuit/simulator.hpp"
#include "ic/locking/anti_sat.hpp"
#include "ic/locking/lut_lock.hpp"
#include "ic/locking/policy.hpp"
#include "ic/locking/xor_lock.hpp"

namespace ic::attack {
namespace {

using circuit::GateId;
using circuit::GateKind;
using circuit::Netlist;

TEST(Cec, IdenticalCircuitsAreEquivalent) {
  const Netlist nl = circuit::c499_like();
  const CecResult r = check_equivalence(nl, {}, nl, {});
  EXPECT_TRUE(r.equivalent);
  EXPECT_TRUE(r.decided);
  EXPECT_FALSE(r.counterexample.has_value());
}

TEST(Cec, DeMorganRewriteStaysEquivalent) {
  // c17 with every NAND(a, b) rebuilt as OR(NOT a, NOT b): the same
  // functions over a structurally different netlist.
  const Netlist nl = circuit::c17();
  Netlist rewritten("c17_demorgan");
  std::vector<GateId> remap(nl.size(), circuit::kNoGate);
  for (const GateId id : nl.primary_inputs()) {
    remap[id] = rewritten.add_input(nl.gate(id).name);
  }
  for (const GateId id : nl.topological_order()) {
    const auto& g = nl.gate(id);
    if (!circuit::is_logic(g.kind)) continue;
    ASSERT_EQ(g.kind, GateKind::Nand) << g.name;
    std::vector<GateId> inverted;
    for (const GateId f : g.fanins) {
      inverted.push_back(rewritten.add_gate(
          GateKind::Not, {remap[f]},
          g.name + "_not" + std::to_string(inverted.size())));
    }
    remap[id] = rewritten.add_gate(GateKind::Or, std::move(inverted), g.name);
  }
  for (const GateId o : nl.outputs()) rewritten.mark_output(remap[o]);
  ASSERT_EQ(rewritten.num_logic_gates(), 3 * nl.num_logic_gates());

  const CecResult r = check_equivalence(nl, {}, rewritten, {});
  EXPECT_TRUE(r.equivalent);
  EXPECT_TRUE(r.decided);
}

TEST(Cec, DifferentCircuitsYieldARealCounterexample) {
  Netlist a("a");
  const GateId x = a.add_input("x");
  const GateId y = a.add_input("y");
  a.mark_output(a.add_gate(GateKind::And, {x, y}, "g"));
  Netlist b("b");
  const GateId x2 = b.add_input("x");
  const GateId y2 = b.add_input("y");
  b.mark_output(b.add_gate(GateKind::Or, {x2, y2}, "g"));

  const CecResult r = check_equivalence(a, {}, b, {});
  ASSERT_FALSE(r.equivalent);
  ASSERT_TRUE(r.counterexample.has_value());
  circuit::Simulator sa(a), sb(b);
  EXPECT_NE(sa.eval(*r.counterexample), sb.eval(*r.counterexample));
}

TEST(Cec, AgreesWithBddOnLockedCircuits) {
  const Netlist original = circuit::c499_like();
  const auto sel =
      locking::select_gates(original, 4, locking::SelectionPolicy::Random, 7);
  const auto locked = locking::lut_lock(original, sel);

  EXPECT_TRUE(check_equivalence(locked.locked, locked.correct_key, original, {})
                  .equivalent);
  EXPECT_TRUE(bdd::equivalent(locked.locked, locked.correct_key, original, {}));

  std::vector<bool> wrong(locked.correct_key.size());
  for (std::size_t i = 0; i < wrong.size(); ++i) wrong[i] = !locked.correct_key[i];
  const CecResult sat_says = check_equivalence(locked.locked, wrong, original, {});
  EXPECT_EQ(sat_says.equivalent, bdd::equivalent(locked.locked, wrong, original, {}));
  EXPECT_FALSE(sat_says.equivalent);
}

TEST(Cec, BudgetExhaustionReportsUndecided) {
  const Netlist nl = circuit::c2670_like();
  // Equivalence of a circuit with itself is easy, so compare against a
  // different circuit of the same interface to force search.
  circuit::GeneratorSpec spec;
  spec.num_inputs = nl.num_inputs();
  spec.num_outputs = nl.num_outputs();
  spec.num_gates = nl.num_logic_gates();
  spec.seed = 1234567;
  const Netlist other = circuit::generate_circuit(spec, "other");
  const CecResult r = check_equivalence(nl, {}, other, {}, /*max_conflicts=*/1);
  // Either the single allowed conflict sufficed (unlikely but fine) or the
  // checker honestly reports "undecided".
  if (!r.decided) {
    EXPECT_FALSE(r.counterexample.has_value());
  }
}

TEST(AppSat, ExactOnOrdinaryLocking) {
  circuit::GeneratorSpec spec;
  spec.num_inputs = 12;
  spec.num_outputs = 6;
  spec.num_gates = 70;
  spec.seed = 21;
  const Netlist original = circuit::generate_circuit(spec, "app1");
  const auto sel =
      locking::select_gates(original, 6, locking::SelectionPolicy::Random, 4);
  const auto locked = locking::lut_lock(original, sel);
  NetlistOracle oracle(original);
  const AppSatResult r = app_sat_attack(locked.locked, oracle);
  ASSERT_TRUE(r.success);
  EXPECT_TRUE(r.exact);
  EXPECT_DOUBLE_EQ(r.estimated_error, 0.0);
  EXPECT_EQ(verify_key(locked.locked, r.key, original), 0u);
}

TEST(AppSat, TerminatesEarlyOnAntiSatWithLowErrorKey) {
  circuit::GeneratorSpec spec;
  spec.num_inputs = 14;
  spec.num_outputs = 7;
  spec.num_gates = 80;
  spec.seed = 22;
  const Netlist original = circuit::generate_circuit(spec, "app2");
  const GateId target =
      locking::select_gates(original, 1, locking::SelectionPolicy::Random, 5)[0];
  // Width 10 => exact attack needs ~1024 DIPs; AppSAT must stop far sooner.
  const auto locked = locking::anti_sat_lock(original, target, {10, 6});
  NetlistOracle oracle(original);
  AppSatOptions opt;
  opt.dip_batch = 8;
  opt.error_threshold = 0.05;
  opt.seed = 3;
  const AppSatResult r = app_sat_attack(locked.locked, oracle, opt);
  ASSERT_TRUE(r.success);
  EXPECT_LT(r.dip_iterations, 300u);  // way below the ~1024 exact bound
  EXPECT_LE(r.estimated_error, 0.05);
  // Independent check of the approximate key's corruption on fresh samples.
  const std::size_t mism =
      verify_key(locked.locked, r.key, original, /*words=*/64, /*seed=*/777);
  EXPECT_LT(static_cast<double>(mism) / 4096.0, 0.10);
}

TEST(AppSat, RespectsIterationCap) {
  const Netlist original = circuit::c499_like();
  const auto sel =
      locking::select_gates(original, 10, locking::SelectionPolicy::Random, 6);
  const auto locked = locking::lut_lock(original, sel);
  NetlistOracle oracle(original);
  AppSatOptions opt;
  opt.max_iterations = 2;
  opt.dip_batch = 1;
  opt.error_threshold = 0.0;  // unreachable by sampling alone
  const AppSatResult r = app_sat_attack(locked.locked, oracle, opt);
  if (!r.exact) {
    EXPECT_LE(r.dip_iterations, 2u);
  }
}

TEST(AppSat, RefusesAnUnlockedNetlistAndAnOracleOfAnotherShape) {
  const Netlist original = circuit::c17();
  NetlistOracle same(original);
  EXPECT_THROW(app_sat_attack(original, same), std::runtime_error);

  // Same 5 inputs as c17, but 3 outputs where c17 has 2.
  Netlist wider("wider");
  std::vector<GateId> in;
  for (int i = 0; i < 5; ++i) in.push_back(wider.add_input("i" + std::to_string(i)));
  for (int o = 0; o < 3; ++o) {
    wider.mark_output(wider.add_gate(GateKind::Buf, {in[static_cast<std::size_t>(o)]},
                                     "o" + std::to_string(o)));
  }
  const auto sel =
      locking::select_gates(original, 2, locking::SelectionPolicy::Random, 3);
  NetlistOracle oracle(wider);
  EXPECT_THROW(app_sat_attack(locking::lut_lock(original, sel).locked, oracle),
               std::runtime_error);
}

}  // namespace
}  // namespace ic::attack

#include "ic/attack/brute_force.hpp"

namespace ic::attack {
namespace {

TEST(BruteForce, RecoversXorKeysAndAgreesWithSatAttack) {
  const Netlist original = circuit::c17();
  const auto sel =
      locking::select_gates(original, 4, locking::SelectionPolicy::Random, 3);
  const auto locked = locking::xor_lock(original, sel);
  NetlistOracle oracle(original);
  const BruteForceResult bf = brute_force_attack(locked.locked, oracle);
  ASSERT_TRUE(bf.success);
  EXPECT_EQ(verify_key(locked.locked, bf.key, original), 0u);

  NetlistOracle oracle2(original);
  const AttackResult sat = sat_attack(locked.locked, oracle2);
  ASSERT_TRUE(sat.success);
  // Both keys must be functionally correct (not necessarily equal bits).
  EXPECT_EQ(verify_key(locked.locked, sat.key, original), 0u);
  // The SAT attack's oracle usage must be dramatically lower than the brute
  // forcer's probe set for the same job.
  EXPECT_LT(sat.oracle_queries, bf.oracle_queries);
}

TEST(BruteForce, RefusesHugeKeySpaces) {
  const Netlist original = circuit::c499_like();
  const auto sel =
      locking::select_gates(original, 2, locking::SelectionPolicy::Random, 5);
  const auto locked = locking::lut_lock(original, sel);  // 32 key bits
  NetlistOracle oracle(original);
  EXPECT_THROW(brute_force_attack(locked.locked, oracle), std::runtime_error);
}

TEST(BruteForce, CountsTriedKeys) {
  const Netlist original = circuit::c17();
  const auto sel =
      locking::select_gates(original, 2, locking::SelectionPolicy::Random, 7);
  const auto locked = locking::xor_lock(original, sel);
  NetlistOracle oracle(original);
  const BruteForceResult bf = brute_force_attack(locked.locked, oracle);
  ASSERT_TRUE(bf.success);
  EXPECT_GE(bf.keys_tried, 1u);
  EXPECT_LE(bf.keys_tried, 4u);  // 2 key bits -> at most 4 candidates
}

}  // namespace
}  // namespace ic::attack
