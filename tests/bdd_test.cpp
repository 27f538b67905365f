#include <gtest/gtest.h>

#include <array>
#include <cmath>

#include "ic/bdd/circuit_bdd.hpp"
#include "ic/circuit/bench_io.hpp"
#include "ic/circuit/generator.hpp"
#include "ic/circuit/library.hpp"
#include "ic/circuit/simulator.hpp"
#include "ic/locking/lut_lock.hpp"
#include "ic/locking/policy.hpp"
#include "ic/locking/xor_lock.hpp"
#include "ic/support/rng.hpp"

namespace ic::bdd {
namespace {

TEST(BddManager, TerminalsAndVar) {
  Manager m(3);
  EXPECT_EQ(m.ite(kTrue, kTrue, kFalse), kTrue);
  const NodeRef x0 = m.var(0);
  EXPECT_TRUE(m.eval(x0, {true, false, false}));
  EXPECT_FALSE(m.eval(x0, {false, true, true}));
}

TEST(BddManager, CanonicityMakesEqualityStructural) {
  Manager m(4);
  const NodeRef a = m.var(0);
  const NodeRef b = m.var(1);
  // (a ∧ b) built two different ways must be the same node.
  const NodeRef ab1 = m.apply_and(a, b);
  const NodeRef ab2 = m.apply_not(m.apply_or(m.apply_not(a), m.apply_not(b)));
  EXPECT_EQ(ab1, ab2);
  // De Morgan on OR too.
  EXPECT_EQ(m.apply_or(a, b),
            m.apply_not(m.apply_and(m.apply_not(a), m.apply_not(b))));
}

TEST(BddManager, OperationsMatchTruthTables) {
  Manager m(2);
  const NodeRef a = m.var(0);
  const NodeRef b = m.var(1);
  const std::array<NodeRef, 4> fns{m.apply_and(a, b), m.apply_or(a, b),
                                   m.apply_xor(a, b), m.apply_xnor(a, b)};
  for (int p = 0; p < 4; ++p) {
    const std::vector<bool> in{bool(p & 1), bool(p & 2)};
    EXPECT_EQ(m.eval(fns[0], in), in[0] && in[1]);
    EXPECT_EQ(m.eval(fns[1], in), in[0] || in[1]);
    EXPECT_EQ(m.eval(fns[2], in), in[0] != in[1]);
    EXPECT_EQ(m.eval(fns[3], in), in[0] == in[1]);
  }
}

TEST(BddManager, SatFractionExactValues) {
  Manager m(3);
  const NodeRef a = m.var(0);
  const NodeRef b = m.var(1);
  const NodeRef c = m.var(2);
  EXPECT_DOUBLE_EQ(m.sat_fraction(kFalse), 0.0);
  EXPECT_DOUBLE_EQ(m.sat_fraction(kTrue), 1.0);
  EXPECT_DOUBLE_EQ(m.sat_fraction(a), 0.5);
  EXPECT_DOUBLE_EQ(m.sat_fraction(m.apply_and(a, b)), 0.25);
  EXPECT_DOUBLE_EQ(m.sat_fraction(m.apply_and(m.apply_and(a, b), c)), 0.125);
  EXPECT_DOUBLE_EQ(m.sat_fraction(m.apply_xor(a, b)), 0.5);
  EXPECT_DOUBLE_EQ(m.sat_fraction(m.apply_or(a, c)), 0.75);
}

TEST(BddManager, AnySatReturnsAWitness) {
  Manager m(4);
  const NodeRef f = m.apply_and(m.var(1), m.apply_not(m.var(3)));
  const auto witness = m.any_sat(f);
  EXPECT_TRUE(m.eval(f, witness));
  EXPECT_TRUE(witness[1]);
  EXPECT_FALSE(witness[3]);
}

TEST(BddManager, XorChainStaysLinearInSize) {
  // Parity has a linear-size BDD under any order — a classic sanity check
  // for proper reduction.
  Manager m(16);
  NodeRef f = m.var(0);
  for (std::size_t i = 1; i < 16; ++i) f = m.apply_xor(f, m.var(i));
  // The manager has no garbage collection, so the count includes the
  // intermediate parities: Σ 2i ≈ 2·16²/2 nodes — still linear per step,
  // nowhere near the 2^16 an unreduced structure would need.
  EXPECT_LT(m.node_count(), 300u);
  EXPECT_DOUBLE_EQ(m.sat_fraction(f), 0.5);
}

TEST(BddManager, NodeLimitThrows) {
  // A multiplier-like AND-OR mix on many vars with a 64-node cap must bail.
  Manager m(24, 64);
  NodeRef f = kFalse;
  try {
    for (std::size_t i = 0; i + 1 < 24; i += 2) {
      f = m.apply_or(f, m.apply_and(m.var(i), m.var(i + 1)));
    }
    FAIL() << "expected node-limit throw";
  } catch (const std::runtime_error&) {
    SUCCEED();
  }
}

TEST(CircuitBdd, C17OutputsMatchSimulatorExhaustively) {
  const auto nl = circuit::c17();
  Manager m(nl.num_inputs());
  const auto outs = build_outputs(m, nl);
  circuit::Simulator sim(nl);
  for (unsigned p = 0; p < 32; ++p) {
    std::vector<bool> in(5);
    for (int b = 0; b < 5; ++b) in[b] = (p >> b) & 1u;
    const auto expected = sim.eval(in);
    for (std::size_t o = 0; o < expected.size(); ++o) {
      EXPECT_EQ(m.eval(outs[o], in), expected[o]) << "pattern " << p;
    }
  }
}

TEST(CircuitBdd, EquivalenceOfIdenticalAndRewiredCircuits) {
  const auto nl = circuit::c17();
  EXPECT_TRUE(equivalent(nl, {}, nl, {}));
  // A structurally different but functionally equal variant: rebuild via
  // bench round-trip.
  const auto rt = circuit::parse_bench(circuit::write_bench(nl), "c17rt");
  EXPECT_TRUE(equivalent(nl, {}, rt, {}));
}

TEST(CircuitBdd, LockedCircuitEquivalentOnlyUnderCorrectKey) {
  const auto original = circuit::c499_like();
  const auto sel =
      locking::select_gates(original, 5, locking::SelectionPolicy::Random, 3);
  const auto r = locking::lut_lock(original, sel);
  EXPECT_TRUE(equivalent(r.locked, r.correct_key, original, {}));
  std::vector<bool> wrong(r.correct_key.size());
  for (std::size_t i = 0; i < wrong.size(); ++i) wrong[i] = !r.correct_key[i];
  EXPECT_FALSE(equivalent(r.locked, wrong, original, {}));
}

TEST(CircuitBdd, CorruptionRateZeroIffCorrectKey) {
  const auto original = circuit::c17();
  const auto sel =
      locking::select_gates(original, 2, locking::SelectionPolicy::Random, 5);
  const auto r = locking::xor_lock(original, sel);
  EXPECT_DOUBLE_EQ(corruption_rate(r.locked, r.correct_key, original), 0.0);
  std::vector<bool> wrong = r.correct_key;
  wrong[0] = !wrong[0];
  const double rate = corruption_rate(r.locked, wrong, original);
  EXPECT_GT(rate, 0.0);
  EXPECT_LE(rate, 1.0);
}

TEST(CircuitBdd, CorruptionRateMatchesExhaustiveSimulation) {
  const auto original = circuit::c17();
  const auto sel =
      locking::select_gates(original, 3, locking::SelectionPolicy::Random, 7);
  const auto r = locking::lut_lock(original, sel, 7);
  std::vector<bool> wrong = r.correct_key;
  for (std::size_t i = 0; i < wrong.size(); i += 2) wrong[i] = !wrong[i];

  const double bdd_rate = corruption_rate(r.locked, wrong, original);

  circuit::Simulator locked_sim(r.locked);
  circuit::Simulator orig_sim(original);
  int differing = 0;
  for (unsigned p = 0; p < 32; ++p) {
    std::vector<bool> in(5);
    for (int b = 0; b < 5; ++b) in[b] = (p >> b) & 1u;
    if (locked_sim.eval(in, wrong) != orig_sim.eval(in)) ++differing;
  }
  EXPECT_DOUBLE_EQ(bdd_rate, differing / 32.0);
}

TEST(CircuitBdd, FindDifferenceProducesARealWitness) {
  const auto original = circuit::c17();
  const auto sel =
      locking::select_gates(original, 2, locking::SelectionPolicy::Random, 9);
  const auto r = locking::xor_lock(original, sel);
  EXPECT_FALSE(find_difference(r.locked, r.correct_key, original).has_value());
  std::vector<bool> wrong = r.correct_key;
  wrong[0] = !wrong[0];
  const auto witness = find_difference(r.locked, wrong, original);
  ASSERT_TRUE(witness.has_value());
  circuit::Simulator locked_sim(r.locked);
  circuit::Simulator orig_sim(original);
  EXPECT_NE(locked_sim.eval(*witness, wrong), orig_sim.eval(*witness));
}

class BddVsSimulator : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BddVsSimulator, RandomCircuitsAgreeOnRandomPatterns) {
  circuit::GeneratorSpec spec;
  spec.num_inputs = 10;
  spec.num_outputs = 4;
  spec.num_gates = 40;
  spec.seed = GetParam();
  const auto nl = circuit::generate_circuit(spec, "bddgen");
  Manager m(nl.num_inputs());
  const auto outs = build_outputs(m, nl);
  circuit::Simulator sim(nl);
  Rng rng(GetParam() + 99);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<bool> in(10);
    for (auto&& b : in) b = rng.bernoulli(0.5);
    const auto expected = sim.eval(in);
    for (std::size_t o = 0; o < expected.size(); ++o) {
      EXPECT_EQ(m.eval(outs[o], in), expected[o]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BddVsSimulator, ::testing::Values(1u, 2u, 3u, 4u));

}  // namespace
}  // namespace ic::bdd
