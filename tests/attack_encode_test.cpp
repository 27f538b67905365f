#include <gtest/gtest.h>

#include "ic/attack/encode.hpp"
#include "ic/circuit/generator.hpp"
#include "ic/circuit/library.hpp"
#include "ic/circuit/simulator.hpp"
#include "ic/locking/lut_lock.hpp"
#include "ic/locking/policy.hpp"
#include "ic/support/rng.hpp"

namespace ic::attack {
namespace {

using circuit::GateId;
using circuit::Netlist;
using sat::Lit;
using sat::Result;
using sat::Solver;
using sat::Var;

/// Assert that the CNF encoding of `nl` agrees with the simulator on
/// `trials` random (input, key) patterns: fix sources with unit assumptions
/// and check the forced output values.
void check_encoding(const Netlist& nl, std::uint64_t seed, int trials) {
  Solver solver;
  const CircuitEncoding enc = encode_netlist(nl, solver);
  circuit::Simulator sim(nl);
  Rng rng(seed);
  for (int t = 0; t < trials; ++t) {
    std::vector<bool> inputs(nl.num_inputs());
    std::vector<bool> keys(nl.num_keys());
    for (std::size_t i = 0; i < inputs.size(); ++i) inputs[i] = rng.bernoulli(0.5);
    for (std::size_t i = 0; i < keys.size(); ++i) keys[i] = rng.bernoulli(0.5);
    std::vector<Lit> assumptions;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      assumptions.emplace_back(enc.input_vars[i], !inputs[i]);
    }
    for (std::size_t i = 0; i < keys.size(); ++i) {
      assumptions.emplace_back(enc.key_vars[i], !keys[i]);
    }
    ASSERT_EQ(solver.solve(assumptions), Result::Sat) << "trial " << t;
    const auto expected = sim.eval(inputs, keys);
    for (std::size_t o = 0; o < expected.size(); ++o) {
      EXPECT_EQ(solver.model_value(enc.output_vars[o]), expected[o])
          << "trial " << t << " output " << o;
    }
  }
}

TEST(Encode, C17MatchesSimulatorExhaustively) {
  const Netlist nl = circuit::c17();
  Solver solver;
  const CircuitEncoding enc = encode_netlist(nl, solver);
  circuit::Simulator sim(nl);
  for (std::uint64_t p = 0; p < 32; ++p) {
    std::vector<bool> inputs(5);
    std::vector<Lit> assumptions;
    for (int b = 0; b < 5; ++b) {
      inputs[static_cast<std::size_t>(b)] = (p >> b) & 1u;
      assumptions.emplace_back(enc.input_vars[static_cast<std::size_t>(b)],
                               !inputs[static_cast<std::size_t>(b)]);
    }
    ASSERT_EQ(solver.solve(assumptions), Result::Sat);
    const auto expected = sim.eval(inputs);
    for (std::size_t o = 0; o < expected.size(); ++o) {
      EXPECT_EQ(solver.model_value(enc.output_vars[o]), expected[o]);
    }
  }
}

TEST(Encode, EveryGateKindCircuit) {
  // A hand-built circuit exercising every encodable gate kind.
  Netlist nl("zoo");
  using circuit::GateKind;
  const auto a = nl.add_input("a");
  const auto b = nl.add_input("b");
  const auto c = nl.add_input("c");
  const auto g1 = nl.add_gate(GateKind::And, {a, b, c}, "g1");
  const auto g2 = nl.add_gate(GateKind::Nand, {a, b}, "g2");
  const auto g3 = nl.add_gate(GateKind::Or, {g1, g2}, "g3");
  const auto g4 = nl.add_gate(GateKind::Nor, {g2, c}, "g4");
  const auto g5 = nl.add_gate(GateKind::Xor, {g3, g4, a}, "g5");
  const auto g6 = nl.add_gate(GateKind::Xnor, {g5, b}, "g6");
  const auto g7 = nl.add_gate(GateKind::Not, {g6}, "g7");
  const auto g8 = nl.add_gate(GateKind::Buf, {g7}, "g8");
  const auto g9 = nl.add_fixed_lut({a, b, c}, circuit::gate_truth_table(GateKind::Or, 3), "g9");
  nl.mark_output(g8);
  nl.mark_output(g9);
  check_encoding(nl, 11, 16);
}

TEST(Encode, KeyLutEncoding) {
  const Netlist original = circuit::c17();
  const auto sel = locking::select_gates(original, 3,
                                         locking::SelectionPolicy::Random, 21);
  const auto locked = locking::lut_lock(original, sel);
  check_encoding(locked.locked, 22, 24);
}

class EncodeSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EncodeSweep, RandomCircuitsMatchSimulator) {
  circuit::GeneratorSpec spec;
  spec.num_inputs = 12;
  spec.num_outputs = 6;
  spec.num_gates = 80;
  spec.seed = GetParam();
  const Netlist nl = circuit::generate_circuit(spec, "enc");
  check_encoding(nl, GetParam() * 31 + 7, 12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EncodeSweep, ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u));

TEST(Encode, SharedInputsTieTwoCopiesTogether) {
  const Netlist nl = circuit::c17();
  Solver solver;
  const CircuitEncoding enc1 = encode_netlist(nl, solver);
  std::vector<Var> shared(nl.size(), sat::kNoVar);
  for (GateId id : nl.primary_inputs()) shared[id] = enc1.gate_vars[id];
  const CircuitEncoding enc2 = encode_netlist(nl, solver, shared);
  EXPECT_EQ(enc2.input_vars, enc1.input_vars);
  // Two copies of a deterministic circuit with shared inputs can never
  // produce different outputs: the miter over them is UNSAT.
  const Var act = solver.new_var();
  std::vector<Lit> any = output_diffs(solver, enc1.output_vars, enc2.output_vars);
  ASSERT_EQ(any.size(), nl.num_outputs());
  any.push_back(sat::neg(act));
  solver.add_clause(any);
  EXPECT_EQ(solver.solve({sat::pos(act)}), Result::Unsat);
  EXPECT_EQ(solver.solve({sat::neg(act)}), Result::Sat);
}

TEST(Encode, OutputDiffIsTheXorOfItsPair) {
  Solver solver;
  const Var a = solver.new_var();
  const Var b = solver.new_var();
  const std::vector<Lit> d = output_diffs(solver, {a, b}, {b, a});
  ASSERT_EQ(d.size(), 2u);
  for (int m = 0; m < 4; ++m) {
    const bool va = m & 1;
    const bool vb = m & 2;
    ASSERT_EQ(solver.solve({Lit(a, !va), Lit(b, !vb)}), Result::Sat);
    EXPECT_EQ(solver.model_value(d[0].var()), va != vb) << m;
    EXPECT_EQ(solver.model_value(d[1].var()), va != vb) << m;
  }
}

TEST(Encode, ShapeMismatchOnSharedVectorsRejected) {
  const Netlist nl = circuit::c17();
  Solver solver;
  // c17 has 11 gates; a vector of 2 is neither empty nor one per gate.
  EXPECT_THROW(encode_netlist(nl, solver, {0, 1}), std::logic_error);
}

}  // namespace
}  // namespace ic::attack

// ---- cone-of-influence reduction paths -------------------------------------

namespace ic::attack {
namespace {

TEST(EncodeConeReduction, FixedValuesFoldToConstants) {
  const Netlist nl = circuit::c17();
  circuit::Simulator sim(nl);
  Solver solver;
  const Var ct = solver.new_var();
  const Var cf = solver.new_var();
  solver.add_clause({sat::pos(ct)});
  solver.add_clause({sat::neg(cf)});

  // Fix every gate to its simulated value for one pattern: the encoding
  // then emits no clauses and the outputs are the right constants.
  const std::vector<bool> in{true, false, true, true, false};
  const auto values = sim.eval_all(in);
  std::vector<Var> fixed(nl.size());
  for (std::size_t g = 0; g < nl.size(); ++g) fixed[g] = values[g] ? ct : cf;
  const std::size_t vars_before = solver.num_vars();
  const std::size_t clauses_before = solver.num_clauses();
  const CircuitEncoding enc = encode_netlist(nl, solver, fixed);
  EXPECT_EQ(solver.num_vars(), vars_before);
  EXPECT_EQ(solver.num_clauses(), clauses_before);
  ASSERT_EQ(solver.solve(), Result::Sat);
  const auto expected = sim.eval(in);
  for (std::size_t o = 0; o < expected.size(); ++o) {
    EXPECT_EQ(solver.model_value(enc.output_vars[o]), expected[o]);
  }
}

TEST(EncodeConeReduction, PartialFixingStillMatchesSimulator) {
  // Fix only the primary inputs; the rest is encoded and must propagate to
  // the simulated outputs.
  const Netlist nl = circuit::c17();
  circuit::Simulator sim(nl);
  Rng rng(31);
  for (int trial = 0; trial < 8; ++trial) {
    Solver solver;
    const Var ct = solver.new_var();
    const Var cf = solver.new_var();
    solver.add_clause({sat::pos(ct)});
    solver.add_clause({sat::neg(cf)});
    std::vector<bool> in(5);
    for (auto&& b : in) b = rng.bernoulli(0.5);
    std::vector<Var> fixed(nl.size(), sat::kNoVar);
    for (std::size_t i = 0; i < 5; ++i) {
      fixed[nl.primary_inputs()[i]] = in[i] ? ct : cf;
    }
    const CircuitEncoding enc = encode_netlist(nl, solver, fixed);
    ASSERT_EQ(solver.solve(), Result::Sat);
    const auto expected = sim.eval(in);
    for (std::size_t o = 0; o < expected.size(); ++o) {
      EXPECT_EQ(solver.model_value(enc.output_vars[o]), expected[o]) << trial;
    }
  }
}

TEST(EncodeConeReduction, PreassignedGatesTakeTheOtherCopysVariables) {
  const Netlist nl = circuit::c17();
  Solver solver;
  const CircuitEncoding enc1 = encode_netlist(nl, solver);
  const std::size_t vars_before = solver.num_vars();
  const std::size_t clauses_before = solver.num_clauses();
  const CircuitEncoding enc2 = encode_netlist(nl, solver, enc1.gate_vars);
  EXPECT_EQ(solver.num_vars(), vars_before);  // nothing new allocated
  EXPECT_EQ(solver.num_clauses(), clauses_before);
  EXPECT_EQ(enc2.gate_vars, enc1.gate_vars);
}

/// Gates that can depend on the key: key inputs, key-programmed LUTs, and
/// everything downstream of them (the attack's cone of influence).
std::vector<bool> key_cone(const Netlist& nl) {
  std::vector<bool> cone(nl.size(), false);
  for (GateId id : nl.topological_order()) {
    const circuit::Gate& g = nl.gate(id);
    cone[id] = g.kind == circuit::GateKind::KeyInput ||
               (g.kind == circuit::GateKind::Lut && g.key_base >= 0);
    for (GateId f : g.fanins) cone[id] = cone[id] || cone[f];
  }
  return cone;
}

TEST(EncodeConeReduction, DipCopyEncodesOnlyTheKeyCone) {
  // The SAT attack's per-DIP copy of a LUT-locked circuit: keys shared with
  // another copy, every gate outside the key cone pre-assigned the constant
  // the simulator gives it under the DIP, and only the cone encoded.
  circuit::GeneratorSpec spec;
  spec.num_inputs = 12;
  spec.num_outputs = 6;
  spec.num_gates = 90;
  spec.seed = 23;
  const Netlist original = circuit::generate_circuit(spec, "dip");
  const auto sel =
      locking::select_gates(original, 6, locking::SelectionPolicy::Random, 6);
  const Netlist nl = locking::lut_lock(original, sel).locked;
  const std::vector<bool> cone = key_cone(nl);
  circuit::Simulator sim(nl);
  Rng rng(41);
  for (int trial = 0; trial < 8; ++trial) {
    Solver solver;
    const Var ct = solver.new_var();
    const Var cf = solver.new_var();
    solver.add_clause({sat::pos(ct)});
    solver.add_clause({sat::neg(cf)});
    const CircuitEncoding miter_copy = encode_netlist(nl, solver);

    std::vector<bool> dip(nl.num_inputs());
    std::vector<bool> key(nl.num_keys());
    for (auto&& b : dip) b = rng.bernoulli(0.5);
    for (auto&& b : key) b = rng.bernoulli(0.5);
    const auto values = sim.eval_all(dip, key);
    std::vector<Var> vars(nl.size(), sat::kNoVar);
    std::size_t fresh = 0;  // variables the cone needs
    std::size_t cone_gates = 0;
    for (GateId g = 0; g < nl.size(); ++g) {
      const circuit::Gate& gate = nl.gate(g);
      if (!cone[g]) {
        vars[g] = values[g] ? ct : cf;
      } else if (gate.kind == circuit::GateKind::KeyInput) {
        vars[g] = miter_copy.gate_vars[g];
      } else {
        ++cone_gates;
        const bool xor_fold = gate.kind == circuit::GateKind::Xor ||
                              gate.kind == circuit::GateKind::Xnor;
        fresh += xor_fold ? gate.fanins.size() - 1 : 1;
      }
    }
    ASSERT_GT(cone_gates, 0u);
    ASSERT_LT(cone_gates, nl.num_logic_gates());

    const std::size_t vars_before = solver.num_vars();
    const CircuitEncoding enc = encode_netlist(nl, solver, vars);
    EXPECT_EQ(solver.num_vars() - vars_before, fresh) << trial;
    for (GateId g = 0; g < nl.size(); ++g) {
      if (vars[g] != sat::kNoVar) {
        EXPECT_EQ(enc.gate_vars[g], vars[g]);
      }
    }
    EXPECT_EQ(enc.key_vars, miter_copy.key_vars);

    // Under the key, the copy computes what the simulator does.
    std::vector<Lit> assumptions;
    for (std::size_t i = 0; i < key.size(); ++i) {
      assumptions.emplace_back(enc.key_vars[i], !key[i]);
    }
    ASSERT_EQ(solver.solve(assumptions), Result::Sat) << trial;
    const auto expected = sim.eval(dip, key);
    for (std::size_t o = 0; o < expected.size(); ++o) {
      EXPECT_EQ(solver.model_value(enc.output_vars[o]), expected[o])
          << "trial " << trial << " output " << o;
    }
  }
}

}  // namespace
}  // namespace ic::attack
