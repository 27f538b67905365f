#include <gtest/gtest.h>

#include "ic/circuit/gate.hpp"

namespace ic::circuit {
namespace {

TEST(GateKindNames, RoundTrip) {
  for (int k = 0; k < kGateKindCount; ++k) {
    const auto kind = static_cast<GateKind>(k);
    EXPECT_EQ(gate_kind_from_name(gate_kind_name(kind)), kind);
  }
}

TEST(GateKindNames, CaseInsensitiveAndAliases) {
  EXPECT_EQ(gate_kind_from_name("nand"), GateKind::Nand);
  EXPECT_EQ(gate_kind_from_name("BUFF"), GateKind::Buf);
  EXPECT_EQ(gate_kind_from_name("inv"), GateKind::Not);
  EXPECT_THROW(gate_kind_from_name("FROB"), std::runtime_error);
}

TEST(GateEval, UnaryGates) {
  EXPECT_TRUE(eval_gate(GateKind::Buf, {true}));
  EXPECT_FALSE(eval_gate(GateKind::Buf, {false}));
  EXPECT_FALSE(eval_gate(GateKind::Not, {true}));
  EXPECT_TRUE(eval_gate(GateKind::Not, {false}));
}

struct TruthCase {
  GateKind kind;
  // expected outputs for (00, 01, 10, 11) — fanin order (a, b), a is lsb
  bool expect[4];
};

class TwoInputTruth : public ::testing::TestWithParam<TruthCase> {};

TEST_P(TwoInputTruth, MatchesTruthTable) {
  const auto& tc = GetParam();
  int i = 0;
  for (bool b : {false, true}) {
    for (bool a : {false, true}) {
      EXPECT_EQ(eval_gate(tc.kind, {a, b}), tc.expect[i])
          << gate_kind_name(tc.kind) << "(" << a << "," << b << ")";
      ++i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, TwoInputTruth,
    ::testing::Values(
        TruthCase{GateKind::And, {false, false, false, true}},
        TruthCase{GateKind::Nand, {true, true, true, false}},
        TruthCase{GateKind::Or, {false, true, true, true}},
        TruthCase{GateKind::Nor, {true, false, false, false}},
        TruthCase{GateKind::Xor, {false, true, true, false}},
        TruthCase{GateKind::Xnor, {true, false, false, true}}),
    [](const auto& info) {
      return std::string(gate_kind_name(info.param.kind));
    });

class WordConsistency : public ::testing::TestWithParam<GateKind> {};

TEST_P(WordConsistency, WordEvalMatchesScalarEvalOnThreeInputs) {
  const GateKind kind = GetParam();
  // Enumerate all 8 three-input patterns in one word per input.
  std::vector<std::uint64_t> words(3, 0);
  for (std::uint64_t p = 0; p < 8; ++p) {
    for (int b = 0; b < 3; ++b) {
      if ((p >> b) & 1u) words[static_cast<std::size_t>(b)] |= std::uint64_t{1} << p;
    }
  }
  const std::uint64_t out = eval_gate_words(kind, words);
  for (std::uint64_t p = 0; p < 8; ++p) {
    const std::vector<bool> bits{bool(p & 1), bool(p & 2), bool(p & 4)};
    EXPECT_EQ(bool((out >> p) & 1u), eval_gate(kind, bits))
        << gate_kind_name(kind) << " pattern " << p;
  }
}

INSTANTIATE_TEST_SUITE_P(MultiInput, WordConsistency,
                         ::testing::Values(GateKind::And, GateKind::Nand,
                                           GateKind::Or, GateKind::Nor,
                                           GateKind::Xor, GateKind::Xnor),
                         [](const auto& info) {
                           return std::string(gate_kind_name(info.param));
                         });

TEST(TruthTable, And2) {
  const auto t = gate_truth_table(GateKind::And, 2);
  ASSERT_EQ(t.size(), 4u);
  EXPECT_FALSE(t[0]);  // 00
  EXPECT_FALSE(t[1]);  // a=1,b=0
  EXPECT_FALSE(t[2]);  // a=0,b=1
  EXPECT_TRUE(t[3]);   // 11
}

TEST(TruthTable, Not1) {
  const auto t = gate_truth_table(GateKind::Not, 1);
  ASSERT_EQ(t.size(), 2u);
  EXPECT_TRUE(t[0]);
  EXPECT_FALSE(t[1]);
}

TEST(TruthTable, Xor3HasParityPattern) {
  const auto t = gate_truth_table(GateKind::Xor, 3);
  ASSERT_EQ(t.size(), 8u);
  for (std::size_t row = 0; row < 8; ++row) {
    EXPECT_EQ(t[row], (__builtin_popcountll(row) % 2) == 1);
  }
}

TEST(GateHelpers, LogicClassification) {
  EXPECT_FALSE(is_logic(GateKind::Input));
  EXPECT_FALSE(is_logic(GateKind::KeyInput));
  EXPECT_TRUE(is_logic(GateKind::Nand));
  EXPECT_TRUE(is_logic(GateKind::Lut));
}

}  // namespace
}  // namespace ic::circuit
