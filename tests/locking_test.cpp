#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "ic/circuit/generator.hpp"
#include "ic/circuit/library.hpp"
#include "ic/circuit/simulator.hpp"
#include "ic/locking/lut_lock.hpp"
#include "ic/locking/policy.hpp"
#include "ic/locking/xor_lock.hpp"
#include "ic/support/rng.hpp"

namespace ic::locking {
namespace {

using circuit::GateId;
using circuit::GateKind;
using circuit::Netlist;

TEST(Policy, LockableGatesExcludesSourcesAndKeyLuts) {
  Netlist nl = circuit::c17();
  auto lockable = lockable_gates(nl);
  EXPECT_EQ(lockable.size(), 6u);  // 6 NANDs
  // Lock one and recount.
  for (int i = 0; i < 4; ++i) nl.add_key_input("keyinput" + std::to_string(i));
  nl.replace_with_key_lut(lockable[0], 0);
  EXPECT_EQ(lockable_gates(nl).size(), 5u);
}

class PolicySweep : public ::testing::TestWithParam<SelectionPolicy> {};

TEST_P(PolicySweep, SelectsDistinctLockableGates) {
  const Netlist nl = circuit::c499_like();
  const auto sel = select_gates(nl, 20, GetParam(), 77);
  EXPECT_EQ(sel.size(), 20u);
  std::set<GateId> unique(sel.begin(), sel.end());
  EXPECT_EQ(unique.size(), 20u);
  const auto lockable = lockable_gates(nl);
  for (GateId id : sel) {
    EXPECT_TRUE(std::find(lockable.begin(), lockable.end(), id) != lockable.end());
  }
}

INSTANTIATE_TEST_SUITE_P(All, PolicySweep,
                         ::testing::Values(SelectionPolicy::Random,
                                           SelectionPolicy::FanoutWeighted),
                         [](const auto& info) {
                           switch (info.param) {
                             case SelectionPolicy::Random: return "Random";
                             case SelectionPolicy::FanoutWeighted: return "Fanout";
                           }
                           return "?";
                         });

TEST(Policy, SelectionIsDeterministicPerSeed) {
  const Netlist nl = circuit::c499_like();
  EXPECT_EQ(select_gates(nl, 10, SelectionPolicy::Random, 5),
            select_gates(nl, 10, SelectionPolicy::Random, 5));
  EXPECT_NE(select_gates(nl, 10, SelectionPolicy::Random, 5),
            select_gates(nl, 10, SelectionPolicy::Random, 6));
}

TEST(Policy, OverSelectionRejected) {
  const Netlist nl = circuit::c17();
  EXPECT_THROW(select_gates(nl, 7, SelectionPolicy::Random, 1),
               std::runtime_error);
}

TEST(LutLock, CorrectKeyPreservesFunction) {
  const Netlist original = circuit::c17();
  const auto sel = select_gates(original, 3, SelectionPolicy::Random, 9);
  const LutLockResult r = lut_lock(original, sel);
  EXPECT_EQ(r.locked.num_keys(), r.correct_key.size());
  EXPECT_EQ(r.locked_gates.size(), 3u);
  EXPECT_EQ(circuit::count_output_mismatches(r.locked, r.correct_key, original,
                                             {}, 32, 1),
            0u);
}

TEST(LutLock, LutSizeFourMeansSixteenKeyBitsPerGate) {
  const Netlist original = circuit::c499_like();
  const auto sel = select_gates(original, 5, SelectionPolicy::Random, 2);
  const LutLockResult r = lut_lock(original, sel);
  // c499-like gates have 2..4 fanins; LUT-4 padding gives 16 key bits each
  // when enough predecessors exist (they do in a 200-gate circuit).
  EXPECT_EQ(r.locked.num_keys(), 5u * 16u);
}

TEST(LutLock, WrongKeyChangesFunctionWithHighProbability) {
  const Netlist original = circuit::c499_like();
  const auto sel = select_gates(original, 8, SelectionPolicy::Random, 3);
  const LutLockResult r = lut_lock(original, sel);
  // Flip every key bit: every LUT then computes the complement function.
  std::vector<bool> wrong(r.correct_key.size());
  for (std::size_t i = 0; i < wrong.size(); ++i) wrong[i] = !r.correct_key[i];
  const std::size_t mismatches = circuit::count_output_mismatches(
      r.locked, wrong, original, {}, 32, 2);
  EXPECT_GT(mismatches, 0u);
}

TEST(LutLock, PaddedLutsPreserveFunction) {
  const Netlist original = circuit::c499_like();
  const auto sel = select_gates(original, 6, SelectionPolicy::Random, 4);
  const LutLockResult r = lut_lock(original, sel);
  EXPECT_EQ(circuit::count_output_mismatches(r.locked, r.correct_key, original,
                                             {}, 16, 5),
            0u);
  EXPECT_NO_THROW(r.locked.validate());
}

TEST(LutLock, GateIdsPreserved) {
  const Netlist original = circuit::c17();
  const auto sel = select_gates(original, 2, SelectionPolicy::Random, 6);
  const LutLockResult r = lut_lock(original, sel);
  for (GateId id : sel) {
    EXPECT_EQ(r.locked.gate(id).name, original.gate(id).name);
    EXPECT_EQ(r.locked.gate(id).kind, GateKind::Lut);
  }
}

TEST(LutLock, DuplicateSelectionRejected) {
  const Netlist original = circuit::c17();
  const auto sel = select_gates(original, 1, SelectionPolicy::Random, 7);
  std::vector<GateId> dup{sel[0], sel[0]};
  EXPECT_THROW(lut_lock(original, dup), std::logic_error);
}

TEST(XorLock, CorrectKeyPreservesFunction) {
  const Netlist original = circuit::c499_like();
  const auto sel = select_gates(original, 12, SelectionPolicy::Random, 8);
  const XorLockResult r = xor_lock(original, sel);
  EXPECT_EQ(r.locked.num_keys(), 12u);
  EXPECT_EQ(circuit::count_output_mismatches(r.locked, r.correct_key, original,
                                             {}, 32, 9),
            0u);
}

TEST(XorLock, FlippedKeyBitInvertsDownstream) {
  const Netlist original = circuit::c17();
  const auto sel = select_gates(original, 1, SelectionPolicy::Random, 10);
  const XorLockResult r = xor_lock(original, sel);
  auto wrong = r.correct_key;
  wrong[0] = !wrong[0];
  EXPECT_GT(circuit::count_output_mismatches(r.locked, wrong, original, {}, 32, 11),
            0u);
}

TEST(XorLock, MixesXorAndXnorKeyGates) {
  const Netlist original = circuit::c499_like();
  const auto sel = select_gates(original, 30, SelectionPolicy::Random, 12);
  const XorLockResult r = xor_lock(original, sel, 13);
  std::size_t xnor = 0;
  for (GateId kg : r.key_gates) {
    if (r.locked.gate(kg).kind == GateKind::Xnor) ++xnor;
  }
  EXPECT_GT(xnor, 0u);
  EXPECT_LT(xnor, 30u);
}

TEST(XorLock, OutputGateLockingRedirectsOutput) {
  Netlist nl("out");
  const GateId a = nl.add_input("a");
  const GateId b = nl.add_input("b");
  const GateId g = nl.add_gate(GateKind::And, {a, b}, "g");
  nl.mark_output(g);
  const XorLockResult r = xor_lock(nl, {g});
  EXPECT_EQ(circuit::count_output_mismatches(r.locked, r.correct_key, nl, {}, 8, 14),
            0u);
  // The primary output must now be the key gate, not the bare AND.
  EXPECT_NE(r.locked.outputs()[0], g);
}

}  // namespace
}  // namespace ic::locking
