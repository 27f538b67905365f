#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>

#include "ic/circuit/netlist.hpp"
#include "ic/locking/lut_lock.hpp"

namespace ic::circuit {
namespace {

Netlist tiny() {
  Netlist nl("tiny");
  const GateId a = nl.add_input("a");
  const GateId b = nl.add_input("b");
  const GateId g1 = nl.add_gate(GateKind::And, {a, b}, "g1");
  const GateId g2 = nl.add_gate(GateKind::Not, {g1}, "g2");
  nl.mark_output(g2);
  return nl;
}

TEST(Netlist, BasicConstructionAndCounts) {
  const Netlist nl = tiny();
  EXPECT_EQ(nl.size(), 4u);
  EXPECT_EQ(nl.num_inputs(), 2u);
  EXPECT_EQ(nl.num_outputs(), 1u);
  EXPECT_EQ(nl.num_keys(), 0u);
  EXPECT_EQ(nl.num_logic_gates(), 2u);
  EXPECT_NO_THROW(nl.validate());
}

TEST(Netlist, FindByName) {
  const Netlist nl = tiny();
  EXPECT_NE(nl.find("g1"), kNoGate);
  EXPECT_EQ(nl.gate(nl.find("g1")).kind, GateKind::And);
  EXPECT_EQ(nl.find("nope"), kNoGate);
}

TEST(Netlist, DuplicateNameRejected) {
  Netlist nl;
  nl.add_input("a");
  EXPECT_THROW(nl.add_input("a"), std::runtime_error);
}

TEST(Netlist, ArityContractsEnforced) {
  // Input errors, not contract violations: parsers pass add_gate what a file
  // says, and the message names the gate.
  Netlist nl;
  const GateId a = nl.add_input("a");
  const GateId b = nl.add_input("b");
  EXPECT_THROW(nl.add_gate(GateKind::And, {a}, "bad_and"), std::runtime_error);
  EXPECT_THROW(nl.add_gate(GateKind::Not, {a, b}, "bad_not"),
               std::runtime_error);
  try {
    nl.add_gate(GateKind::Input, {}, "bad_kind");
    ADD_FAILURE() << "add_gate accepted an INPUT kind";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("bad_kind"), std::string::npos)
        << e.what();
  }
}

TEST(Netlist, TopologicalOrderRespectsFanins) {
  const Netlist nl = tiny();
  const auto order = nl.topological_order();
  ASSERT_EQ(order.size(), nl.size());
  std::vector<std::size_t> pos(nl.size());
  for (std::size_t i = 0; i < order.size(); ++i) pos[order[i]] = i;
  for (GateId id = 0; id < nl.size(); ++id) {
    for (GateId f : nl.gate(id).fanins) EXPECT_LT(pos[f], pos[id]);
  }
}

TEST(Netlist, DepthsAreLongestPaths) {
  const Netlist nl = tiny();
  const auto depth = nl.depths();
  EXPECT_EQ(depth[nl.find("a")], 0);
  EXPECT_EQ(depth[nl.find("g1")], 1);
  EXPECT_EQ(depth[nl.find("g2")], 2);
}

TEST(Netlist, FanoutsInvertFanins) {
  const Netlist nl = tiny();
  const auto fo = nl.fanouts();
  const GateId a = nl.find("a");
  const GateId g1 = nl.find("g1");
  ASSERT_EQ(fo[a].size(), 1u);
  EXPECT_EQ(fo[a][0], g1);
  EXPECT_TRUE(fo[nl.find("g2")].empty());
}

TEST(Netlist, RewireFaninCreatesCycleDetectedByValidate) {
  Netlist nl = tiny();
  // g1's fanin a -> g2 creates the cycle g1 -> g2 -> g1.
  nl.rewire_fanin(nl.find("g1"), nl.find("a"), nl.find("g2"));
  EXPECT_THROW(nl.topological_order(), std::runtime_error);
  EXPECT_THROW(nl.validate(), std::runtime_error);
}

TEST(Netlist, KeyLutReplacementKeepsIdAndName) {
  Netlist nl = tiny();
  const GateId g1 = nl.find("g1");
  for (int i = 0; i < 4; ++i) nl.add_key_input("keyinput" + std::to_string(i));
  nl.replace_with_key_lut(g1, 0);
  EXPECT_EQ(nl.find("g1"), g1);
  EXPECT_EQ(nl.gate(g1).kind, GateKind::Lut);
  EXPECT_EQ(nl.gate(g1).key_base, 0);
  EXPECT_NO_THROW(nl.validate());
}

TEST(Netlist, KeyLutRangeChecked) {
  Netlist nl = tiny();
  nl.add_key_input("keyinput0");  // only 1 key bit, LUT-2 needs 4
  EXPECT_THROW(nl.replace_with_key_lut(nl.find("g1"), 0), std::logic_error);
}

TEST(Netlist, FixedLutValidation) {
  Netlist nl;
  const GateId a = nl.add_input("a");
  const GateId b = nl.add_input("b");
  const GateId l = nl.add_fixed_lut({a, b}, {false, true, true, false}, "x");
  nl.mark_output(l);
  EXPECT_NO_THROW(nl.validate());
  EXPECT_THROW(nl.add_fixed_lut({a, b}, {true}, "short"), std::logic_error);
}

TEST(Netlist, ValidateRejectsNoOutputs) {
  Netlist nl;
  nl.add_input("a");
  EXPECT_THROW(nl.validate(), std::runtime_error);
}

TEST(Netlist, MarkOutputIsIdempotent) {
  Netlist nl = tiny();
  nl.mark_output(nl.find("g2"));
  EXPECT_EQ(nl.num_outputs(), 1u);
}

TEST(Netlist, ReplaceOutput) {
  Netlist nl = tiny();
  nl.replace_output(nl.find("g2"), nl.find("g1"));
  EXPECT_EQ(nl.outputs()[0], nl.find("g1"));
  EXPECT_THROW(nl.replace_output(nl.find("g2"), nl.find("g1")), std::logic_error);
}

TEST(Netlist, KindHistogramCountsEveryGate) {
  const Netlist nl = tiny();
  const auto hist = nl.kind_histogram();
  EXPECT_EQ(hist[static_cast<int>(GateKind::Input)], 2u);
  EXPECT_EQ(hist[static_cast<int>(GateKind::And)], 1u);
  EXPECT_EQ(hist[static_cast<int>(GateKind::Not)], 1u);
  std::size_t total = 0;
  for (auto c : hist) total += c;
  EXPECT_EQ(total, nl.size());
}

TEST(Netlist, KeyInputOrderMatchesKeyBase) {
  Netlist nl;
  for (int i = 0; i < 5; ++i) nl.add_key_input("keyinput" + std::to_string(i));
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(nl.gate(nl.key_inputs()[i]).key_base, static_cast<std::int32_t>(i));
  }
}

// Dataset labelling locks and attacks one const circuit from every worker,
// so reading a netlist must write nothing shared. The netlist is fresh
// (never validated or sorted) when the threads start; the tsan CI job runs
// this test under ThreadSanitizer.
TEST(Netlist, ConcurrentReadersOfAFreshNetlistAgree) {
  const auto build = [] {
    Netlist nl("shared");
    std::vector<GateId> pool;
    for (int i = 0; i < 6; ++i) pool.push_back(nl.add_input(std::to_string(i)));
    const GateKind kinds[] = {GateKind::And, GateKind::Or, GateKind::Xor,
                              GateKind::Nand};
    for (std::size_t i = 0; i < 40; ++i) {
      pool.push_back(nl.add_gate(kinds[i % 4], {pool[i], pool[i + 5]},
                                 std::to_string(6 + i)));
    }
    nl.mark_output(pool.back());
    nl.mark_output(pool[pool.size() - 3]);
    return nl;
  };
  const std::vector<GateId> selection{10, 25, 40};
  const Netlist reference = build();
  const auto expected_order = reference.topological_order();
  const auto expected_key = locking::lut_lock(reference, selection).correct_key;

  const Netlist shared = build();
  constexpr int kThreads = 4;
  std::vector<std::vector<GateId>> orders(kThreads);
  std::vector<std::vector<bool>> keys(kThreads);
  std::atomic<int> arrived{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      arrived.fetch_add(1);
      while (arrived.load() < kThreads) std::this_thread::yield();
      orders[t] = shared.topological_order();
      keys[t] = locking::lut_lock(shared, selection).correct_key;
    });
  }
  for (auto& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(orders[t], expected_order) << t;
    EXPECT_EQ(keys[t], expected_key) << t;
  }
}

}  // namespace
}  // namespace ic::circuit
