#include "ic/locking/lut_lock.hpp"

#include <algorithm>
#include <unordered_set>

#include "ic/support/assert.hpp"
#include "ic/support/rng.hpp"

namespace ic::locking {

using circuit::Gate;
using circuit::GateId;
using circuit::GateKind;
using circuit::Netlist;

std::vector<std::size_t> topological_positions(
    const std::vector<GateId>& order) {
  std::vector<std::size_t> position(order.size());
  for (std::size_t i = 0; i < order.size(); ++i) position[order[i]] = i;
  return position;
}

std::size_t lut_inputs(const Gate& gate, std::size_t position) {
  const std::size_t base = gate.fanins.size();
  if (base >= kLutSize) return base;
  // Every fanin precedes the gate, so the pad candidates are the other
  // `position - distinct fanins` predecessors.
  const auto& fanins = gate.fanins;
  std::size_t distinct = 0;
  for (auto it = fanins.begin(); it != fanins.end(); ++it) {
    if (std::find(fanins.begin(), it, *it) == it) ++distinct;
  }
  return base + std::min(kLutSize - base, position - distinct);
}

LutLockResult lut_lock(const Netlist& original,
                       const std::vector<GateId>& gates,
                       std::uint64_t seed) {
  LutLockResult result;
  result.locked = original;
  Netlist& nl = result.locked;
  Rng rng(seed);

  std::unordered_set<GateId> selected(gates.begin(), gates.end());
  IC_ASSERT_MSG(selected.size() == gates.size(), "duplicate gates in selection");

  // Topological position of every gate: pads may only be drawn from strict
  // topological predecessors (or unrelated earlier gates), which can never
  // create a cycle.
  const auto order = original.topological_order();
  const auto topo_pos = topological_positions(order);

  for (GateId id : gates) {
    const Gate& g = original.gate(id);
    IC_ASSERT_MSG(circuit::is_logic(g.kind),
                  "cannot lock source gate '" << g.name << "'");
    IC_ASSERT_MSG(g.kind != GateKind::Lut || g.key_base < 0,
                  "gate '" << g.name << "' is already key-locked");

    std::vector<GateId> fanins = g.fanins;
    const std::size_t base_arity = fanins.size();
    const std::size_t arity = lut_inputs(g, topo_pos[id]);

    // Pad with camouflage fanins drawn from topological predecessors.
    if (base_arity < arity) {
      std::vector<GateId> candidates;
      for (GateId cand : order) {
        if (topo_pos[cand] >= topo_pos[id]) break;
        if (std::find(fanins.begin(), fanins.end(), cand) != fanins.end()) continue;
        candidates.push_back(cand);
      }
      rng.shuffle(candidates);
      IC_ASSERT(candidates.size() >= arity - base_arity);
      candidates.resize(arity - base_arity);
      fanins.insert(fanins.end(), candidates.begin(), candidates.end());
    }
    const std::size_t bits = std::size_t{1} << arity;

    // Correct key = the original function replicated across pad addresses.
    std::vector<bool> base_truth;
    if (g.kind == GateKind::Lut) {
      base_truth = g.lut_truth;  // fixed-function LUT
    } else {
      base_truth = circuit::gate_truth_table(g.kind, static_cast<int>(base_arity));
    }
    const std::size_t key_base = nl.num_keys();
    for (std::size_t b = 0; b < bits; ++b) {
      nl.add_key_input("keyinput" + std::to_string(key_base + b));
      result.correct_key.push_back(base_truth[b & ((std::size_t{1} << base_arity) - 1)]);
    }
    nl.replace_with_key_lut(id, static_cast<std::int32_t>(key_base),
                            std::move(fanins));
    result.locked_gates.push_back(id);
  }

  nl.set_name(original.name() + "_lut" + std::to_string(kLutSize) + "x" +
              std::to_string(gates.size()));
  nl.validate();
  IC_ASSERT(result.correct_key.size() == nl.num_keys());
  return result;
}

}  // namespace ic::locking
