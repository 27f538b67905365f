#include "ic/locking/xor_lock.hpp"

#include <unordered_set>

#include "ic/support/assert.hpp"
#include "ic/support/rng.hpp"

namespace ic::locking {

using circuit::GateId;
using circuit::GateKind;
using circuit::Netlist;

namespace {

/// Probability that an inserted key gate is XNOR rather than XOR.
constexpr double kXnorFraction = 0.5;

}  // namespace

XorLockResult xor_lock(const Netlist& original,
                       const std::vector<GateId>& gates,
                       std::uint64_t seed) {
  XorLockResult result;
  result.locked = original;
  Netlist& nl = result.locked;
  Rng rng(seed);

  std::unordered_set<GateId> selected(gates.begin(), gates.end());
  IC_ASSERT_MSG(selected.size() == gates.size(), "duplicate gates in selection");

  for (GateId id : gates) {
    IC_ASSERT_MSG(circuit::is_logic(nl.gate(id).kind) ||
                      nl.gate(id).kind == GateKind::Input,
                  "cannot key-lock gate " << id);
    const bool use_xnor = rng.bernoulli(kXnorFraction);
    const std::size_t key_index = nl.num_keys();
    const GateId key = nl.add_key_input("keyinput" + std::to_string(key_index));
    result.correct_key.push_back(use_xnor);

    // Snapshot fanouts of the original signal *before* inserting the key
    // gate, then rewire them all to the key gate's output.
    const std::vector<GateId> sinks = nl.fanouts()[id];
    const GateId kg = nl.add_gate(use_xnor ? GateKind::Xnor : GateKind::Xor,
                                  {id, key},
                                  nl.gate(id).name + "_keyed");
    for (GateId sink : sinks) {
      // A sink may read the signal on several pins; rewire each occurrence.
      while (true) {
        const auto& fanins = nl.gate(sink).fanins;
        bool found = false;
        for (GateId f : fanins) {
          if (f == id) { found = true; break; }
        }
        if (!found) break;
        nl.rewire_fanin(sink, id, kg);
      }
    }
    // If the locked signal fed a primary output, the key gate takes over.
    for (GateId out : nl.outputs()) {
      if (out == id) nl.replace_output(id, kg);
    }
    result.key_gates.push_back(kg);
  }

  nl.set_name(original.name() + "_xor" + std::to_string(gates.size()));
  nl.validate();
  return result;
}

}  // namespace ic::locking
