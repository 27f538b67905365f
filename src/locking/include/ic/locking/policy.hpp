// Gate-selection policies for obfuscation.
//
// The paper's datasets pick gates uniformly at random; the fanout-weighted
// draw favours hubs (`icnet_cli lock` picks the Anti-SAT flip wire with it).
#pragma once

#include <cstdint>
#include <vector>

#include "ic/circuit/netlist.hpp"

namespace ic::locking {

enum class SelectionPolicy {
  Random,          ///< uniform over lockable logic gates (paper §IV.A)
  FanoutWeighted,  ///< probability ∝ 1 + fanout (hubs are likelier)
};

/// Pick `count` distinct lockable gates from `netlist`. Lockable gates are
/// logic gates that are not already key-programmed LUTs. Throws if fewer
/// than `count` lockable gates exist.
std::vector<circuit::GateId> select_gates(const circuit::Netlist& netlist,
                                          std::size_t count,
                                          SelectionPolicy policy,
                                          std::uint64_t seed);

/// All lockable gate ids, in id order.
std::vector<circuit::GateId> lockable_gates(const circuit::Netlist& netlist);

}  // namespace ic::locking
