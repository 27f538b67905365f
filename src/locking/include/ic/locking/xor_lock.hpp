// XOR/XNOR key-gate insertion (EPIC-style logic locking) — the classic
// scheme the SAT attack was first demonstrated against. Included both as a
// second obfuscation backend for the estimator and as a baseline defence.
#pragma once

#include <cstdint>
#include <vector>

#include "ic/circuit/netlist.hpp"

namespace ic::locking {

struct XorLockResult {
  circuit::Netlist locked;
  std::vector<bool> correct_key;
  /// Ids (in `locked`) of the inserted key gates, one per selected gate.
  std::vector<circuit::GateId> key_gates;
};

/// Insert a key gate after each gate in `gates` (ids into `original`):
/// fanouts of g are rewired to XOR(g, key_i) or, with probability 1/2 drawn
/// from `seed`, XNOR(g, key_i) (correct key bit 1 rather than 0). Gate ids
/// of `original` remain valid in `locked`.
XorLockResult xor_lock(const circuit::Netlist& original,
                       const std::vector<circuit::GateId>& gates,
                       std::uint64_t seed = 1);

}  // namespace ic::locking
