// LUT-based logic obfuscation (the scheme the paper's datasets use).
//
// Each selected gate is replaced in place by a key-programmable LUT over the
// same fanins, padded with extra "camouflage" fanins up to kLutSize = 4 (the
// paper's k). The LUT's 2^k truth bits become fresh key inputs; the correct
// key programs the original gate function into the LUT (don't-care addresses
// over padded inputs replicate the function so the pad pins are logically
// inert under the correct key).
#pragma once

#include <cstdint>
#include <vector>

#include "ic/circuit/netlist.hpp"

namespace ic::locking {

struct LutLockResult {
  circuit::Netlist locked;          ///< netlist with key inputs and key LUTs
  std::vector<bool> correct_key;    ///< key restoring the original function
  std::vector<circuit::GateId> locked_gates;  ///< ids (in `locked`) of replaced gates
};

/// LUT input count; selected gates with more fanins keep their own arity.
inline constexpr std::size_t kLutSize = 4;

/// Entry g is gate g's index in `order`, a topological order of the circuit:
/// the number of gates that precede g, which lut_lock draws g's pads from.
std::vector<std::size_t> topological_positions(
    const std::vector<circuit::GateId>& order);

/// Inputs of the LUT lut_lock puts in place of `gate`, which sits at
/// topological position `position`: its own fanins, padded toward kLutSize
/// with distinct gates that precede it. A gate with too few predecessors
/// gets a narrower LUT. The LUT adds 2^lut_inputs key bits.
std::size_t lut_inputs(const circuit::Gate& gate, std::size_t position);

/// Replace `gates` (ids into `original`) with key-programmed LUTs; `seed`
/// chooses the camouflage pad fanins. Preconditions: every id refers to a
/// logic gate (not a source), no duplicates. The returned netlist preserves
/// gate ids of `original`.
LutLockResult lut_lock(const circuit::Netlist& original,
                       const std::vector<circuit::GateId>& gates,
                       std::uint64_t seed = 1);

}  // namespace ic::locking
