// Key resolution: turn a locked netlist plus a concrete key back into an
// ordinary key-free netlist (e.g. for Verilog export of an attack result,
// or to compare a recovered design against the original with standard CEC).
#pragma once

#include <vector>

#include "ic/circuit/netlist.hpp"

namespace ic::locking {

/// Substitute `key` into every key-programmed LUT and key input of `locked`,
/// producing a netlist with no key inputs. Key-programmed LUTs become
/// fixed-function LUTs; key inputs feeding ordinary gates (XOR locking,
/// Anti-SAT) are replaced by constant-folding the affected logic.
circuit::Netlist apply_key(const circuit::Netlist& locked,
                           const std::vector<bool>& key);

/// Decompose every fixed-function LUT into AND/OR/NOT gates (sum of
/// minterms); the result contains only standard gate primitives and can be
/// written as structural Verilog.
circuit::Netlist lut_to_gates(const circuit::Netlist& netlist);

}  // namespace ic::locking
