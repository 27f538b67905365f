// Gate-feature encodings (§IV.B of the paper).
//
// Features are computed on the *original* circuit plus the selected gate
// set — the defender's view: the graph is the same for every obfuscation
// instance of a circuit, only the per-gate "encrypted" mask changes.
//
//   Location  — one column: gate mask (1 if the gate is selected).
//   All       — mask + one-hot gate type over {AND, NOR, NOT, NAND, OR, XOR}
//               (the paper's exact alphabet; XNOR/BUF/LUT map to their
//               nearest listed type, sources get all-zero type bits).
#pragma once

#include <vector>

#include "ic/circuit/netlist.hpp"
#include "ic/graph/matrix.hpp"

namespace ic::data {

enum class FeatureSet { Location, All };

/// Number of feature columns for a set.
std::size_t feature_width(FeatureSet set);

/// n×F feature matrix for one obfuscation instance.
graph::Matrix gate_features(const circuit::Netlist& circuit,
                            const std::vector<circuit::GateId>& selection,
                            FeatureSet set);

/// Column index of the gate-mask feature (always 0).
inline constexpr std::size_t kMaskColumn = 0;

}  // namespace ic::data
