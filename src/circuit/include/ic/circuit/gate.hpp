// Gate model for combinational gate-level netlists.
//
// The gate alphabet is the ISCAS-85 alphabet ({AND, NAND, OR, NOR, XOR, XNOR,
// NOT, BUF}) plus the structural kinds needed for logic locking: primary
// inputs, key inputs, and key-programmable LUTs.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace ic::circuit {

/// Index of a gate inside its Netlist. Stable across the netlist's lifetime.
using GateId = std::uint32_t;

inline constexpr GateId kNoGate = std::numeric_limits<GateId>::max();

enum class GateKind : std::uint8_t {
  Input,     ///< primary input; no fanins
  KeyInput,  ///< locking key bit; no fanins
  Buf,
  Not,
  And,
  Nand,
  Or,
  Nor,
  Xor,
  Xnor,
  Lut,  ///< k-input lookup table; function given by 2^k truth bits
};

/// Number of distinct GateKind values (for one-hot encodings and tables).
inline constexpr int kGateKindCount = 11;

/// Human-readable upper-case mnemonic ("NAND", "INPUT", ...).
std::string_view gate_kind_name(GateKind kind);

/// Inverse of gate_kind_name; case-insensitive. Throws on unknown names.
GateKind gate_kind_from_name(std::string_view name);

/// True for kinds that compute a Boolean function of fanins (not sources).
bool is_logic(GateKind kind);

/// Evaluate a non-LUT logic gate over its fanin values.
/// Preconditions: `kind` is a logic kind other than Lut; arity is legal
/// (1 for BUF/NOT, >=2 for the multi-input kinds).
bool eval_gate(GateKind kind, const std::vector<bool>& fanin_values);

/// Word-parallel evaluation: each std::uint64_t carries 64 simulation
/// patterns. Same preconditions as eval_gate.
std::uint64_t eval_gate_words(GateKind kind, std::span<const std::uint64_t> fanin_words);

/// A single gate. Plain data; the owning Netlist maintains all invariants
/// (acyclicity, arity, fanin validity), so Gate itself is an open struct.
struct Gate {
  GateKind kind = GateKind::Buf;
  std::string name;             ///< unique within the netlist
  std::vector<GateId> fanins;   ///< driving gates, ordered (LUT address order)

  /// For KeyInput: position of this bit within the netlist key vector.
  /// For Lut with key-programmed function: index of the first of 2^k key
  /// bits that form the truth table. -1 otherwise.
  std::int32_t key_base = -1;

  /// For Lut with a *fixed* function (key_base < 0): the 2^k truth bits,
  /// indexed by the fanin values interpreted as a little-endian address
  /// (fanins[0] is bit 0 of the address).
  std::vector<bool> lut_truth;
};

/// Truth table (2^k bits, little-endian address order as in Gate::lut_truth)
/// of a standard gate, used when re-expressing a gate as a LUT.
/// Preconditions: `kind` is a logic kind other than Lut; `arity` legal.
std::vector<bool> gate_truth_table(GateKind kind, int arity);

}  // namespace ic::circuit
