// Combinational gate-level netlist.
//
// A Netlist owns its gates by value. Gates are referred to by GateId (dense
// indices). Class invariants:
//   * every fanin of every gate refers to an existing gate,
//   * arities are legal for the gate kind,
//   * gate names are unique,
//   * the fanin relation is acyclic (checked by validate() / topological_order()).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "ic/circuit/gate.hpp"

namespace ic::circuit {

/// Most fanins a LUT may have. Its truth table has 2^fanins rows (a key LUT
/// reads that many key inputs), so every LUT mutator and validate() throw
/// std::runtime_error past this bound before computing a row count.
inline constexpr std::size_t kMaxLutFanins = 16;

class Netlist {
 public:
  Netlist() = default;
  explicit Netlist(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  // ---- construction ------------------------------------------------------

  /// Add a primary input. Returns its id.
  GateId add_input(std::string name);

  /// Add a key input; it is appended to the key vector. Returns its id.
  GateId add_key_input(std::string name);

  /// Add a logic gate (any kind except Input/KeyInput/Lut). Throws
  /// std::runtime_error naming the gate on another kind, or on a fanin count
  /// the kind does not take (1 for Buf/Not, at least 2 otherwise).
  GateId add_gate(GateKind kind, std::vector<GateId> fanins, std::string name);

  /// Add a LUT with a fixed truth table (2^fanins.size() bits).
  GateId add_fixed_lut(std::vector<GateId> fanins, std::vector<bool> truth,
                       std::string name);

  /// Add a key-programmed LUT: its 2^fanins.size() truth bits are the key
  /// bits key_base .. key_base + 2^k - 1 (which must already exist as
  /// KeyInput gates via add_key_input; std::runtime_error otherwise).
  GateId add_key_lut(std::vector<GateId> fanins, std::int32_t key_base,
                     std::string name);

  /// Mark a gate as a primary output. By default a gate is listed at most
  /// once; pass allow_duplicate = true to preserve output multiplicity
  /// (e.g. when a rewrite collapses two output signals onto one gate).
  void mark_output(GateId id, bool allow_duplicate = false);

  /// Replace gate `id` in place with a key-programmed LUT over the same
  /// fanins (used by LUT-based obfuscation). The gate keeps its id and name,
  /// so all fanout references remain valid.
  void replace_with_key_lut(GateId id, std::int32_t key_base);

  /// As above but with an explicit (usually padded) fanin list. The caller
  /// must keep the graph acyclic; validate() checks.
  void replace_with_key_lut(GateId id, std::int32_t key_base,
                            std::vector<GateId> fanins);

  /// Substitute `new_id` for `old_id` in the primary-output list.
  void replace_output(GateId old_id, GateId new_id);

  /// Replace gate `id`'s fanin `old_fanin` with `new_fanin`.
  void rewire_fanin(GateId id, GateId old_fanin, GateId new_fanin);

  // ---- access ------------------------------------------------------------

  std::size_t size() const { return gates_.size(); }
  const Gate& gate(GateId id) const;
  GateId find(std::string_view name) const;  ///< kNoGate if absent

  const std::vector<GateId>& primary_inputs() const { return inputs_; }
  const std::vector<GateId>& key_inputs() const { return key_inputs_; }
  const std::vector<GateId>& outputs() const { return outputs_; }

  std::size_t num_inputs() const { return inputs_.size(); }
  std::size_t num_keys() const { return key_inputs_.size(); }
  std::size_t num_outputs() const { return outputs_.size(); }

  /// Number of gates that are logic (excludes Input/KeyInput).
  std::size_t num_logic_gates() const;

  /// Fanout lists: entry g lists the gates reading g, in id order (a gate
  /// reading g on two pins appears twice). Built on each call.
  std::vector<std::vector<GateId>> fanouts() const;

  /// Gate ids in topological order (fanins before fanouts).
  /// Throws std::runtime_error if the netlist is cyclic.
  std::vector<GateId> topological_order() const;

  /// Logic depth of each gate (inputs have depth 0).
  std::vector<int> depths() const;

  /// Full structural check; throws std::runtime_error with a description of
  /// the first problem found (dangling output, cycle, bad LUT key range...).
  void validate() const;

  /// Histogram of gate kinds, indexed by static_cast<int>(GateKind).
  std::vector<std::size_t> kind_histogram() const;

 private:
  GateId add_gate_impl(Gate g);

  std::string name_;
  std::vector<Gate> gates_;
  std::vector<GateId> inputs_;
  std::vector<GateId> key_inputs_;
  std::vector<GateId> outputs_;
  std::unordered_map<std::string, GateId> by_name_;
};

}  // namespace ic::circuit
