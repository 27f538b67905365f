#include "ic/circuit/gate.hpp"

#include "ic/support/assert.hpp"
#include "ic/support/strings.hpp"

namespace ic::circuit {

std::string_view gate_kind_name(GateKind kind) {
  switch (kind) {
    case GateKind::Input: return "INPUT";
    case GateKind::KeyInput: return "KEYINPUT";
    case GateKind::Buf: return "BUF";
    case GateKind::Not: return "NOT";
    case GateKind::And: return "AND";
    case GateKind::Nand: return "NAND";
    case GateKind::Or: return "OR";
    case GateKind::Nor: return "NOR";
    case GateKind::Xor: return "XOR";
    case GateKind::Xnor: return "XNOR";
    case GateKind::Lut: return "LUT";
  }
  IC_ASSERT_MSG(false, "unhandled GateKind");
  return "";
}

GateKind gate_kind_from_name(std::string_view name) {
  const std::string u = to_upper(name);
  if (u == "INPUT") return GateKind::Input;
  if (u == "KEYINPUT") return GateKind::KeyInput;
  if (u == "BUF" || u == "BUFF") return GateKind::Buf;
  if (u == "NOT" || u == "INV") return GateKind::Not;
  if (u == "AND") return GateKind::And;
  if (u == "NAND") return GateKind::Nand;
  if (u == "OR") return GateKind::Or;
  if (u == "NOR") return GateKind::Nor;
  if (u == "XOR") return GateKind::Xor;
  if (u == "XNOR") return GateKind::Xnor;
  if (u == "LUT") return GateKind::Lut;
  input_error("unknown gate kind: '" + std::string(name) + "'");
}

bool is_logic(GateKind kind) {
  return kind != GateKind::Input && kind != GateKind::KeyInput;
}

bool eval_gate(GateKind kind, const std::vector<bool>& v) {
  switch (kind) {
    case GateKind::Buf:
      IC_ASSERT(v.size() == 1);
      return v[0];
    case GateKind::Not:
      IC_ASSERT(v.size() == 1);
      return !v[0];
    case GateKind::And: {
      IC_ASSERT(v.size() >= 2);
      for (bool b : v) if (!b) return false;
      return true;
    }
    case GateKind::Nand: {
      IC_ASSERT(v.size() >= 2);
      for (bool b : v) if (!b) return true;
      return false;
    }
    case GateKind::Or: {
      IC_ASSERT(v.size() >= 2);
      for (bool b : v) if (b) return true;
      return false;
    }
    case GateKind::Nor: {
      IC_ASSERT(v.size() >= 2);
      for (bool b : v) if (b) return false;
      return true;
    }
    case GateKind::Xor: {
      IC_ASSERT(v.size() >= 2);
      bool acc = false;
      for (bool b : v) acc ^= b;
      return acc;
    }
    case GateKind::Xnor: {
      IC_ASSERT(v.size() >= 2);
      bool acc = true;
      for (bool b : v) acc ^= b;
      return acc;
    }
    default:
      IC_ASSERT_MSG(false, "eval_gate called on non-logic or LUT kind");
      return false;
  }
}

std::uint64_t eval_gate_words(GateKind kind, std::span<const std::uint64_t> v) {
  switch (kind) {
    case GateKind::Buf:
      IC_ASSERT(v.size() == 1);
      return v[0];
    case GateKind::Not:
      IC_ASSERT(v.size() == 1);
      return ~v[0];
    case GateKind::And: {
      IC_ASSERT(v.size() >= 2);
      std::uint64_t acc = ~std::uint64_t{0};
      for (std::uint64_t w : v) acc &= w;
      return acc;
    }
    case GateKind::Nand: {
      IC_ASSERT(v.size() >= 2);
      std::uint64_t acc = ~std::uint64_t{0};
      for (std::uint64_t w : v) acc &= w;
      return ~acc;
    }
    case GateKind::Or: {
      IC_ASSERT(v.size() >= 2);
      std::uint64_t acc = 0;
      for (std::uint64_t w : v) acc |= w;
      return acc;
    }
    case GateKind::Nor: {
      IC_ASSERT(v.size() >= 2);
      std::uint64_t acc = 0;
      for (std::uint64_t w : v) acc |= w;
      return ~acc;
    }
    case GateKind::Xor: {
      IC_ASSERT(v.size() >= 2);
      std::uint64_t acc = 0;
      for (std::uint64_t w : v) acc ^= w;
      return acc;
    }
    case GateKind::Xnor: {
      IC_ASSERT(v.size() >= 2);
      std::uint64_t acc = 0;
      for (std::uint64_t w : v) acc ^= w;
      return ~acc;
    }
    default:
      IC_ASSERT_MSG(false, "eval_gate_words called on non-logic or LUT kind");
      return 0;
  }
}

std::vector<bool> gate_truth_table(GateKind kind, int arity) {
  IC_ASSERT(is_logic(kind) && kind != GateKind::Lut);
  IC_ASSERT(arity >= 1 && arity <= 20);
  const std::size_t rows = std::size_t{1} << arity;
  std::vector<bool> table(rows);
  std::vector<bool> inputs(static_cast<std::size_t>(arity));
  for (std::size_t row = 0; row < rows; ++row) {
    for (int b = 0; b < arity; ++b) {
      inputs[static_cast<std::size_t>(b)] = (row >> b) & 1u;
    }
    table[row] = eval_gate(kind, inputs);
  }
  return table;
}

}  // namespace ic::circuit
