#include "ic/attack/encode.hpp"

#include "ic/support/assert.hpp"

namespace ic::attack {

using circuit::Gate;
using circuit::GateId;
using circuit::GateKind;
using circuit::Netlist;
using sat::Lit;
using sat::Solver;
using sat::Var;

namespace {

// y ↔ AND(fanins) — and the negated-output variant for NAND.
void encode_and(Solver& s, Var y, const std::vector<Var>& f, bool negate) {
  const Lit ylit = negate ? sat::neg(y) : sat::pos(y);
  std::vector<Lit> big;
  big.reserve(f.size() + 1);
  for (Var a : f) {
    s.add_clause({~ylit, sat::pos(a)});
    big.push_back(sat::neg(a));
  }
  big.push_back(ylit);
  s.add_clause(std::move(big));
}

// y ↔ OR(fanins) — and the negated-output variant for NOR.
void encode_or(Solver& s, Var y, const std::vector<Var>& f, bool negate) {
  const Lit ylit = negate ? sat::neg(y) : sat::pos(y);
  std::vector<Lit> big;
  big.reserve(f.size() + 1);
  for (Var a : f) {
    s.add_clause({ylit, sat::neg(a)});
    big.push_back(sat::pos(a));
  }
  big.push_back(~ylit);
  s.add_clause(std::move(big));
}

// t ↔ a XOR b (4 clauses).
void encode_xor2(Solver& s, Var t, Var a, Var b) {
  s.add_clause({sat::neg(t), sat::pos(a), sat::pos(b)});
  s.add_clause({sat::neg(t), sat::neg(a), sat::neg(b)});
  s.add_clause({sat::pos(t), sat::neg(a), sat::pos(b)});
  s.add_clause({sat::pos(t), sat::pos(a), sat::neg(b)});
}

// y ↔ XOR(fanins) folded pairwise; `negate` makes it XNOR.
void encode_xor(Solver& s, Var y, const std::vector<Var>& f, bool negate) {
  IC_ASSERT(f.size() >= 2);
  Var acc = f[0];
  for (std::size_t i = 1; i + 1 < f.size(); ++i) {
    const Var t = s.new_var();
    encode_xor2(s, t, acc, f[i]);
    acc = t;
  }
  const Var last = f.back();
  if (!negate) {
    encode_xor2(s, y, acc, last);
  } else {
    // y ↔ ¬(acc ⊕ last): same four clauses with y's sign flipped.
    s.add_clause({sat::pos(y), sat::pos(acc), sat::pos(last)});
    s.add_clause({sat::pos(y), sat::neg(acc), sat::neg(last)});
    s.add_clause({sat::neg(y), sat::neg(acc), sat::pos(last)});
    s.add_clause({sat::neg(y), sat::pos(acc), sat::neg(last)});
  }
}

// Equality / inverter.
void encode_buf(Solver& s, Var y, Var a, bool negate) {
  if (!negate) {
    s.add_clause({sat::neg(y), sat::pos(a)});
    s.add_clause({sat::pos(y), sat::neg(a)});
  } else {
    s.add_clause({sat::neg(y), sat::neg(a)});
    s.add_clause({sat::pos(y), sat::pos(a)});
  }
}

// y ↔ LUT(address = fanins). For each address m, selecting it implies the
// output equals the m-th truth bit (a key variable or a constant).
void encode_lut(Solver& s, Var y, const std::vector<Var>& f, const Gate& g,
                const std::vector<Var>& key_vars) {
  const std::size_t rows = std::size_t{1} << f.size();
  for (std::size_t m = 0; m < rows; ++m) {
    std::vector<Lit> base;
    base.reserve(f.size() + 2);
    for (std::size_t b = 0; b < f.size(); ++b) {
      // ¬(fanin pattern matches m): literal that is FALSE when bit b of the
      // address equals bit b of m.
      base.push_back(((m >> b) & 1u) ? sat::neg(f[b]) : sat::pos(f[b]));
    }
    if (g.key_base >= 0) {
      const Var k = key_vars[static_cast<std::size_t>(g.key_base) + m];
      // sel_m ∧ k → y   and   sel_m ∧ ¬k → ¬y
      std::vector<Lit> c1 = base;
      c1.push_back(sat::neg(k));
      c1.push_back(sat::pos(y));
      s.add_clause(std::move(c1));
      std::vector<Lit> c2 = base;
      c2.push_back(sat::pos(k));
      c2.push_back(sat::neg(y));
      s.add_clause(std::move(c2));
    } else {
      std::vector<Lit> c = base;
      c.push_back(g.lut_truth[m] ? sat::pos(y) : sat::neg(y));
      s.add_clause(std::move(c));
    }
  }
}

}  // namespace

CircuitEncoding encode_netlist(const Netlist& nl, Solver& solver,
                               std::vector<Var> vars) {
  IC_ASSERT_MSG(vars.empty() || vars.size() == nl.size(),
                vars.size() << " pre-assigned variables for a netlist of "
                            << nl.size() << " gates");
  vars.resize(nl.size(), sat::kNoVar);
  auto var_of = [&](GateId id) {
    if (vars[id] == sat::kNoVar) vars[id] = solver.new_var();
    return vars[id];
  };

  // Sources first so key_vars is complete before any LUT is encoded.
  CircuitEncoding enc;
  for (GateId id : nl.primary_inputs()) enc.input_vars.push_back(var_of(id));
  for (GateId id : nl.key_inputs()) enc.key_vars.push_back(var_of(id));

  for (GateId id : nl.topological_order()) {
    const Gate& g = nl.gate(id);
    if (!circuit::is_logic(g.kind) || vars[id] != sat::kNoVar) continue;
    const Var y = solver.new_var();
    vars[id] = y;
    std::vector<Var> f;
    f.reserve(g.fanins.size());
    for (GateId fin : g.fanins) f.push_back(vars[fin]);
    switch (g.kind) {
      case GateKind::Buf: encode_buf(solver, y, f[0], false); break;
      case GateKind::Not: encode_buf(solver, y, f[0], true); break;
      case GateKind::And: encode_and(solver, y, f, false); break;
      case GateKind::Nand: encode_and(solver, y, f, true); break;
      case GateKind::Or: encode_or(solver, y, f, false); break;
      case GateKind::Nor: encode_or(solver, y, f, true); break;
      case GateKind::Xor: encode_xor(solver, y, f, false); break;
      case GateKind::Xnor: encode_xor(solver, y, f, true); break;
      case GateKind::Lut: encode_lut(solver, y, f, g, enc.key_vars); break;
      default:
        IC_ASSERT_MSG(false, "unexpected gate kind in encoding");
    }
  }

  for (GateId id : nl.outputs()) enc.output_vars.push_back(vars[id]);
  enc.gate_vars = std::move(vars);
  return enc;
}

std::vector<Lit> output_diffs(Solver& solver, const std::vector<Var>& a,
                              const std::vector<Var>& b) {
  IC_ASSERT(a.size() == b.size());
  std::vector<Lit> diffs;
  diffs.reserve(a.size() + 1);  // room for the caller's guard literal
  for (std::size_t i = 0; i < a.size(); ++i) {
    const Var d = solver.new_var();
    encode_xor2(solver, d, a[i], b[i]);
    diffs.push_back(sat::pos(d));
  }
  return diffs;
}

}  // namespace ic::attack
