// Tseitin encoding of a netlist into a SAT solver's clause database.
//
// Each gate gets a solver variable constrained to equal its Boolean function
// of the fanin variables. A caller can pre-assign any gate's variable: that
// is how the attack builds its two-key miter (the second copy shares the
// inputs and the key-independent gates of the first) and its per-DIP
// oracle-consistency copies (keys shared, gates outside the key cone fixed to
// unit-constrained constants). The solver sizes itself: its vectors grow
// geometrically, so no encode pre-reserves capacity.
#pragma once

#include <vector>

#include "ic/circuit/netlist.hpp"
#include "ic/sat/solver.hpp"

namespace ic::attack {

struct CircuitEncoding {
  std::vector<sat::Var> gate_vars;    ///< indexed by GateId
  std::vector<sat::Var> input_vars;   ///< primary_inputs() order
  std::vector<sat::Var> key_vars;     ///< key_inputs() order
  std::vector<sat::Var> output_vars;  ///< outputs() order
};

/// Encode `netlist` into `solver`. `vars` is empty or has one entry per gate
/// (indexed by GateId). A gate whose entry is set takes that variable and
/// emits no clause: a shared input, the other miter copy's gate, or a
/// constant the caller has unit-fixed. Every other gate gets a fresh
/// variable, in this order: primary inputs, key inputs, then logic gates in
/// topological order.
CircuitEncoding encode_netlist(const circuit::Netlist& netlist,
                               sat::Solver& solver,
                               std::vector<sat::Var> vars = {});

/// Miter outputs: for each pair (a[i], b[i]) a fresh variable d_i with
/// d_i ↔ a[i] ⊕ b[i]. Returns the positive d_i literals, in order; the caller
/// adds them (plus any guard literal) as the "some output differs" clause.
std::vector<sat::Lit> output_diffs(sat::Solver& solver,
                                   const std::vector<sat::Var>& a,
                                   const std::vector<sat::Var>& b);

}  // namespace ic::attack
