#include "ic/attack/cec.hpp"

#include "ic/attack/encode.hpp"
#include "ic/support/assert.hpp"

namespace ic::attack {

using circuit::Netlist;
using sat::Lit;
using sat::Result;
using sat::Solver;
using sat::Var;

CecResult check_equivalence(const Netlist& a, const std::vector<bool>& key_a,
                            const Netlist& b, const std::vector<bool>& key_b,
                            std::uint64_t max_conflicts) {
  IC_ASSERT(a.num_inputs() == b.num_inputs());
  IC_ASSERT(a.num_outputs() == b.num_outputs());
  IC_ASSERT(key_a.size() == a.num_keys());
  IC_ASSERT(key_b.size() == b.num_keys());

  Solver solver;
  solver.set_max_conflicts(max_conflicts);
  const CircuitEncoding enc_a = encode_netlist(a, solver);
  std::vector<Var> shared(b.size(), sat::kNoVar);
  for (std::size_t i = 0; i < b.num_inputs(); ++i) {
    shared[b.primary_inputs()[i]] = enc_a.input_vars[i];
  }
  const CircuitEncoding enc_b = encode_netlist(b, solver, std::move(shared));

  // Fix the keys.
  for (std::size_t i = 0; i < key_a.size(); ++i) {
    solver.add_clause({Lit(enc_a.key_vars[i], !key_a[i])});
  }
  for (std::size_t i = 0; i < key_b.size(); ++i) {
    solver.add_clause({Lit(enc_b.key_vars[i], !key_b[i])});
  }

  // Miter: at least one output differs.
  solver.add_clause(output_diffs(solver, enc_a.output_vars, enc_b.output_vars));

  CecResult result;
  const Result r = solver.solve();
  result.stats = solver.stats();
  switch (r) {
    case Result::Unsat:
      result.equivalent = true;
      break;
    case Result::Sat: {
      result.equivalent = false;
      std::vector<bool> cex(a.num_inputs());
      for (std::size_t i = 0; i < cex.size(); ++i) {
        cex[i] = solver.model_value(enc_a.input_vars[i]);
      }
      result.counterexample = std::move(cex);
      break;
    }
    case Result::Unknown:
      result.decided = false;
      break;
  }
  return result;
}

}  // namespace ic::attack
