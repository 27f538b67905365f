#include "ic/attack/app_sat.hpp"

#include "ic/attack/encode.hpp"
#include "ic/circuit/simulator.hpp"
#include "ic/support/assert.hpp"
#include "ic/support/rng.hpp"

namespace ic::attack {

using circuit::GateId;
using circuit::Netlist;
using sat::Lit;
using sat::Result;
using sat::Solver;
using sat::Var;

AppSatResult app_sat_attack(const Netlist& locked, Oracle& oracle,
                            const AppSatOptions& options) {
  check_attack_inputs(locked, oracle);

  AppSatResult result;
  Solver solver;

  const CircuitEncoding enc1 = encode_netlist(locked, solver);
  std::vector<Var> shared(locked.size(), sat::kNoVar);
  for (GateId id : locked.primary_inputs()) shared[id] = enc1.gate_vars[id];
  const CircuitEncoding enc2 = encode_netlist(locked, solver, std::move(shared));

  const Var act = solver.new_var();
  std::vector<Lit> any_diff =
      output_diffs(solver, enc1.output_vars, enc2.output_vars);
  any_diff.push_back(sat::neg(act));
  solver.add_clause(any_diff);

  const circuit::Simulator locked_sim(locked);
  Rng rng(options.seed);

  // Add the oracle's response for pattern `in` as a constraint on one key
  // copy (both copies for DIPs; one suffices for reinforcement since both
  // keys satisfy the same constraint set — we constrain both for symmetry).
  auto add_io_constraint = [&](const std::vector<bool>& in,
                               const std::vector<bool>& out) {
    for (const CircuitEncoding* enc : {&enc1, &enc2}) {
      std::vector<Var> keys(locked.size(), sat::kNoVar);
      for (GateId k : locked.key_inputs()) keys[k] = enc->gate_vars[k];
      const CircuitEncoding copy = encode_netlist(locked, solver, std::move(keys));
      for (std::size_t i = 0; i < in.size(); ++i) {
        solver.add_clause({Lit(copy.input_vars[i], !in[i])});
      }
      for (std::size_t i = 0; i < out.size(); ++i) {
        solver.add_clause({Lit(copy.output_vars[i], !out[i])});
      }
    }
  };

  auto extract_key = [&]() -> bool {
    if (solver.solve({sat::neg(act)}) != Result::Sat) return false;
    result.key.resize(locked.num_keys());
    for (std::size_t i = 0; i < result.key.size(); ++i) {
      result.key[i] = solver.model_value(enc1.key_vars[i]);
    }
    return true;
  };

  auto snapshot = [&]() {
    result.conflicts = solver.stats().conflicts;
    result.propagations = solver.stats().propagations;
  };

  std::vector<bool> dip(locked.num_inputs());
  while (result.dip_iterations < options.max_iterations) {
    // One batch of exact DIP iterations.
    bool miter_unsat = false;
    for (std::size_t b = 0; b < options.dip_batch; ++b) {
      if (options.max_conflicts != 0 &&
          solver.stats().conflicts >= options.max_conflicts) {
        snapshot();
        return result;  // budget exhausted, success stays false
      }
      const Result r = solver.solve({sat::pos(act)});
      if (r == Result::Unknown) {
        snapshot();
        return result;
      }
      if (r == Result::Unsat) {
        miter_unsat = true;
        break;
      }
      for (std::size_t i = 0; i < dip.size(); ++i) {
        dip[i] = solver.model_value(enc1.input_vars[i]);
      }
      add_io_constraint(dip, oracle.query(dip));
      ++result.dip_iterations;
    }

    if (!extract_key()) {
      snapshot();
      return result;  // inconsistent (wrong oracle) or budget
    }
    if (miter_unsat) {
      result.success = true;
      result.exact = true;
      result.estimated_error = 0.0;
      snapshot();
      return result;
    }

    // Sampling checkpoint: estimate the candidate key's error rate.
    std::size_t mismatches = 0;
    std::vector<std::pair<std::vector<bool>, std::vector<bool>>> bad;
    for (std::size_t s = 0; s < options.samples_per_round; ++s) {
      std::vector<bool> in(locked.num_inputs());
      for (std::size_t i = 0; i < in.size(); ++i) in[i] = rng.bernoulli(0.5);
      const auto expected = oracle.query(in);
      ++result.reinforcement_queries;
      if (locked_sim.eval(in, result.key) != expected) {
        ++mismatches;
        bad.emplace_back(std::move(in), expected);
      }
    }
    result.estimated_error =
        static_cast<double>(mismatches) /
        static_cast<double>(options.samples_per_round);
    if (result.estimated_error <= options.error_threshold) {
      result.success = true;
      snapshot();
      return result;
    }
    // Query reinforcement: rule the observed failures out of the key space.
    for (const auto& [in, out] : bad) add_io_constraint(in, out);
  }
  snapshot();
  return result;
}

}  // namespace ic::attack
