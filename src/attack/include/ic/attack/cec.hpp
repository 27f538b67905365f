// SAT-based combinational equivalence checking (CEC).
//
// Complements ic::bdd::equivalent: BDDs give instant answers on small
// circuits but blow up on multiplier-like structures; the SAT miter scales
// with modern CDCL heuristics and also returns a counterexample pattern.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "ic/circuit/netlist.hpp"
#include "ic/sat/solver.hpp"

namespace ic::attack {

struct CecResult {
  bool equivalent = false;
  bool decided = true;  ///< false when the conflict budget ran out
  /// Input pattern on which the outputs differ (set iff !equivalent && decided).
  std::optional<std::vector<bool>> counterexample;
  sat::SolverStats stats;
};

/// Check whether a(x, key_a) == b(x, key_b) for all inputs x. The netlists
/// must agree on input and output counts; keys are substituted as constants.
/// `max_conflicts` is the solver's conflict budget (0 = unlimited).
CecResult check_equivalence(const circuit::Netlist& a,
                            const std::vector<bool>& key_a,
                            const circuit::Netlist& b,
                            const std::vector<bool>& key_b,
                            std::uint64_t max_conflicts = 0);

}  // namespace ic::attack
