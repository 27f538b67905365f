// AppSAT-style approximate SAT attack (Shamsi et al., HOST'17).
//
// Against SAT-resistant point functions (Anti-SAT and friends), the exact
// attack needs exponentially many DIPs, but almost all of those rule out
// keys that corrupt only a vanishing fraction of the input space. AppSAT
// interleaves DIP iterations with random-sampling checkpoints: when the
// current candidate key's sampled error rate drops below a threshold, it
// stops with an *approximately correct* key. Mismatching samples are fed
// back as additional key constraints (query reinforcement).
#pragma once

#include <cstdint>

#include "ic/attack/sat_attack.hpp"

namespace ic::attack {

struct AppSatOptions {
  /// DIP iterations between sampling checkpoints.
  std::size_t dip_batch = 12;
  /// Random oracle queries per checkpoint.
  std::size_t samples_per_round = 64;
  /// Stop when the sampled error rate is <= this.
  double error_threshold = 0.02;
  /// Hard caps, as in the exact attack.
  std::size_t max_iterations = 4096;
  std::uint64_t max_conflicts = 0;
  std::uint64_t seed = 1;
};

struct AppSatResult {
  bool success = false;     ///< found a key meeting the error threshold
  bool exact = false;       ///< the miter went UNSAT: key is provably correct
  std::vector<bool> key;
  double estimated_error = 1.0;  ///< sampled mismatch rate of `key`
  std::size_t dip_iterations = 0;
  std::size_t reinforcement_queries = 0;
  std::uint64_t conflicts = 0;
  std::uint64_t propagations = 0;
};

/// Run the approximate attack. Starts with check_attack_inputs().
AppSatResult app_sat_attack(const circuit::Netlist& locked, Oracle& oracle,
                            const AppSatOptions& options = {});

}  // namespace ic::attack
