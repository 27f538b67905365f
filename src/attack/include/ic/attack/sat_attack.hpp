// Oracle-guided SAT attack on logic locking (Subramanyan et al., HOST'15).
//
// Algorithm: build a miter of two copies of the locked circuit sharing the
// primary inputs but carrying independent keys K1, K2, with at least one
// output differing. Each SAT solution yields a Distinguishing Input Pattern
// (DIP); querying the oracle on the DIP gives the correct output, and both
// key copies are constrained to reproduce it. When the miter goes UNSAT, any
// key satisfying the accumulated constraints is functionally correct.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "ic/attack/oracle.hpp"
#include "ic/circuit/netlist.hpp"

namespace ic::attack {

/// Bucket bounds of the estimator.calibration.signed_log10_error histogram:
/// log10(modeled / predicted seconds), one decade per unit, negative when
/// the estimator overpredicts.
inline constexpr std::array<double, 13> kCalibrationLog10ErrorBounds = {
    -3.0, -2.0, -1.0, -0.5, -0.25, -0.1, 0.0, 0.1, 0.25, 0.5, 1.0, 2.0, 3.0};
/// Bucket bounds of the estimator.calibration.abs_rel_error histogram:
/// |modeled − predicted| / predicted.
inline constexpr std::array<double, 10> kCalibrationRelErrorBounds = {
    0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0};

struct AttackOptions {
  /// Total conflict budget across all solver calls (0 = unlimited). An
  /// exhausted budget aborts the attack with hit_cap = true.
  std::uint64_t max_conflicts = 0;
  /// Wall-clock safety valve in seconds (0 = unlimited), checked between
  /// DIP iterations. Conflict budgets bound search effort but not
  /// propagation-heavy instances; this bounds those. Capped instances keep
  /// their deterministic effort counters as the label.
  double max_wall_seconds = 0.0;
  /// Estimator prediction of this attack's runtime in seconds (<= 0 = none).
  /// Observability only: surfaced as the heartbeat's predicted-vs-elapsed
  /// ETA, and on completion the prediction and the attack's modeled seconds
  /// (AttackResult::estimated_seconds(), what the labels measure) are
  /// recorded into the estimator.calibration.* histograms. Never steers the
  /// attack.
  double predicted_seconds = 0.0;
};

struct AttackResult {
  bool success = false;       ///< key extracted and constraints closed
  bool hit_cap = false;       ///< aborted on the conflict or wall budget
  std::vector<bool> key;      ///< extracted key (valid when success)
  std::size_t iterations = 0; ///< number of DIPs found
  std::uint64_t oracle_queries = 0;

  // Deterministic solver-effort counters (summed over all solve calls).
  std::uint64_t conflicts = 0;
  std::uint64_t propagations = 0;
  std::uint64_t decisions = 0;

  double wall_seconds = 0.0;  ///< measured wall-clock time of the attack

  /// Deterministic runtime model: the portable stand-in for the paper's
  /// measured deobfuscation seconds (DESIGN.md §3). Calibrated to a CDCL
  /// throughput of ~5M propagations/s and ~700k conflicts/s.
  double estimated_seconds() const {
    return 2e-7 * static_cast<double>(propagations) +
           1.5e-6 * static_cast<double>(conflicts) +
           1e-4 * static_cast<double>(iterations);
  }
};

/// Input errors at an attack's door: throws std::runtime_error, naming the
/// counts, when `locked` has no key inputs or the oracle's input or output
/// count differs from the netlist's.
void check_attack_inputs(const circuit::Netlist& locked, const Oracle& oracle);

/// Run the SAT attack against `locked` using `oracle` as the activated chip.
/// Starts with check_attack_inputs().
AttackResult sat_attack(const circuit::Netlist& locked, Oracle& oracle,
                        const AttackOptions& options = {});

/// Verify an extracted key by word-parallel random simulation against an
/// unlocked reference; returns the number of mismatching patterns out of
/// 64 * words (0 for a functionally correct key, with high probability).
std::size_t verify_key(const circuit::Netlist& locked,
                       const std::vector<bool>& key,
                       const circuit::Netlist& unlocked,
                       std::size_t words = 64, std::uint64_t seed = 99);

}  // namespace ic::attack
