// Obfuscation policy search engine (DESIGN.md §14).
//
// The paper's motivating use case: a defender wants the locking-gate
// selection an attacker would take longest to break, but cannot afford a
// real SAT attack per candidate. The trained estimator makes candidate
// scoring cheap, so selection becomes a search problem:
//
//   1. greedy hill-climb from a seeded random selection — each step scores
//      a whole neighborhood (single-gate swaps) in one oracle batch and
//      moves to the best neighbor when it improves;
//   2. simulated annealing from the greedy result — same neighborhoods, but
//      the best neighbor is also accepted with Metropolis probability
//      exp(delta / T) when it is worse, T decaying geometrically, so the
//      search can leave the greedy local optimum;
//   3. the top-k distinct candidates ever scored are verified with the real
//      SAT attack and reported predicted-vs-actual.
//
// Objective: predicted log-runtime minus overhead penalties,
//
//   objective(S) = predicted_log_runtime(S)
//                  - area_weight  * key_bits(scheme, S)
//                  - depth_weight * max depth over gates of S
//
// key_bits is what the scheme would add (LUT4: 2^max(4, fanin) bits per
// gate; XOR: one per gate; Anti-SAT: 2·width), and the max-depth term is a
// cheap static proxy for critical-path lengthening (a key gate inserted at
// depth d adds a level to every path through it). Both weights default to 0:
// pure predicted-hardness maximization at a fixed gate budget.
//
// Determinism (§8 contract): every stochastic choice draws from an Rng
// seeded by derive_seed of (options.seed, step/candidate index) — never from
// shared state — and candidates are scored into index-aligned slots with
// ties broken by lowest index. Oracle predictions are bit-identical at any
// jobs setting, and SAT-attack verification reports the deterministic
// effort-model seconds, so the whole SearchReport (and its JSON rendering)
// is byte-identical however the work was parallelized or where it ran.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ic/attack/sat_attack.hpp"
#include "ic/circuit/netlist.hpp"
#include "ic/search/oracle.hpp"

namespace ic::search {

/// Locking action applied to a candidate selection.
enum class LockScheme {
  Lut4,    ///< replace each selected gate by a key-programmed LUT
  Xor,     ///< insert an XOR/XNOR key gate after each selected gate
  AntiSat, ///< Anti-SAT block XOR-ed into the (single) selected wire
};

/// Wire/CLI name of a scheme ("lut4", "xor", "antisat").
const char* scheme_name(LockScheme scheme);
/// Inverse of scheme_name; throws std::runtime_error on unknown names.
LockScheme scheme_from_name(const std::string& name);

struct Objective {
  double area_weight = 0.0;   ///< penalty per key bit the scheme would add
  double depth_weight = 0.0;  ///< penalty per level of max selected depth
};

struct SearchOptions {
  /// Gates to lock. For AntiSat this is the AND-tree width m instead, and
  /// the searched selection is the single wire the block's output XORs into.
  std::size_t budget = 8;
  LockScheme scheme = LockScheme::Lut4;
  std::size_t greedy_steps = 16;
  std::size_t sa_steps = 16;
  /// Candidates scored per step — one oracle batch.
  std::size_t neighbors = 8;
  /// Distinct best candidates verified with the real SAT attack (0 = skip
  /// verification entirely).
  std::size_t top_k = 3;
  std::uint64_t seed = 1;
  Objective objective;
  double sa_initial_temp = 1.0;
  double sa_cooling = 0.9;  ///< geometric temperature decay per SA step
  /// Conflict budget per verification attack (0 = unlimited).
  std::uint64_t verify_max_conflicts = 200000;
};

/// One search step as recorded in the report.
struct SearchStep {
  std::string phase;           ///< "greedy" | "sa"
  std::size_t step = 0;        ///< global step index
  double candidate_objective = 0.0;  ///< best neighbor this step
  double best_objective = 0.0;       ///< best-so-far after the step
  bool accepted = false;       ///< did the walk move to the neighbor
  std::uint64_t oracle_calls = 0;  ///< cumulative, after the step
};

/// A top-k candidate with its ground-truth attack outcome.
struct VerifiedCandidate {
  std::vector<circuit::GateId> selection;
  double objective = 0.0;
  double predicted_log_runtime = 0.0;
  double predicted_seconds = 0.0;
  /// Deterministic effort-model seconds of the real attack
  /// (AttackResult::estimated_seconds).
  double actual_seconds = 0.0;
  std::size_t attack_dips = 0;
  std::size_t key_bits = 0;
  bool attack_success = false;
  bool attack_hit_cap = false;
};

struct SearchReport {
  std::string circuit;  ///< netlist name
  std::size_t num_gates = 0;
  SearchOptions options;
  std::vector<SearchStep> steps;
  std::vector<VerifiedCandidate> verified;  ///< objective-descending
  std::vector<circuit::GateId> best_selection;
  double best_objective = 0.0;
  double best_predicted_log_runtime = 0.0;
  double best_predicted_seconds = 0.0;
  std::uint64_t oracle_calls = 0;
  std::uint64_t oracle_batches = 0;
  std::uint64_t accepted_steps = 0;
};

/// Key bits `scheme` would add when locking `selection` in `circuit`; the
/// area term of the objective. For AntiSat, `budget` is the block width.
std::size_t key_bits_for(LockScheme scheme,
                         const std::vector<circuit::GateId>& selection,
                         const circuit::Netlist& circuit, std::size_t budget);

/// Run the search. `circuit` is the original (unlocked) netlist — it is also
/// the oracle the verification attacks query. Throws std::runtime_error on
/// infeasible options (budget exceeding the lockable-gate pool, zero
/// neighbors...).
SearchReport policy_search(const circuit::Netlist& circuit,
                           EngineOracle& oracle,
                           const SearchOptions& options);

}  // namespace ic::search
