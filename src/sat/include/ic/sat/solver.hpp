// Conflict-driven clause-learning (CDCL) SAT solver.
//
// A from-scratch MiniSat-style solver: two-watched-literal propagation,
// first-UIP conflict analysis, VSIDS branching with phase saving, Luby
// restarts, and activity-based learnt-clause database reduction. It solves
// incrementally under assumptions, which is what the oracle-guided SAT
// attack needs (the clause database persists across DIP iterations).
// The heuristics' constants (activity decays, restart interval, learnt-DB
// limit) are fixed in solver.cpp; the one setting is the conflict budget.
//
// Memory layout (DESIGN.md §11): clauses live in a flat uint32 arena
// (ic/sat/clause_arena.hpp), watcher lists carry blocker literals so most
// propagation steps touch at most one clause cache line, deleted clauses are
// detached lazily, and the hot loops (propagate / analyze / add_clause) run
// allocation-free against persistent scratch buffers. The search trace —
// every decision, propagation, conflict, restart, and learnt literal — is
// bit-identical to the reference pointer-based implementation; the committed
// golden corpus (tests/golden/sat_stats.txt) enforces this, because the
// dataset labels are these counters.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <vector>

#include "ic/sat/clause_arena.hpp"
#include "ic/sat/types.hpp"

namespace ic::sat {

enum class Result { Sat, Unsat, Unknown };

/// Effort counters. These are the deterministic "runtime" measure used by
/// the attack labeler (see DESIGN.md §3).
struct SolverStats {
  std::uint64_t decisions = 0;
  std::uint64_t propagations = 0;
  std::uint64_t conflicts = 0;
  std::uint64_t restarts = 0;
  std::uint64_t learnt_literals = 0;
  /// Clauses actually attached to the database. Clauses discarded by level-0
  /// simplification (satisfied, tautological) and unit enqueues don't count.
  std::uint64_t clauses_added = 0;
};

class Solver {
 public:
  /// Create a fresh variable; returns its index.
  Var new_var();
  std::size_t num_vars() const { return static_cast<std::size_t>(next_var_); }

  /// Add a problem clause. Returns false if the clause (or the accumulated
  /// formula) is already trivially unsatisfiable at level 0; the solver then
  /// answers Unsat forever.
  bool add_clause(const Lit* lits, std::size_t n);
  bool add_clause(const std::vector<Lit>& lits) {
    return add_clause(lits.data(), lits.size());
  }
  bool add_clause(std::initializer_list<Lit> lits) {
    return add_clause(lits.begin(), lits.size());
  }

  /// Solve under the given assumptions. Incremental: may be called many
  /// times, interleaved with add_clause.
  Result solve(const std::vector<Lit>& assumptions = {});

  /// Model value of v after a Sat answer.
  bool model_value(Var v) const;

  /// Conflict budget for subsequent solve() calls (0 = unlimited, the
  /// default). An exhausted budget returns Result::Unknown.
  void set_max_conflicts(std::uint64_t budget) { max_conflicts_ = budget; }

  const SolverStats& stats() const { return stats_; }
  bool okay() const { return ok_; }
  std::size_t num_clauses() const { return num_problem_clauses_; }

 private:
  static constexpr ClauseRef kNoReason = kRefUndef;

  // ---- assignment & trail ----
  LBool value(Lit l) const {
    const LBool v = assigns_[static_cast<std::size_t>(l.var())];
    return v ^ l.negated();
  }
  LBool value(Var v) const { return assigns_[static_cast<std::size_t>(v)]; }
  int level(Var v) const { return level_[static_cast<std::size_t>(v)]; }
  int decision_level() const { return static_cast<int>(trail_lim_.size()); }

  void enqueue(Lit l, ClauseRef reason);
  ClauseRef propagate();  // kNoReason if no conflict, else conflicting clause
  void new_decision_level() { trail_lim_.push_back(trail_.size()); }
  void cancel_until(int target_level);

  // ---- conflict analysis ----
  void analyze(ClauseRef conflict, std::vector<Lit>& out_learnt, int& out_level);
  bool lit_redundant(Lit l, std::uint32_t abstract_levels);

  // ---- heuristics ----
  void bump_var(Var v);
  void bump_clause(ClauseHandle c);
  Lit pick_branch_lit();
  void reduce_db();
  static std::uint64_t luby(std::uint64_t i);

  // ---- clause management ----
  /// Level-0 simplification: drop clauses already satisfied by the root
  /// assignment and strip root-false literals. Essential for the attack's
  /// incremental use, where each DIP iteration retires whole circuit copies
  /// via unit clauses.
  void simplify();
  void simplify_list(std::vector<ClauseRef>& list, std::size_t& live_count);
  void attach_clause(ClauseRef ref);
  /// Lazy detach: mark the clause deleted in the arena. Watcher lists drop
  /// it when they next traverse it; no eager O(watchlist) erase.
  void remove_clause(ClauseRef ref) { arena_.free_clause(ref); }
  /// Copying GC once the arena's dead fraction crosses the threshold;
  /// rewrites watcher / reason / clause-list references.
  void check_garbage();
  void garbage_collect();
  ClauseHandle clause(ClauseRef ref) { return arena_.get(ref); }

  // ---- order heap (priority queue over var activity) ----
  void heap_insert(Var v);
  void heap_update(Var v);
  Var heap_pop();
  void heap_sift_up(std::size_t i);
  void heap_sift_down(std::size_t i);

  std::uint64_t max_conflicts_ = 0;
  bool ok_ = true;

  Var next_var_ = 0;
  std::vector<LBool> assigns_;
  // Byte-wide on purpose: vector<bool>'s bit packing puts a read-modify-write
  // in enqueue() and analyze(), the two hottest writers.
  std::vector<unsigned char> polarity_;  // saved phase (1 = last assigned true)
  std::vector<int> level_;
  std::vector<ClauseRef> reason_;
  std::vector<double> activity_;
  double var_inc_ = 1.0;
  double clause_inc_ = 1.0;

  ClauseArena arena_;
  std::vector<ClauseRef> clauses_;  // live problem clauses, allocation order
  std::vector<ClauseRef> learnts_;  // live learnt clauses, allocation order
  std::size_t num_problem_clauses_ = 0;
  std::size_t num_learnt_clauses_ = 0;

  // watches_[lit.code()] = watchers of clauses watching lit.
  std::vector<std::vector<Watcher>> watches_;

  std::vector<Lit> trail_;
  std::vector<std::size_t> trail_lim_;
  std::size_t qhead_ = 0;

  // order heap over activity
  std::vector<Var> heap_;
  std::vector<int> heap_pos_;  // -1 if absent

  // persistent scratch (hot loops run allocation-free after warmup)
  std::vector<unsigned char> seen_;         // analyze()
  std::vector<Lit> analyze_toclear_;        // analyze() minimization
  std::vector<Lit> add_tmp_;                // add_clause() simplification
  std::vector<ClauseRef> reduce_tmp_;       // reduce_db() sort buffer

  // snapshot of the satisfying assignment from the last Sat answer
  std::vector<LBool> model_;

  // trail size at the last simplify(); skip the sweep when nothing new was
  // fixed at the root level
  std::size_t simplify_trail_size_ = 0;

  SolverStats stats_;
};

}  // namespace ic::sat
