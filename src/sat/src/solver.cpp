#include "ic/sat/solver.hpp"

#include <algorithm>
#include <cmath>

// Bit-identity note. This implementation stores clauses in a flat arena,
// carries blocker literals in the watch lists, and detaches deleted clauses
// lazily — but it must replay the reference search trace EXACTLY (the
// committed golden corpus in tests/golden/sat_stats.txt pins decisions,
// propagations, conflicts, restarts, and learnt literals). The load-bearing
// disciplines, each marked at its site below:
//
//  * The blocker fast path in propagate() fires only when the blocker is
//    one of the clause's two current watches. Since a watcher's blocker is
//    never the false literal being propagated, that makes the skip condition
//    exactly the reference keep condition value(other watch) == True. A
//    naive MiniSat blocker check (skip whenever the blocker is true) would
//    diverge: a stale true blocker would keep a clause whose watch the
//    reference implementation moves.
//  * The fast path skips the c[0]/c[1] normalization swap the reference
//    performs on its keep path. That is unobservable: every consumer of
//    literal positions either resyncs through the slow path first (conflict
//    clauses, newly created reasons) or is position-independent (simplify's
//    satisfied scan, lit_redundant, clause size), and a locked clause's
//    position 0 is pinned to its propagated literal in both implementations.
//  * Lazily dropped (deleted) watchers preserve the relative order of live
//    entries, same as the reference's order-preserving eager erase; the
//    conflict path copies the watch-list remainder verbatim.
//  * reduce_db() sorts a scratch COPY of learnts_ (allocation order), which
//    is the same sequence the reference gathers by scanning clause indices,
//    so the unstable std::sort sees identical input and ties break the same.

namespace ic::sat {

namespace {

// Search heuristics (MiniSat's values). The golden corpus pins the counters
// they produce, so they are constants, not settings.
constexpr double kVarDecay = 0.95;
constexpr double kClauseDecay = 0.999;
/// Initial restart interval in conflicts, scaled by the Luby sequence.
constexpr std::uint64_t kRestartBase = 100;
/// Reduce the learnt DB once it holds more than
/// max(kDbBase, kDbFactor * problem clauses) clauses.
constexpr std::size_t kDbBase = 4000;
constexpr double kDbFactor = 0.5;

}  // namespace

Var Solver::new_var() {
  const Var v = next_var_++;
  assigns_.push_back(LBool::Undef);
  polarity_.push_back(false);
  level_.push_back(0);
  reason_.push_back(kNoReason);
  activity_.push_back(0.0);
  watches_.emplace_back();
  watches_.emplace_back();
  heap_pos_.push_back(-1);
  seen_.push_back(false);
  heap_insert(v);
  return v;
}

// ---------------------------------------------------------------- clauses --

void Solver::attach_clause(ClauseRef ref) {
  ClauseHandle c = arena_.get(ref);
  IC_ASSERT(c.size() >= 2);
  // Binary tagging is attach-time only: a longer clause later shrunk to two
  // literals by simplify() keeps untagged watchers and takes the generic
  // path, which is correct either way.
  const bool binary = c.size() == 2;
  const Lit l0 = c.lit(0);
  const Lit l1 = c.lit(1);
  watches_[static_cast<std::size_t>(l0.code())].push_back(
      Watcher::make(ref, l1, binary));
  watches_[static_cast<std::size_t>(l1.code())].push_back(
      Watcher::make(ref, l0, binary));
}

bool Solver::add_clause(const Lit* lits, std::size_t n) {
  IC_ASSERT_MSG(decision_level() == 0, "add_clause outside of level 0");
  if (!ok_) return false;

  // Level-0 simplification: drop false/duplicate literals; detect tautology
  // and already-satisfied clauses. Runs in the persistent scratch buffer.
  add_tmp_.assign(lits, lits + n);
  std::sort(add_tmp_.begin(), add_tmp_.end());
  std::size_t out = 0;
  Lit prev = Lit::from_code(-2);
  for (std::size_t i = 0; i < add_tmp_.size(); ++i) {
    const Lit l = add_tmp_[i];
    IC_ASSERT_MSG(l.var() < next_var_, "literal references unknown variable");
    if (value(l) == LBool::True || l == ~prev) return true;  // satisfied/tautology
    if (value(l) == LBool::False || l == prev) continue;     // false/duplicate
    add_tmp_[out++] = l;
    prev = l;
  }

  if (out == 0) {
    ok_ = false;
    return false;
  }
  if (out == 1) {
    enqueue(add_tmp_[0], kNoReason);
    if (propagate() != kNoReason) {
      ok_ = false;
      return false;
    }
    return true;
  }
  const ClauseRef ref =
      arena_.alloc(add_tmp_.data(), static_cast<std::uint32_t>(out), /*learnt=*/false);
  clauses_.push_back(ref);
  attach_clause(ref);
  ++num_problem_clauses_;
  ++stats_.clauses_added;  // only clauses that actually reached the database
  return true;
}

// ------------------------------------------------------------ propagation --

void Solver::enqueue(Lit l, ClauseRef reason) {
  IC_ASSERT(value(l) == LBool::Undef);
  const auto v = static_cast<std::size_t>(l.var());
  assigns_[v] = lbool_from(!l.negated());
  level_[v] = decision_level();
  reason_[v] = reason;
  polarity_[v] = !l.negated();
  trail_.push_back(l);
}

ClauseRef Solver::propagate() {
  // Hoisted bases: nothing in this loop reallocates the arena or the
  // per-variable arrays (watch-list push_backs and trail growth touch other
  // buffers), but the compiler cannot prove that across the push_back
  // calls, so without the locals every watcher would reload them. The
  // decision level is also constant for the whole propagation pass.
  std::uint32_t* const arena = arena_.raw();
  LBool* const assigns = assigns_.data();
  int* const level = level_.data();
  ClauseRef* const reason = reason_.data();
  unsigned char* const polarity = polarity_.data();
  const int dl = decision_level();
  // Raw-byte XOR instead of operator^(LBool, bool): negating Undef (2)
  // yields the pseudo-value 3, which this loop only ever compares against
  // True and False — both compare unequal, same as Undef — so the Undef
  // branch of the general operator is dead weight here.
  const auto lit_value = [assigns](Lit l) {
    return static_cast<LBool>(
        static_cast<std::uint8_t>(assigns[static_cast<std::size_t>(l.var())]) ^
        static_cast<std::uint8_t>(l.negated()));
  };

  while (qhead_ < trail_.size()) {
    const Lit p = trail_[qhead_++];
    ++stats_.propagations;
    const Lit false_lit = ~p;
    auto& ws = watches_[static_cast<std::size_t>(false_lit.code())];

    Watcher* i = ws.data();
    Watcher* j = i;
    Watcher* const end = i + ws.size();
    while (i != end) {
      const Watcher w = *i++;

      if (w.binary()) {
        // Binary watcher: the blocker is exactly the other literal (binary
        // watches never move, so it cannot go stale), which fully decides
        // the clause without reading it. The clause is touched only on the
        // unit/conflict paths, to replay the reference's position
        // normalization — analyze() relies on the propagated literal
        // sitting at position 0 of a reason and on conflict-clause literal
        // order. A binary retired by simplify() is root-satisfied, so its
        // surviving watcher either has a root-true blocker (kept forever,
        // search-invisible) or lives in the list of the root-true literal
        // (never traversed); neither reaches the clause access below.
        const Lit other = w.blocker_lit();
        const LBool vo = lit_value(other);
        if (vo == LBool::True) {
          *j++ = w;
          continue;
        }
        std::uint32_t* const bp = arena + w.ref;
        if (bp[0] & ClauseHandle::kDeletedBit) continue;
        if (Lit::from_code(static_cast<std::int32_t>(bp[1])) == false_lit) {
          bp[1] = static_cast<std::uint32_t>(other.code());
          bp[2] = static_cast<std::uint32_t>(false_lit.code());
        }
        *j++ = w;
        if (vo == LBool::False) {
          // Conflict: restore the remainder of the watch list and bail out.
          while (i != end) *j++ = *i++;
          ws.resize(static_cast<std::size_t>(j - ws.data()));
          qhead_ = trail_.size();
          return w.ref;
        }
        const auto v = static_cast<std::size_t>(other.var());
        assigns[v] = lbool_from(!other.negated());
        level[v] = dl;
        reason[v] = w.ref;
        polarity[v] = static_cast<unsigned char>(!other.negated());
        trail_.push_back(other);
        continue;
      }

      // Blocker fast path: the blocker is some literal of the clause cached
      // in the watcher; if it is already true the clause is satisfied and
      // nothing of the clause needs to be read — except that a stale-true
      // blocker must NOT short-circuit (the reference would move the watch
      // there), so membership in the two current watch slots is verified
      // from the clause header line before skipping. The blocker is never
      // false_lit, which makes the verified skip exactly the reference's
      // "other watch true" keep condition (see bit-identity note on top).
      std::uint32_t* const cp = arena + w.ref;
      const std::uint32_t header = cp[0];

      // Lazy detach: clauses deleted by reduce_db/simplify are dropped the
      // first time a watch list traverses them.
      if (header & ClauseHandle::kDeletedBit) continue;

      const Lit lit0 = Lit::from_code(static_cast<std::int32_t>(cp[1]));
      const Lit lit1 = Lit::from_code(static_cast<std::int32_t>(cp[2]));
      if (lit_value(w.blocker) == LBool::True &&
          (lit0 == w.blocker || lit1 == w.blocker)) {
        *j++ = w;
        continue;
      }

      // The other current watch; its truth decides keep vs move, and the
      // reference's c[0]/c[1] normalization swap is deferred until a watch
      // move or unit/conflict actually needs position 1 to hold false_lit
      // (the keep path leaves positions untouched — unobservable, see top).
      IC_ASSERT(lit0 == false_lit || lit1 == false_lit);
      const Lit first = (lit0 == false_lit) ? lit1 : lit0;
      const LBool vfirst = lit_value(first);

      if (vfirst == LBool::True) {
        *j++ = {w.ref, first};  // clause satisfied by the other watch
        continue;
      }

      // Normalize: the false literal sits at position 1.
      if (lit0 == false_lit) {
        cp[1] = static_cast<std::uint32_t>(first.code());
        cp[2] = static_cast<std::uint32_t>(false_lit.code());
      }

      // Look for a replacement watch.
      const std::uint32_t size = header >> ClauseHandle::kSizeShift;
      bool moved = false;
      for (std::uint32_t k = 2; k < size; ++k) {
        const Lit lk = Lit::from_code(static_cast<std::int32_t>(cp[1 + k]));
        if (lit_value(lk) != LBool::False) {
          cp[2] = static_cast<std::uint32_t>(lk.code());
          cp[1 + k] = static_cast<std::uint32_t>(false_lit.code());
          watches_[static_cast<std::size_t>(lk.code())].push_back({w.ref, first});
          moved = true;
          break;
        }
      }
      if (moved) continue;

      // Clause is unit or conflicting under the current assignment.
      *j++ = {w.ref, first};
      if (vfirst == LBool::False) {
        // Conflict: restore the remainder of the watch list and bail out.
        while (i != end) *j++ = *i++;
        ws.resize(static_cast<std::size_t>(j - ws.data()));
        qhead_ = trail_.size();
        return w.ref;
      }
      // Unit: enqueue `first`, inlined against the hoisted bases.
      const auto v = static_cast<std::size_t>(first.var());
      assigns[v] = lbool_from(!first.negated());
      level[v] = dl;
      reason[v] = w.ref;
      polarity[v] = static_cast<unsigned char>(!first.negated());
      trail_.push_back(first);
    }
    ws.resize(static_cast<std::size_t>(j - ws.data()));
  }
  return kNoReason;
}

void Solver::cancel_until(int target_level) {
  if (decision_level() <= target_level) return;
  const std::size_t bound = trail_lim_[static_cast<std::size_t>(target_level)];
  for (std::size_t i = trail_.size(); i-- > bound;) {
    const auto v = static_cast<std::size_t>(trail_[i].var());
    assigns_[v] = LBool::Undef;
    reason_[v] = kNoReason;
    if (heap_pos_[v] < 0) heap_insert(static_cast<Var>(v));
  }
  trail_.resize(bound);
  trail_lim_.resize(static_cast<std::size_t>(target_level));
  qhead_ = trail_.size();
}

// ------------------------------------------------------ conflict analysis --

void Solver::bump_var(Var v) {
  activity_[static_cast<std::size_t>(v)] += var_inc_;
  if (activity_[static_cast<std::size_t>(v)] > 1e100) {
    for (double& a : activity_) a *= 1e-100;
    var_inc_ *= 1e-100;
  }
  if (heap_pos_[static_cast<std::size_t>(v)] >= 0) heap_update(v);
}

void Solver::bump_clause(ClauseHandle c) {
  const double a = c.activity() + clause_inc_;
  c.set_activity(a);
  if (a > 1e20) {
    for (const ClauseRef ref : learnts_) {
      ClauseHandle h = arena_.get(ref);
      h.set_activity(h.activity() * 1e-20);
    }
    clause_inc_ *= 1e-20;
  }
}

void Solver::analyze(ClauseRef conflict, std::vector<Lit>& out_learnt,
                     int& out_level) {
  out_learnt.clear();
  out_learnt.push_back(Lit::from_code(-2));  // placeholder for the 1-UIP literal

  int counter = 0;
  Lit p = Lit::from_code(-2);
  std::size_t index = trail_.size();
  ClauseRef reason_ref = conflict;

  // Hoisted bases (same rationale as propagate): no reallocation happens
  // during the resolution walk, only element reads and seen-flag writes.
  std::uint32_t* const arena = arena_.raw();
  unsigned char* const seen = seen_.data();
  const int* const lvl = level_.data();
  const Lit* const trail = trail_.data();
  const int dl = decision_level();

  do {
    IC_ASSERT(reason_ref != kNoReason);
    std::uint32_t* const cp = arena + reason_ref;
    if (cp[0] & ClauseHandle::kLearntBit) bump_clause(ClauseHandle(cp));
    const std::uint32_t start = (p.code() == -2) ? 0 : 1;
    const std::uint32_t size = cp[0] >> ClauseHandle::kSizeShift;
    for (std::uint32_t i = start; i < size; ++i) {
      const Lit q = Lit::from_code(static_cast<std::int32_t>(cp[1 + i]));
      const auto qv = static_cast<std::size_t>(q.var());
      if (!seen[qv] && lvl[qv] > 0) {
        seen[qv] = 1;
        bump_var(q.var());
        if (lvl[qv] >= dl) {
          ++counter;
        } else {
          out_learnt.push_back(q);
        }
      }
    }
    // Walk back to the most recently assigned seen literal.
    while (!seen[static_cast<std::size_t>(trail[index - 1].var())]) --index;
    --index;
    p = trail[index];
    reason_ref = reason_[static_cast<std::size_t>(p.var())];
    seen[static_cast<std::size_t>(p.var())] = 0;
    --counter;
  } while (counter > 0);
  out_learnt[0] = ~p;

  // Simple clause minimization: drop literals whose reason clause is fully
  // covered by the remaining learnt literals.
  std::uint32_t abstract_levels = 0;
  for (std::size_t i = 1; i < out_learnt.size(); ++i) {
    abstract_levels |= 1u << (static_cast<std::uint32_t>(level(out_learnt[i].var())) & 31u);
  }
  analyze_toclear_.assign(out_learnt.begin(), out_learnt.end());
  std::size_t keep = 1;
  for (std::size_t i = 1; i < out_learnt.size(); ++i) {
    const Lit l = out_learnt[i];
    if (reason_[static_cast<std::size_t>(l.var())] == kNoReason ||
        !lit_redundant(l, abstract_levels)) {
      out_learnt[keep++] = l;
    }
  }
  out_learnt.resize(keep);
  // Clear seen flags for every literal that participated, including the ones
  // minimization just dropped.
  for (const Lit l : analyze_toclear_) {
    seen_[static_cast<std::size_t>(l.var())] = false;
  }
  stats_.learnt_literals += out_learnt.size();

  // Backtrack level: the second-highest level in the learnt clause.
  if (out_learnt.size() == 1) {
    out_level = 0;
  } else {
    std::size_t max_i = 1;
    for (std::size_t i = 2; i < out_learnt.size(); ++i) {
      if (level(out_learnt[i].var()) > level(out_learnt[max_i].var())) max_i = i;
    }
    std::swap(out_learnt[1], out_learnt[max_i]);
    out_level = level(out_learnt[1].var());
  }
}

bool Solver::lit_redundant(Lit l, std::uint32_t abstract_levels) {
  // Non-recursive single-step check: every literal of l's reason (other than
  // l itself) must already be seen and at a level present in the clause.
  const ClauseRef ref = reason_[static_cast<std::size_t>(l.var())];
  if (ref == kNoReason) return false;
  const std::uint32_t* const cp = arena_.raw() + ref;
  const unsigned char* const seen = seen_.data();
  const int* const lvl = level_.data();
  const std::uint32_t size = cp[0] >> ClauseHandle::kSizeShift;
  for (std::uint32_t i = 0; i < size; ++i) {
    const Lit q = Lit::from_code(static_cast<std::int32_t>(cp[1 + i]));
    const auto qv = static_cast<std::size_t>(q.var());
    if (q.var() == l.var()) continue;
    if (lvl[qv] == 0) continue;
    if (!seen[qv]) return false;
    if ((1u << (static_cast<std::uint32_t>(lvl[qv]) & 31u) & abstract_levels) == 0) {
      return false;
    }
  }
  return true;
}

// -------------------------------------------------------------- reduce DB --

void Solver::reduce_db() {
  // Sort a scratch copy: learnts_ stays in allocation order, which is the
  // tie-break order the reference feeds its (unstable) sort.
  reduce_tmp_.assign(learnts_.begin(), learnts_.end());
  std::sort(reduce_tmp_.begin(), reduce_tmp_.end(),
            [&](ClauseRef a, ClauseRef b) {
              return arena_.get(a).activity() < arena_.get(b).activity();
            });

  auto locked = [&](ClauseRef ref) {
    const Lit l = arena_.get(ref).lit(0);
    return value(l) == LBool::True &&
           reason_[static_cast<std::size_t>(l.var())] == ref;
  };

  for (std::size_t i = 0; i < reduce_tmp_.size() / 2; ++i) {
    const ClauseRef ref = reduce_tmp_[i];
    if (arena_.get(ref).size() <= 2 || locked(ref)) continue;
    remove_clause(ref);
    --num_learnt_clauses_;
  }
  learnts_.erase(std::remove_if(learnts_.begin(), learnts_.end(),
                                [&](ClauseRef ref) {
                                  return arena_.get(ref).is_deleted();
                                }),
                 learnts_.end());
  check_garbage();
}

// --------------------------------------------------------------- branching --

void Solver::heap_insert(Var v) {
  IC_ASSERT(heap_pos_[static_cast<std::size_t>(v)] < 0);
  heap_.push_back(v);
  heap_pos_[static_cast<std::size_t>(v)] = static_cast<int>(heap_.size() - 1);
  heap_sift_up(heap_.size() - 1);
}

void Solver::heap_update(Var v) {
  const int pos = heap_pos_[static_cast<std::size_t>(v)];
  IC_ASSERT(pos >= 0);
  heap_sift_up(static_cast<std::size_t>(pos));
}

Var Solver::heap_pop() {
  IC_ASSERT(!heap_.empty());
  const Var top = heap_[0];
  heap_pos_[static_cast<std::size_t>(top)] = -1;
  heap_[0] = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    heap_pos_[static_cast<std::size_t>(heap_[0])] = 0;
    heap_sift_down(0);
  }
  return top;
}

void Solver::heap_sift_up(std::size_t i) {
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (activity_[static_cast<std::size_t>(heap_[i])] <=
        activity_[static_cast<std::size_t>(heap_[parent])]) {
      break;
    }
    std::swap(heap_[i], heap_[parent]);
    heap_pos_[static_cast<std::size_t>(heap_[i])] = static_cast<int>(i);
    heap_pos_[static_cast<std::size_t>(heap_[parent])] = static_cast<int>(parent);
    i = parent;
  }
}

void Solver::heap_sift_down(std::size_t i) {
  for (;;) {
    const std::size_t left = 2 * i + 1;
    const std::size_t right = 2 * i + 2;
    std::size_t best = i;
    if (left < heap_.size() && activity_[static_cast<std::size_t>(heap_[left])] >
                                   activity_[static_cast<std::size_t>(heap_[best])]) {
      best = left;
    }
    if (right < heap_.size() && activity_[static_cast<std::size_t>(heap_[right])] >
                                    activity_[static_cast<std::size_t>(heap_[best])]) {
      best = right;
    }
    if (best == i) break;
    std::swap(heap_[i], heap_[best]);
    heap_pos_[static_cast<std::size_t>(heap_[i])] = static_cast<int>(i);
    heap_pos_[static_cast<std::size_t>(heap_[best])] = static_cast<int>(best);
    i = best;
  }
}

Lit Solver::pick_branch_lit() {
  while (!heap_.empty()) {
    const Var v = heap_pop();
    if (value(v) == LBool::Undef) {
      return Lit(v, !polarity_[static_cast<std::size_t>(v)]);
    }
  }
  return Lit::from_code(-2);
}

std::uint64_t Solver::luby(std::uint64_t x) {
  // Luby sequence: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ...
  std::uint64_t size = 1;
  std::uint64_t seq = 0;
  while (size < x + 1) {
    ++seq;
    size = 2 * size + 1;
  }
  while (size - 1 != x) {
    size = (size - 1) >> 1;
    --seq;
    x %= size;
  }
  return std::uint64_t{1} << seq;
}

// ----------------------------------------------------- garbage collection --

void Solver::check_garbage() {
  if (arena_.should_collect()) garbage_collect();
}

void Solver::garbage_collect() {
  ClauseArena to;
  to.reserve(arena_.size_words() - arena_.wasted_words());

  // Watch lists: drop lazily detached clauses, forward live ones. Relative
  // order of live entries is preserved, so propagation order is unchanged.
  for (auto& ws : watches_) {
    std::size_t keep = 0;
    for (Watcher& w : ws) {
      if (arena_.get(w.ref).is_deleted()) continue;
      arena_.reloc(w.ref, to);
      ws[keep++] = w;
    }
    ws.resize(keep);
  }

  // Reasons. A reason may point at a clause simplify() retired as root
  // satisfied; such a reason belongs to a level-0 variable and is never
  // dereferenced (analyze skips level-0 literals), so null it out.
  for (const Lit l : trail_) {
    const auto v = static_cast<std::size_t>(l.var());
    const ClauseRef ref = reason_[v];
    if (ref == kNoReason) continue;
    if (arena_.get(ref).is_deleted()) {
      reason_[v] = kNoReason;
    } else {
      arena_.reloc(reason_[v], to);
    }
  }

  for (ClauseRef& ref : clauses_) arena_.reloc(ref, to);
  for (ClauseRef& ref : learnts_) arena_.reloc(ref, to);

  arena_ = std::move(to);
}

// ------------------------------------------------------------------ solve --

void Solver::simplify_list(std::vector<ClauseRef>& list, std::size_t& live_count) {
  std::size_t keep = 0;
  for (const ClauseRef ref : list) {
    ClauseHandle c = arena_.get(ref);
    const std::uint32_t size = c.size();
    bool satisfied = false;
    for (std::uint32_t i = 0; i < size; ++i) {
      if (value(c.lit(i)) == LBool::True) {
        satisfied = true;
        break;
      }
    }
    if (satisfied) {
      remove_clause(ref);
      --live_count;
      continue;
    }
    // Strip root-false literals beyond the two watched positions (removing
    // those would require re-watching; they cannot be root-false anyway,
    // since propagation would have fired on such a clause).
    if (size > 2) {
      std::uint32_t k = 2;
      for (std::uint32_t i = 2; i < size; ++i) {
        if (value(c.lit(i)) != LBool::False) c.set_lit(k++, c.lit(i));
      }
      arena_.shrink_clause(ref, k);
    }
    list[keep++] = ref;
  }
  list.resize(keep);
}

void Solver::simplify() {
  IC_ASSERT(decision_level() == 0);
  if (simplify_trail_size_ == trail_.size()) return;
  simplify_list(clauses_, num_problem_clauses_);
  simplify_list(learnts_, num_learnt_clauses_);
  simplify_trail_size_ = trail_.size();
  check_garbage();
}

Result Solver::solve(const std::vector<Lit>& assumptions) {
  if (!ok_) return Result::Unsat;
  cancel_until(0);
  if (propagate() != kNoReason) {
    ok_ = false;
    return Result::Unsat;
  }
  simplify();

  const std::uint64_t conflict_budget = max_conflicts_;
  const std::uint64_t start_conflicts = stats_.conflicts;
  std::uint64_t restart_count = 0;
  std::uint64_t conflicts_since_restart = 0;
  std::uint64_t restart_limit = kRestartBase * luby(restart_count);

  std::vector<Lit> learnt;
  for (;;) {
    const ClauseRef conflict = propagate();
    if (conflict != kNoReason) {
      ++stats_.conflicts;
      ++conflicts_since_restart;
      if (decision_level() == 0) {
        ok_ = false;
        return Result::Unsat;
      }
      int bt_level = 0;
      analyze(conflict, learnt, bt_level);
      // Never backtrack past assumption decisions unless forced: if the
      // backtrack level is inside the assumption prefix, the conflict clause
      // will re-propagate there and either succeed or expose an unsatisfied
      // assumption in the branching step.
      cancel_until(bt_level);
      if (learnt.size() == 1) {
        enqueue(learnt[0], kNoReason);
      } else {
        const ClauseRef ref = arena_.alloc(
            learnt.data(), static_cast<std::uint32_t>(learnt.size()),
            /*learnt=*/true);
        learnts_.push_back(ref);
        attach_clause(ref);
        ++num_learnt_clauses_;
        bump_clause(arena_.get(ref));
        enqueue(learnt[0], ref);
      }
      var_inc_ /= kVarDecay;
      clause_inc_ /= kClauseDecay;

      if (conflict_budget != 0 &&
          stats_.conflicts - start_conflicts >= conflict_budget) {
        cancel_until(0);
        return Result::Unknown;
      }
      continue;
    }

    // No conflict.
    if (conflicts_since_restart >= restart_limit) {
      ++stats_.restarts;
      ++restart_count;
      conflicts_since_restart = 0;
      restart_limit = kRestartBase * luby(restart_count);
      cancel_until(0);
      continue;
    }

    if (num_learnt_clauses_ >
        std::max(kDbBase,
                 static_cast<std::size_t>(kDbFactor *
                                          static_cast<double>(num_problem_clauses_)))) {
      reduce_db();
    }

    // Place assumptions as the first decisions.
    if (static_cast<std::size_t>(decision_level()) < assumptions.size()) {
      const Lit p = assumptions[static_cast<std::size_t>(decision_level())];
      if (value(p) == LBool::True) {
        new_decision_level();  // dummy level keeps assumption indices aligned
      } else if (value(p) == LBool::False) {
        cancel_until(0);
        return Result::Unsat;  // assumptions are inconsistent with the formula
      } else {
        new_decision_level();
        enqueue(p, kNoReason);
      }
      continue;
    }

    const Lit next = pick_branch_lit();
    if (next.code() == -2) {
      // Full assignment: snapshot the model, then restore level 0 so the
      // solver is immediately ready for more clauses or another solve.
      model_ = assigns_;
      cancel_until(0);
      return Result::Sat;
    }
    ++stats_.decisions;
    new_decision_level();
    enqueue(next, kNoReason);
  }
}

bool Solver::model_value(Var v) const {
  IC_ASSERT(v >= 0 && v < next_var_);
  IC_ASSERT_MSG(static_cast<std::size_t>(v) < model_.size(),
                "model_value queried without a model");
  const LBool b = model_[static_cast<std::size_t>(v)];
  IC_ASSERT_MSG(b != LBool::Undef, "model_value queried without a model");
  return b == LBool::True;
}

}  // namespace ic::sat
