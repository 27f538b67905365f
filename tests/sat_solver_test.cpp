#include <gtest/gtest.h>

#include "ic/sat/dimacs.hpp"
#include "ic/sat/solver.hpp"
#include "ic/support/rng.hpp"

namespace ic::sat {
namespace {

TEST(Solver, TrivialSat) {
  Solver s;
  const Var a = s.new_var();
  s.add_clause({pos(a)});
  EXPECT_EQ(s.solve(), Result::Sat);
  EXPECT_TRUE(s.model_value(a));
}

TEST(Solver, TrivialUnsat) {
  Solver s;
  const Var a = s.new_var();
  s.add_clause({pos(a)});
  EXPECT_FALSE(s.add_clause({neg(a)}));
  EXPECT_EQ(s.solve(), Result::Unsat);
  EXPECT_FALSE(s.okay());
}

TEST(Solver, EmptyClauseMakesUnsat) {
  Solver s;
  (void)s.new_var();
  EXPECT_FALSE(s.add_clause({}));
  EXPECT_EQ(s.solve(), Result::Unsat);
}

TEST(Solver, TautologyAndDuplicatesSimplified) {
  Solver s;
  const Var a = s.new_var();
  const Var b = s.new_var();
  EXPECT_TRUE(s.add_clause({pos(a), neg(a)}));            // tautology dropped
  EXPECT_TRUE(s.add_clause({pos(b), pos(b), pos(b)}));    // dedup to unit
  EXPECT_EQ(s.solve(), Result::Sat);
  EXPECT_TRUE(s.model_value(b));
}

TEST(Solver, ClausesAddedCountsOnlyAttachedClauses) {
  Solver s;
  const Var a = s.new_var();
  const Var b = s.new_var();
  const Var c = s.new_var();

  EXPECT_TRUE(s.add_clause({pos(a), neg(a), pos(b)}));  // tautology: dropped
  EXPECT_EQ(s.stats().clauses_added, 0u);

  EXPECT_TRUE(s.add_clause({pos(a)}));  // unit enqueue, not a DB clause
  EXPECT_EQ(s.stats().clauses_added, 0u);

  EXPECT_TRUE(s.add_clause({pos(a), pos(b)}));  // satisfied at root: dropped
  EXPECT_EQ(s.stats().clauses_added, 0u);

  // Root-false literal stripped, but the remaining binary is attached.
  EXPECT_TRUE(s.add_clause({neg(a), pos(b), pos(c)}));
  EXPECT_EQ(s.stats().clauses_added, 1u);
  EXPECT_EQ(s.num_clauses(), 1u);

  EXPECT_TRUE(s.add_clause({pos(b), neg(c)}));  // plain attach
  EXPECT_EQ(s.stats().clauses_added, 2u);

  // The empty clause (after stripping ¬a) makes the solver Unsat and is not
  // counted either.
  EXPECT_FALSE(s.add_clause({neg(a)}));
  EXPECT_EQ(s.stats().clauses_added, 2u);
}

TEST(Solver, ImplicationChainPropagates) {
  Solver s;
  std::vector<Var> v;
  for (int i = 0; i < 20; ++i) v.push_back(s.new_var());
  for (int i = 0; i + 1 < 20; ++i) s.add_clause({neg(v[i]), pos(v[i + 1])});
  s.add_clause({pos(v[0])});
  EXPECT_EQ(s.solve(), Result::Sat);
  for (int i = 0; i < 20; ++i) EXPECT_TRUE(s.model_value(v[i]));
}

TEST(Solver, XorChainSat) {
  // x0 ^ x1 = 1, x1 ^ x2 = 1, ... forces alternation.
  Solver s;
  std::vector<Var> v;
  for (int i = 0; i < 10; ++i) v.push_back(s.new_var());
  for (int i = 0; i + 1 < 10; ++i) {
    s.add_clause({pos(v[i]), pos(v[i + 1])});
    s.add_clause({neg(v[i]), neg(v[i + 1])});
  }
  s.add_clause({pos(v[0])});
  EXPECT_EQ(s.solve(), Result::Sat);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(s.model_value(v[i]), i % 2 == 0);
}

// Pigeonhole principle PHP(n+1, n): unsatisfiable, forces real conflict
// analysis and learning.
void add_php(Solver& s, int pigeons, int holes) {
  std::vector<std::vector<Var>> x(pigeons, std::vector<Var>(holes));
  for (auto& row : x) {
    for (auto& v : row) v = s.new_var();
  }
  for (int p = 0; p < pigeons; ++p) {
    std::vector<Lit> c;
    for (int h = 0; h < holes; ++h) c.push_back(pos(x[p][h]));
    s.add_clause(c);
  }
  for (int h = 0; h < holes; ++h) {
    for (int p1 = 0; p1 < pigeons; ++p1) {
      for (int p2 = p1 + 1; p2 < pigeons; ++p2) {
        s.add_clause({neg(x[p1][h]), neg(x[p2][h])});
      }
    }
  }
}

TEST(Solver, PigeonholeUnsat) {
  for (int n = 2; n <= 6; ++n) {
    Solver s;
    add_php(s, n + 1, n);
    EXPECT_EQ(s.solve(), Result::Unsat) << "PHP(" << n + 1 << "," << n << ")";
    if (n >= 4) {
      EXPECT_GT(s.stats().conflicts, 0u);
    }
  }
}

TEST(Solver, PigeonholeEqualSat) {
  Solver s;
  add_php(s, 5, 5);
  EXPECT_EQ(s.solve(), Result::Sat);
}

TEST(Solver, AssumptionsRestrictWithoutCommitting) {
  Solver s;
  const Var a = s.new_var();
  const Var b = s.new_var();
  s.add_clause({pos(a), pos(b)});
  EXPECT_EQ(s.solve({neg(a)}), Result::Sat);
  EXPECT_TRUE(s.model_value(b));
  EXPECT_EQ(s.solve({neg(b)}), Result::Sat);
  EXPECT_TRUE(s.model_value(a));
  EXPECT_EQ(s.solve({neg(a), neg(b)}), Result::Unsat);
  // The formula itself is still satisfiable afterwards.
  EXPECT_EQ(s.solve(), Result::Sat);
  EXPECT_TRUE(s.okay());
}

TEST(Solver, IncrementalAddAfterSolve) {
  Solver s;
  const Var a = s.new_var();
  const Var b = s.new_var();
  s.add_clause({pos(a), pos(b)});
  EXPECT_EQ(s.solve(), Result::Sat);
  s.add_clause({neg(a)});
  EXPECT_EQ(s.solve(), Result::Sat);
  EXPECT_TRUE(s.model_value(b));
  s.add_clause({neg(b)});
  EXPECT_EQ(s.solve(), Result::Unsat);
}

TEST(Solver, ConflictBudgetReturnsUnknown) {
  Solver s;
  s.set_max_conflicts(1);
  add_php(s, 7, 6);  // needs far more than one conflict
  EXPECT_EQ(s.solve(), Result::Unknown);
  EXPECT_TRUE(s.okay());
  // Raising the budget lets it finish.
  s.set_max_conflicts(0);
  EXPECT_EQ(s.solve(), Result::Unsat);
}

// Property test: random 3-SAT instances cross-checked against brute force.
class Random3Sat : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Random3Sat, AgreesWithBruteForce) {
  Rng rng(GetParam());
  for (int round = 0; round < 20; ++round) {
    const int nvars = 6 + static_cast<int>(rng.index(7));  // 6..12
    const int nclauses = static_cast<int>(rng.index(
                             static_cast<std::size_t>(5 * nvars))) +
                         nvars;
    Cnf cnf;
    for (int v = 0; v < nvars; ++v) cnf.new_var();
    Solver s;
    for (int v = 0; v < nvars; ++v) (void)s.new_var();
    bool solver_trivially_unsat = false;
    for (int c = 0; c < nclauses; ++c) {
      std::vector<Lit> clause;
      for (int k = 0; k < 3; ++k) {
        clause.emplace_back(static_cast<Var>(rng.index(static_cast<std::size_t>(nvars))),
                            rng.bernoulli(0.5));
      }
      cnf.add_clause(clause);
      if (!s.add_clause(clause)) solver_trivially_unsat = true;
    }
    // Brute force.
    bool brute_sat = false;
    for (std::uint64_t m = 0; m < (std::uint64_t{1} << nvars) && !brute_sat; ++m) {
      std::vector<bool> assign(static_cast<std::size_t>(nvars));
      for (int v = 0; v < nvars; ++v) assign[static_cast<std::size_t>(v)] = (m >> v) & 1u;
      brute_sat = cnf_satisfied(cnf, assign);
    }
    const Result r = s.solve();
    if (brute_sat) {
      ASSERT_EQ(r, Result::Sat) << "round " << round;
      // Verify the model against the CNF.
      std::vector<bool> model(static_cast<std::size_t>(nvars));
      for (int v = 0; v < nvars; ++v) {
        model[static_cast<std::size_t>(v)] = s.model_value(static_cast<Var>(v));
      }
      EXPECT_TRUE(cnf_satisfied(cnf, model)) << "round " << round;
    } else {
      ASSERT_TRUE(r == Result::Unsat || solver_trivially_unsat) << "round " << round;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Random3Sat,
                         ::testing::Values(101u, 202u, 303u, 404u, 505u));

TEST(Solver, StatsAccumulate) {
  Solver s;
  add_php(s, 6, 5);
  EXPECT_EQ(s.solve(), Result::Unsat);
  EXPECT_GT(s.stats().propagations, 0u);
  EXPECT_GT(s.stats().decisions, 0u);
  EXPECT_GT(s.stats().conflicts, 0u);
}

TEST(Solver, ManyVariablesLargeRandomSatisfiable) {
  // Satisfiable by construction: plant a solution and only emit clauses it
  // satisfies.
  Rng rng(999);
  const int nvars = 300;
  std::vector<bool> planted(nvars);
  for (auto&& b : planted) b = rng.bernoulli(0.5);
  Solver s;
  for (int v = 0; v < nvars; ++v) (void)s.new_var();
  for (int c = 0; c < 1500; ++c) {
    std::vector<Lit> clause;
    bool satisfied = false;
    for (int k = 0; k < 3; ++k) {
      const Var v = static_cast<Var>(rng.index(nvars));
      const bool negated = rng.bernoulli(0.5);
      clause.emplace_back(v, negated);
      if (planted[static_cast<std::size_t>(v)] != negated) satisfied = true;
    }
    if (!satisfied) clause[0] = ~clause[0];
    s.add_clause(clause);
  }
  EXPECT_EQ(s.solve(), Result::Sat);
}

}  // namespace
}  // namespace ic::sat

namespace ic::sat {
namespace {

TEST(SolverSimplify, RootUnitsRetireSatisfiedClauses) {
  Solver s;
  const Var a = s.new_var();
  const Var b = s.new_var();
  const Var c = s.new_var();
  s.add_clause({pos(a), pos(b)});
  s.add_clause({pos(a), pos(c)});
  s.add_clause({neg(b), pos(c)});
  const std::size_t before = s.num_clauses();
  EXPECT_EQ(before, 3u);
  s.add_clause({pos(a)});           // unit: satisfies the first two clauses
  EXPECT_EQ(s.solve(), Result::Sat);  // solve() runs simplify()
  EXPECT_LT(s.num_clauses(), before);
  // Semantics preserved: b still forces c.
  EXPECT_EQ(s.solve({pos(b), neg(c)}), Result::Unsat);
  EXPECT_EQ(s.solve({pos(b), pos(c)}), Result::Sat);
}

TEST(SolverSimplify, ManyIncrementalRoundsStayConsistent) {
  // Alternate adding implication chains and units; answers must stay
  // consistent with a brute-force view of the accumulated formula.
  Solver s;
  Cnf mirror;
  Rng rng(4242);
  const int nvars = 10;
  for (int v = 0; v < nvars; ++v) {
    (void)s.new_var();
    (void)mirror.new_var();
  }
  for (int round = 0; round < 30; ++round) {
    std::vector<Lit> clause;
    const std::size_t len = 1 + rng.index(3);
    for (std::size_t i = 0; i < len; ++i) {
      clause.emplace_back(static_cast<Var>(rng.index(nvars)), rng.bernoulli(0.5));
    }
    mirror.add_clause(clause);
    s.add_clause(clause);
    bool brute = false;
    for (std::uint64_t m = 0; m < (1u << nvars) && !brute; ++m) {
      std::vector<bool> assign(nvars);
      for (int v = 0; v < nvars; ++v) assign[v] = (m >> v) & 1;
      brute = cnf_satisfied(mirror, assign);
    }
    const Result r = s.solve();
    if (brute) {
      ASSERT_EQ(r, Result::Sat) << "round " << round;
    } else {
      ASSERT_EQ(r, Result::Unsat) << "round " << round;
      break;  // once unsat, always unsat
    }
  }
}

}  // namespace
}  // namespace ic::sat
