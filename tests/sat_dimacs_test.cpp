#include <gtest/gtest.h>

#include "ic/sat/dimacs.hpp"
#include "ic/sat/solver.hpp"

namespace ic::sat {
namespace {

TEST(Dimacs, ParseSimple) {
  const Cnf cnf = parse_dimacs("c comment\np cnf 3 2\n1 -2 0\n2 3 0\n");
  EXPECT_EQ(cnf.num_vars, 3u);
  ASSERT_EQ(cnf.clauses.size(), 2u);
  EXPECT_EQ(cnf.clauses[0][0].dimacs(), 1);
  EXPECT_EQ(cnf.clauses[0][1].dimacs(), -2);
}

TEST(Dimacs, RoundTrip) {
  Cnf cnf;
  const Var a = cnf.new_var();
  const Var b = cnf.new_var();
  cnf.add_clause({pos(a), neg(b)});
  cnf.add_clause({neg(a)});
  const Cnf rt = parse_dimacs(write_dimacs(cnf));
  EXPECT_EQ(rt.num_vars, cnf.num_vars);
  ASSERT_EQ(rt.clauses.size(), cnf.clauses.size());
  for (std::size_t i = 0; i < cnf.clauses.size(); ++i) {
    ASSERT_EQ(rt.clauses[i].size(), cnf.clauses[i].size());
    for (std::size_t j = 0; j < cnf.clauses[i].size(); ++j) {
      EXPECT_EQ(rt.clauses[i][j], cnf.clauses[i][j]);
    }
  }
}

TEST(Dimacs, MultiClausePerLine) {
  const Cnf cnf = parse_dimacs("p cnf 2 2\n1 0 2 0\n");
  EXPECT_EQ(cnf.clauses.size(), 2u);
}

TEST(Dimacs, Errors) {
  EXPECT_THROW(parse_dimacs("1 2 0\n"), std::runtime_error);            // no header
  EXPECT_THROW(parse_dimacs("p cnf 2 1\n1 2\n"), std::runtime_error);   // no terminator
  EXPECT_THROW(parse_dimacs("p cnf 2 5\n1 0\n"), std::runtime_error);   // count mismatch
  EXPECT_THROW(parse_dimacs("p cnf x y\n"), std::runtime_error);        // bad header
  EXPECT_THROW(parse_dimacs("p cnf 1 1\nfoo 0\n"), std::runtime_error); // bad literal
  // Numbers must be whole and fit: Lit encodes variables up to 2^30.
  EXPECT_THROW(parse_dimacs("p cnf 1 1\n3000000000 0\n"), std::runtime_error);
  EXPECT_THROW(parse_dimacs("p cnf 1 1\n-9223372036854775808 0\n"),
               std::runtime_error);
  EXPECT_THROW(parse_dimacs("p cnf 1 1\n1073741825 0\n"), std::runtime_error);
  EXPECT_THROW(parse_dimacs("p cnf -1 1\n1 0\n"), std::runtime_error);
  EXPECT_THROW(parse_dimacs("p cnf 2x 1\n1 0\n"), std::runtime_error);
  EXPECT_THROW(parse_dimacs("p cnf 1073741825 1\n1 0\n"), std::runtime_error);
  EXPECT_THROW(parse_dimacs("p cnf 1 1\n+1 0\n"), std::runtime_error);
}

TEST(Dimacs, AcceptsTheLargestEncodableVariable) {
  const Cnf cnf = parse_dimacs("p cnf 1073741824 1\n-1073741824 0\n");
  EXPECT_EQ(cnf.num_vars, std::size_t{1} << 30);
  ASSERT_EQ(cnf.clauses.size(), 1u);
  EXPECT_EQ(cnf.clauses[0][0].dimacs(), -1073741824);
}

TEST(Dimacs, CnfSatisfiedEvaluates) {
  Cnf cnf;
  const Var a = cnf.new_var();
  const Var b = cnf.new_var();
  cnf.add_clause({pos(a), pos(b)});
  cnf.add_clause({neg(a), pos(b)});
  EXPECT_TRUE(cnf_satisfied(cnf, {false, true}));
  EXPECT_TRUE(cnf_satisfied(cnf, {true, true}));
  EXPECT_FALSE(cnf_satisfied(cnf, {true, false}));
  EXPECT_FALSE(cnf_satisfied(cnf, {false, false}));
}

TEST(Dimacs, SolverIntegration) {
  const Cnf cnf = parse_dimacs("p cnf 3 3\n1 2 0\n-1 3 0\n-2 -3 0\n");
  Solver s;
  for (std::size_t v = 0; v < cnf.num_vars; ++v) (void)s.new_var();
  for (const auto& c : cnf.clauses) s.add_clause(c);
  ASSERT_EQ(s.solve(), Result::Sat);
  std::vector<bool> model(cnf.num_vars);
  for (std::size_t v = 0; v < cnf.num_vars; ++v) {
    model[v] = s.model_value(static_cast<Var>(v));
  }
  EXPECT_TRUE(cnf_satisfied(cnf, model));
}

}  // namespace
}  // namespace ic::sat
