// Bit-identical-search guard for the SAT core.
//
// The dataset labels are SolverStats counters (DESIGN.md §3), so any change
// to the solver's memory layout must leave the search trace — decisions,
// propagations, conflicts, restarts, learnt literals, and extracted keys —
// exactly equal. Two complementary checks:
//
//  1. A committed golden corpus (tests/golden/sat_stats.txt): a fixed set of
//     CNF instances, locked-circuit attacks, and CEC queries, each with the
//     stats the reference implementation produced. The test re-runs every
//     entry and compares the full record string. Regenerate (only when a
//     heuristic change is *intended*, which is a dataset-versioning event —
//     DESIGN.md §11) with:
//
//         IC_REGEN_GOLDEN=tests/golden/sat_stats.txt ./sat_golden_test
//
//  2. A differential test: random CNFs (≤16 vars, mixed clause lengths,
//     incremental adds, assumptions) cross-checked against brute-force
//     enumeration. This guards semantics where the corpus guards the trace.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "ic/attack/cec.hpp"
#include "ic/attack/sat_attack.hpp"
#include "ic/circuit/generator.hpp"
#include "ic/circuit/library.hpp"
#include "ic/locking/lut_lock.hpp"
#include "ic/locking/policy.hpp"
#include "ic/locking/xor_lock.hpp"
#include "ic/sat/dimacs.hpp"
#include "ic/sat/solver.hpp"
#include "ic/support/rng.hpp"

#ifndef IC_GOLDEN_FILE
#define IC_GOLDEN_FILE "tests/golden/sat_stats.txt"
#endif

namespace ic::sat {
namespace {

const char* result_name(Result r) {
  switch (r) {
    case Result::Sat: return "sat";
    case Result::Unsat: return "unsat";
    case Result::Unknown: return "unknown";
  }
  return "?";
}

std::string stats_payload(Result r, const Solver& s) {
  std::ostringstream os;
  const SolverStats& st = s.stats();
  os << "r=" << result_name(r) << " d=" << st.decisions
     << " p=" << st.propagations << " c=" << st.conflicts
     << " re=" << st.restarts << " ll=" << st.learnt_literals
     << " nc=" << s.num_clauses();
  return os.str();
}

std::string bits(const std::vector<bool>& v) {
  std::string out;
  out.reserve(v.size());
  for (const bool b : v) out.push_back(b ? '1' : '0');
  return out.empty() ? "-" : out;
}

void add_php(Solver& s, int pigeons, int holes) {
  std::vector<std::vector<Var>> x(static_cast<std::size_t>(pigeons),
                                  std::vector<Var>(static_cast<std::size_t>(holes)));
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

/// One deterministic random CNF: mixed clause lengths 1..4, biased to 3.
std::vector<std::vector<Lit>> random_cnf(Rng& rng, int nvars, int nclauses) {
  std::vector<std::vector<Lit>> cnf;
  cnf.reserve(static_cast<std::size_t>(nclauses));
  for (int c = 0; c < nclauses; ++c) {
    const std::size_t len = rng.bernoulli(0.75) ? 3 : 1 + rng.index(4);
    std::vector<Lit> clause;
    for (std::size_t k = 0; k < len; ++k) {
      clause.emplace_back(static_cast<Var>(rng.index(static_cast<std::size_t>(nvars))),
                          rng.bernoulli(0.5));
    }
    cnf.push_back(std::move(clause));
  }
  return cnf;
}

/// The corpus: every entry is `name -> record string`, a pure function of
/// the solver implementation. Construction uses only the public API.
std::vector<std::pair<std::string, std::string>> build_corpus() {
  std::vector<std::pair<std::string, std::string>> corpus;

  // -- Random CNFs, plain + assumption solves on the same solver ----------
  for (const std::uint64_t seed : {911u, 922u, 933u}) {
    Rng rng(seed);
    for (int round = 0; round < 12; ++round) {
      const int nvars = 6 + static_cast<int>(rng.index(11));  // 6..16
      const int nclauses =
          nvars + static_cast<int>(rng.index(static_cast<std::size_t>(4 * nvars)));
      Solver s;
      for (int v = 0; v < nvars; ++v) (void)s.new_var();
      for (auto& clause : random_cnf(rng, nvars, nclauses)) s.add_clause(clause);
      const Result r1 = s.solve();
      std::vector<Lit> assumptions;
      for (int k = 0; k < 2; ++k) {
        assumptions.emplace_back(
            static_cast<Var>(rng.index(static_cast<std::size_t>(nvars))),
            rng.bernoulli(0.5));
      }
      const Result r2 = s.solve(assumptions);
      std::ostringstream name;
      name << "rand." << seed << "." << round;
      corpus.emplace_back(name.str(), std::string(result_name(r1)) + "+" +
                                          stats_payload(r2, s));
    }
  }

  // -- Incremental rounds: interleave clause adds and solves --------------
  for (const std::uint64_t seed : {77u, 88u}) {
    Rng rng(seed);
    Solver s;
    const int nvars = 12;
    for (int v = 0; v < nvars; ++v) (void)s.new_var();
    std::string trace;
    Result last = Result::Unknown;
    for (int round = 0; round < 40 && s.okay(); ++round) {
      const std::size_t len = 1 + rng.index(3);
      std::vector<Lit> clause;
      for (std::size_t i = 0; i < len; ++i) {
        clause.emplace_back(static_cast<Var>(rng.index(nvars)), rng.bernoulli(0.5));
      }
      s.add_clause(clause);
      last = s.solve();
      trace.push_back(last == Result::Sat ? 's' : 'u');
      if (last == Result::Unsat) break;
    }
    std::ostringstream name;
    name << "incr." << seed;
    corpus.emplace_back(name.str(), trace + "+" + stats_payload(last, s));
  }

  // -- Pigeonhole: conflict-analysis heavy --------------------------------
  for (int n = 3; n <= 7; ++n) {
    Solver s;
    add_php(s, n + 1, n);
    const Result r = s.solve();
    corpus.emplace_back("php.u" + std::to_string(n), stats_payload(r, s));
  }
  for (int n = 4; n <= 6; ++n) {
    Solver s;
    add_php(s, n, n);
    const Result r = s.solve();
    corpus.emplace_back("php.s" + std::to_string(n), stats_payload(r, s));
  }

  // -- Conflict budget: the Unknown path ----------------------------------
  {
    Solver s;
    s.set_max_conflicts(20);
    add_php(s, 8, 7);
    const Result r = s.solve();
    corpus.emplace_back("php.budget", stats_payload(r, s));
  }

  // -- SAT attacks: DIP sequences and extracted keys ----------------------
  struct AttackSpec {
    const char* name;
    std::size_t gates, inputs, outputs;
    std::uint64_t circuit_seed;
    std::size_t locked;
    std::uint64_t select_seed;
    bool use_xor;  // else LUT-4
  };
  const AttackSpec attacks[] = {
      {"attack.c17.lut2", 0, 0, 0, 0, 2, 3, false},
      {"attack.c17.lut3", 0, 0, 0, 0, 3, 7, false},
      {"attack.gen60.xor8", 60, 10, 5, 17, 8, 5, true},
      {"attack.gen90.lut6", 90, 12, 6, 23, 6, 6, false},
      {"attack.gen90.lut10", 90, 12, 6, 23, 10, 10, false},
  };
  for (const AttackSpec& spec : attacks) {
    circuit::Netlist original;
    if (spec.gates == 0) {
      original = circuit::c17();
    } else {
      circuit::GeneratorSpec gs;
      gs.num_gates = spec.gates;
      gs.num_inputs = spec.inputs;
      gs.num_outputs = spec.outputs;
      gs.seed = spec.circuit_seed;
      original = circuit::generate_circuit(gs, "golden");
    }
    const auto sel = locking::select_gates(
        original, spec.locked, locking::SelectionPolicy::Random, spec.select_seed);
    circuit::Netlist locked;
    if (spec.use_xor) {
      locked = locking::xor_lock(original, sel).locked;
    } else {
      locked = locking::lut_lock(original, sel).locked;
    }
    attack::NetlistOracle oracle(original);
    const attack::AttackResult r = attack::sat_attack(locked, oracle);
    std::ostringstream os;
    os << "ok=" << r.success << " cap=" << r.hit_cap << " it=" << r.iterations
       << " d=" << r.decisions << " p=" << r.propagations
       << " c=" << r.conflicts << " key=" << bits(r.key);
    corpus.emplace_back(spec.name, os.str());
  }

  // -- CEC: equivalent and non-equivalent miters --------------------------
  {
    const circuit::Netlist original = circuit::c17();
    const auto sel =
        locking::select_gates(original, 2, locking::SelectionPolicy::Random, 3);
    const auto locked = locking::xor_lock(original, sel);
    std::vector<bool> wrong_key = locked.correct_key;
    wrong_key[0] = !wrong_key[0];  // an XOR key bit flips the function
    const auto spell = [](const attack::CecResult& r) {
      std::ostringstream os;
      os << "eq=" << r.equivalent << " d=" << r.stats.decisions
         << " p=" << r.stats.propagations << " c=" << r.stats.conflicts
         << " re=" << r.stats.restarts << " ll=" << r.stats.learnt_literals
         << " cex=" << (r.counterexample ? bits(*r.counterexample) : std::string("-"));
      return os.str();
    };
    corpus.emplace_back(
        "cec.eq", spell(attack::check_equivalence(locked.locked, locked.correct_key,
                                                  original, {})));
    corpus.emplace_back(
        "cec.neq",
        spell(attack::check_equivalence(locked.locked, wrong_key, original, {})));
  }

  return corpus;
}

TEST(SatGolden, CorpusIsBitIdentical) {
  const auto corpus = build_corpus();

  if (const char* regen = std::getenv("IC_REGEN_GOLDEN")) {
    std::ofstream out(regen);
    ASSERT_TRUE(out.good()) << "cannot write " << regen;
    out << "# Golden SolverStats corpus — regenerate only on an intended\n"
           "# heuristic change (a dataset-versioning event, DESIGN.md §11):\n"
           "#   IC_REGEN_GOLDEN=tests/golden/sat_stats.txt ./sat_golden_test\n";
    for (const auto& [name, payload] : corpus) {
      out << name << " " << payload << "\n";
    }
    GTEST_SKIP() << "regenerated golden corpus at " << regen;
  }

  std::ifstream in(IC_GOLDEN_FILE);
  ASSERT_TRUE(in.good()) << "missing golden corpus " << IC_GOLDEN_FILE;
  std::map<std::string, std::string> golden;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const auto space = line.find(' ');
    ASSERT_NE(space, std::string::npos) << "malformed corpus line: " << line;
    golden[line.substr(0, space)] = line.substr(space + 1);
  }
  ASSERT_EQ(golden.size(), corpus.size())
      << "corpus entry count drifted; regenerate deliberately";

  for (const auto& [name, payload] : corpus) {
    const auto it = golden.find(name);
    ASSERT_NE(it, golden.end()) << "no golden entry for " << name;
    EXPECT_EQ(it->second, payload) << "search trace diverged on " << name;
  }
}

// ---------------------------------------------------------------------------
// Differential testing against brute force, up to 16 variables.

bool brute_force_sat(const Cnf& cnf, const std::vector<Lit>& assumptions,
                     int nvars) {
  for (std::uint64_t m = 0; m < (std::uint64_t{1} << nvars); ++m) {
    std::vector<bool> assign(static_cast<std::size_t>(nvars));
    for (int v = 0; v < nvars; ++v) assign[static_cast<std::size_t>(v)] = (m >> v) & 1u;
    bool consistent = true;
    for (const Lit a : assumptions) {
      if (assign[static_cast<std::size_t>(a.var())] == a.negated()) {
        consistent = false;
        break;
      }
    }
    if (consistent && cnf_satisfied(cnf, assign)) return true;
  }
  return false;
}

class SatDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SatDifferential, RandomCnfsAgreeWithBruteForce) {
  Rng rng(GetParam());
  for (int round = 0; round < 12; ++round) {
    const int nvars = 4 + static_cast<int>(rng.index(13));  // 4..16
    const int nclauses =
        nvars + static_cast<int>(rng.index(static_cast<std::size_t>(4 * nvars)));
    Cnf cnf;
    Solver s;
    for (int v = 0; v < nvars; ++v) {
      (void)cnf.new_var();
      (void)s.new_var();
    }
    bool trivially_unsat = false;
    for (auto& clause : random_cnf(rng, nvars, nclauses)) {
      cnf.add_clause(clause);
      if (!s.add_clause(clause)) trivially_unsat = true;
    }

    // Plain solve.
    const bool brute = brute_force_sat(cnf, {}, nvars);
    const Result r = s.solve();
    if (brute) {
      ASSERT_EQ(r, Result::Sat) << "round " << round;
      std::vector<bool> model(static_cast<std::size_t>(nvars));
      for (int v = 0; v < nvars; ++v) {
        model[static_cast<std::size_t>(v)] = s.model_value(static_cast<Var>(v));
      }
      EXPECT_TRUE(cnf_satisfied(cnf, model)) << "round " << round;
    } else {
      ASSERT_TRUE(r == Result::Unsat || trivially_unsat) << "round " << round;
    }
    if (!s.okay()) continue;

    // Three assumption solves on the same (incremental) solver.
    for (int trial = 0; trial < 3; ++trial) {
      std::vector<Lit> assumptions;
      const std::size_t n_assume = 1 + rng.index(3);
      for (std::size_t k = 0; k < n_assume; ++k) {
        assumptions.emplace_back(
            static_cast<Var>(rng.index(static_cast<std::size_t>(nvars))),
            rng.bernoulli(0.5));
      }
      const bool brute_a = brute_force_sat(cnf, assumptions, nvars);
      const Result ra = s.solve(assumptions);
      ASSERT_EQ(ra, brute_a ? Result::Sat : Result::Unsat)
          << "round " << round << " trial " << trial;
    }

    // Incremental add after solving, then re-check.
    std::vector<Lit> extra;
    const std::size_t len = 1 + rng.index(3);
    for (std::size_t i = 0; i < len; ++i) {
      extra.emplace_back(static_cast<Var>(rng.index(static_cast<std::size_t>(nvars))),
                         rng.bernoulli(0.5));
    }
    cnf.add_clause(extra);
    s.add_clause(extra);
    const bool brute2 = brute_force_sat(cnf, {}, nvars);
    const Result r2 = s.solve();
    ASSERT_EQ(r2, brute2 ? Result::Sat : Result::Unsat) << "round " << round;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SatDifferential,
                         ::testing::Values(1301u, 1302u, 1303u, 1304u));

}  // namespace
}  // namespace ic::sat
