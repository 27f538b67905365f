#include "ic/sat/dimacs.hpp"

#include <cstdint>
#include <cstdlib>
#include <sstream>

#include "ic/support/assert.hpp"
#include "ic/support/strings.hpp"

namespace ic::sat {

namespace {

/// Most variables a DIMACS input may use: Lit encodes 2 * var + sign in an
/// int32_t, so 0-based variables stop at 2^30 - 1.
constexpr std::int64_t kMaxVars = std::int64_t{1} << 30;

}  // namespace

void Cnf::add_clause(std::vector<Lit> lits) {
  for (Lit l : lits) {
    IC_ASSERT(l.var() >= 0);
    num_vars = std::max(num_vars, static_cast<std::size_t>(l.var()) + 1);
  }
  clauses.push_back(std::move(lits));
}

Var Cnf::new_var() { return static_cast<Var>(num_vars++); }

Cnf parse_dimacs(std::string_view text) {
  Cnf cnf;
  std::size_t declared_vars = 0;
  std::size_t declared_clauses = 0;
  bool have_header = false;
  std::vector<Lit> current;

  std::istringstream in{std::string(text)};
  std::string line;
  while (std::getline(in, line)) {
    const std::string_view lv = trim(line);
    if (lv.empty() || lv[0] == 'c') continue;
    if (lv[0] == 'p') {
      const auto parts = split(lv, " \t");
      IC_CHECK(parts.size() == 4 && parts[1] == "cnf",
               "bad DIMACS header: '" << line << "'");
      const auto vars = parse_number<std::size_t>(parts[2]);
      const auto clauses = parse_number<std::size_t>(parts[3]);
      IC_CHECK(vars && clauses, "bad DIMACS header counts: '" << line << "'");
      IC_CHECK(*vars <= static_cast<std::size_t>(kMaxVars),
               "DIMACS header declares " << *vars << " variables; at most "
                                         << kMaxVars << " are supported");
      declared_vars = *vars;
      declared_clauses = *clauses;
      have_header = true;
      continue;
    }
    for (const auto& tok : split(lv, " \t")) {
      const auto v = parse_number<std::int64_t>(tok);
      IC_CHECK(v, "bad DIMACS literal '" << tok << "'");
      IC_CHECK(*v >= -kMaxVars && *v <= kMaxVars,
               "DIMACS literal " << *v << " is out of range (variables 1.."
                                 << kMaxVars << ")");
      if (*v == 0) {
        cnf.add_clause(current);
        current.clear();
      } else {
        const Var var = static_cast<Var>(std::abs(*v) - 1);
        current.emplace_back(var, *v < 0);
      }
    }
  }
  IC_CHECK(current.empty(), "DIMACS clause missing terminating 0");
  IC_CHECK(have_header, "DIMACS input has no 'p cnf' header");
  cnf.num_vars = std::max(cnf.num_vars, declared_vars);
  IC_CHECK(cnf.clauses.size() == declared_clauses,
           "DIMACS header declares " << declared_clauses << " clauses, found "
                                     << cnf.clauses.size());
  return cnf;
}

std::string write_dimacs(const Cnf& cnf) {
  std::ostringstream os;
  os << "p cnf " << cnf.num_vars << ' ' << cnf.clauses.size() << '\n';
  for (const auto& clause : cnf.clauses) {
    for (Lit l : clause) os << l.dimacs() << ' ';
    os << "0\n";
  }
  return os.str();
}

bool cnf_satisfied(const Cnf& cnf, const std::vector<bool>& assignment) {
  IC_ASSERT(assignment.size() >= cnf.num_vars);
  for (const auto& clause : cnf.clauses) {
    bool sat = false;
    for (Lit l : clause) {
      if (assignment[static_cast<std::size_t>(l.var())] != l.negated()) {
        sat = true;
        break;
      }
    }
    if (!sat) return false;
  }
  return true;
}

}  // namespace ic::sat
