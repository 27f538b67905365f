// Extension bench (paper §II.A context): how do different obfuscation
// schemes compare under the SAT attack at an equal key-bit budget? The
// runtime estimator's whole premise is that scheme/placement — not just key
// count — drives attack effort; this bench quantifies it with the in-tree
// attack.
//
//   XOR/XNOR locking : 16 key gates           -> 16 key bits
//   LUT-4 locking    : 1 locked gate          -> 16 key bits
//   Anti-SAT         : one block of width 8   -> 16 key bits
#include <cstdio>

#include "bench_common.hpp"
#include "ic/attack/sat_attack.hpp"
#include "ic/locking/anti_sat.hpp"
#include "ic/locking/lut_lock.hpp"
#include "ic/locking/policy.hpp"
#include "ic/locking/xor_lock.hpp"

int main() {
  const auto profile = icbench::ExperimentProfile::from_env();
  std::printf("=== Defence comparison at an equal 16-key-bit budget ===\n");
  const auto circuit = icbench::main_circuit(profile);
  ic::attack::NetlistOracle oracle(circuit);
  ic::attack::AttackOptions opt;
  opt.max_conflicts = profile.attack_max_conflicts * 10;
  opt.max_wall_seconds = profile.attack_max_wall_seconds * 6;

  std::printf("%-22s %8s %12s %14s %10s\n", "scheme", "DIPs", "conflicts",
              "propagations", "modeled s");
  auto report = [&](const char* label, const ic::circuit::Netlist& locked) {
    const auto r = ic::attack::sat_attack(locked, oracle, opt);
    std::printf("%-22s %8zu %12llu %14llu %10.4f%s\n", label, r.iterations,
                static_cast<unsigned long long>(r.conflicts),
                static_cast<unsigned long long>(r.propagations),
                r.estimated_seconds(), r.hit_cap ? "  (capped)" : "");
  };

  {
    const auto sel = ic::locking::select_gates(
        circuit, 16, ic::locking::SelectionPolicy::Random, 31);
    report("XOR/XNOR x16", ic::locking::xor_lock(circuit, sel, 7).locked);
  }
  {
    const auto sel = ic::locking::select_gates(
        circuit, 1, ic::locking::SelectionPolicy::Random, 31);
    report("LUT-4 x1", ic::locking::lut_lock(circuit, sel, 7).locked);
  }
  {
    const auto target = ic::locking::select_gates(
        circuit, 1, ic::locking::SelectionPolicy::FanoutWeighted, 31)[0];
    report("Anti-SAT width 8",
           ic::locking::anti_sat_lock(circuit, target, {8, 7}).locked);
  }
  std::printf("\nexpectation: Anti-SAT needs ~2^width DIPs — the strongest "
              "per-key-bit defence; XOR gates fall fastest.\n");
  return 0;
}
