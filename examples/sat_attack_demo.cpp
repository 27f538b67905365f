// SAT-attack walkthrough: lock a benchmark circuit with LUT-4 obfuscation,
// run the oracle-guided attack (Subramanyan et al.), and verify the
// extracted key — printing the DIP loop's telemetry along the way.
//
// Usage: sat_attack_demo [circuit] [num_locked_gates]
//   circuit ∈ {c17, c499, c1355, c2670, paper_main} (default c499)
#include <cstdio>
#include <optional>

#include "ic/attack/sat_attack.hpp"
#include "ic/circuit/bench_io.hpp"
#include "ic/circuit/library.hpp"
#include "ic/locking/lut_lock.hpp"
#include "ic/locking/policy.hpp"
#include "ic/support/strings.hpp"

int main(int argc, char** argv) {
  const std::string name = argc > 1 ? argv[1] : "c499";
  const auto gates = argc > 2 ? ic::parse_number<std::size_t>(argv[2])
                              : std::optional<std::size_t>(6);
  if (!gates) {
    std::fprintf(stderr, "num_locked_gates must be a whole number, got '%s'\n",
                 argv[2]);
    return 2;
  }
  const std::size_t k = *gates;

  const auto original = ic::circuit::circuit_by_name(name);
  std::printf("%s: %zu gates, %zu inputs, %zu outputs\n", name.c_str(),
              original.num_logic_gates(), original.num_inputs(),
              original.num_outputs());

  // Lock k random gates as key-programmable LUT-4s.
  const auto selection = ic::locking::select_gates(
      original, k, ic::locking::SelectionPolicy::Random, 99);
  const auto locked = ic::locking::lut_lock(original, selection);
  std::printf("locked %zu gates -> %zu key bits\n", k, locked.locked.num_keys());

  // The locked netlist round-trips through the .bench format, so it can be
  // handed to external tooling too:
  const std::string locked_path = "/tmp/" + name + "_locked.bench";
  ic::circuit::write_bench_file(locked.locked, locked_path);
  std::printf("locked netlist written to %s\n", locked_path.c_str());

  // Attack: the oracle is the functioning (unlocked) chip.
  ic::attack::NetlistOracle oracle(original);
  ic::attack::AttackOptions opt;
  opt.max_conflicts = 200000;
  const auto result = ic::attack::sat_attack(locked.locked, oracle, opt);

  if (!result.success) {
    std::printf("attack aborted (cap hit: %s) after %zu DIPs, %llu conflicts\n",
                result.hit_cap ? "yes" : "no", result.iterations,
                static_cast<unsigned long long>(result.conflicts));
    return 1;
  }
  std::printf("attack succeeded:\n");
  std::printf("  DIP iterations (oracle queries): %zu\n", result.iterations);
  std::printf("  solver conflicts:    %llu\n",
              static_cast<unsigned long long>(result.conflicts));
  std::printf("  solver propagations: %llu\n",
              static_cast<unsigned long long>(result.propagations));
  std::printf("  wall time:           %.3f s\n", result.wall_seconds);
  std::printf("  modeled runtime:     %.4f s\n", result.estimated_seconds());

  const std::size_t mismatches =
      ic::attack::verify_key(locked.locked, result.key, original);
  std::printf("  key verification:    %zu mismatching patterns out of 4096 — %s\n",
              mismatches, mismatches == 0 ? "functionally correct" : "WRONG");
  return mismatches == 0 ? 0 : 1;
}
