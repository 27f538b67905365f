#include "ic/circuit/generator.hpp"

#include <algorithm>

#include "ic/support/assert.hpp"
#include "ic/support/rng.hpp"

namespace ic::circuit {

Netlist generate_circuit(const GeneratorSpec& spec, std::string name) {
  IC_ASSERT(spec.num_inputs >= 2);
  IC_ASSERT(spec.num_outputs >= 1);
  IC_ASSERT(spec.num_gates >= spec.num_outputs);
  Rng rng(spec.seed);
  Netlist nl(std::move(name));

  std::vector<GateId> sources;
  for (std::size_t i = 0; i < spec.num_inputs; ++i) {
    sources.push_back(nl.add_input("G" + std::to_string(i)));
  }

  // Candidate pool for fanins: all inputs and gates created so far.
  std::vector<GateId> pool = sources;

  auto pick_fanin = [&]() -> GateId {
    if (pool.size() > spec.locality_window && rng.bernoulli(spec.locality)) {
      // Draw from the recent window to create layered local structure.
      const std::size_t lo = pool.size() - spec.locality_window;
      return pool[lo + rng.index(spec.locality_window)];
    }
    return pool[rng.index(pool.size())];
  };

  const GateKind multi_kinds[] = {GateKind::And, GateKind::Nand, GateKind::Or,
                                  GateKind::Nor};
  std::size_t gate_serial = 0;
  for (std::size_t i = 0; i < spec.num_gates; ++i) {
    const std::string gname = "N" + std::to_string(spec.num_inputs + gate_serial++);
    if (rng.bernoulli(spec.not_fraction)) {
      pool.push_back(nl.add_gate(GateKind::Not, {pick_fanin()}, gname));
      continue;
    }
    GateKind kind;
    if (rng.bernoulli(spec.xor_fraction)) {
      kind = rng.bernoulli(0.5) ? GateKind::Xor : GateKind::Xnor;
    } else {
      kind = multi_kinds[rng.index(4)];
    }
    // ISCAS fan-in distribution: mostly 2, sometimes 3..4.
    std::size_t arity = 2;
    const double r = rng.uniform(0.0, 1.0);
    if (r > 0.92) arity = 4;
    else if (r > 0.75) arity = 3;
    std::vector<GateId> fanins;
    while (fanins.size() < arity) {
      const GateId f = pick_fanin();
      if (std::find(fanins.begin(), fanins.end(), f) == fanins.end()) {
        fanins.push_back(f);
      } else if (pool.size() <= arity) {
        break;  // tiny pool: allow fewer distinct fanins
      }
    }
    if (fanins.size() < 2) fanins.push_back(pool[rng.index(pool.size())]);
    pool.push_back(nl.add_gate(kind, std::move(fanins), gname));
  }

  // Outputs: prefer gates with no fanout so that (a) outputs look like real
  // netlist endpoints and (b) no logic is dead. Whatever sinks remain after
  // choosing num_outputs are also promoted to outputs — ISCAS circuits have
  // no dangling logic.
  const auto fo = nl.fanouts();
  std::vector<GateId> sinks;
  for (GateId id = 0; id < nl.size(); ++id) {
    if (is_logic(nl.gate(id).kind) && fo[id].empty()) sinks.push_back(id);
  }
  for (GateId id : sinks) nl.mark_output(id);
  // If the DAG happens to have fewer sinks than requested outputs, promote
  // random internal gates.
  std::size_t attempts = 0;
  while (nl.num_outputs() < spec.num_outputs && attempts < 10 * spec.num_gates) {
    const GateId id = pool[rng.index(pool.size())];
    if (is_logic(nl.gate(id).kind)) nl.mark_output(id);
    ++attempts;
  }

  nl.validate();
  return nl;
}

}  // namespace ic::circuit
