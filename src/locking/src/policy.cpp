#include "ic/locking/policy.hpp"

#include <algorithm>

#include "ic/circuit/gate.hpp"
#include "ic/support/assert.hpp"
#include "ic/support/rng.hpp"

namespace ic::locking {

using circuit::GateId;
using circuit::GateKind;
using circuit::Netlist;

std::vector<GateId> lockable_gates(const Netlist& nl) {
  std::vector<GateId> out;
  for (GateId id = 0; id < nl.size(); ++id) {
    const auto& g = nl.gate(id);
    if (!circuit::is_logic(g.kind)) continue;
    if (g.kind == GateKind::Lut && g.key_base >= 0) continue;
    out.push_back(id);
  }
  return out;
}

namespace {

/// Weighted sampling without replacement by repeated roulette draws.
std::vector<GateId> weighted_sample(const std::vector<GateId>& pool,
                                    std::vector<double> weights,
                                    std::size_t count, Rng& rng) {
  IC_ASSERT(pool.size() == weights.size());
  std::vector<GateId> picked;
  picked.reserve(count);
  double total = 0.0;
  for (double w : weights) total += w;
  std::vector<bool> used(pool.size(), false);
  while (picked.size() < count) {
    double r = rng.uniform(0.0, total);
    std::size_t chosen = pool.size();
    for (std::size_t i = 0; i < pool.size(); ++i) {
      if (used[i]) continue;
      if (r < weights[i]) {
        chosen = i;
        break;
      }
      r -= weights[i];
    }
    if (chosen == pool.size()) {
      // Numeric slack: take the last unused entry.
      for (std::size_t i = pool.size(); i-- > 0;) {
        if (!used[i]) { chosen = i; break; }
      }
    }
    used[chosen] = true;
    total -= weights[chosen];
    picked.push_back(pool[chosen]);
  }
  return picked;
}

}  // namespace

std::vector<GateId> select_gates(const Netlist& nl, std::size_t count,
                                 SelectionPolicy policy, std::uint64_t seed) {
  const auto pool = lockable_gates(nl);
  IC_CHECK(count <= pool.size(), "cannot select " << count << " gates; only "
                                                  << pool.size() << " lockable");
  Rng rng(seed);
  switch (policy) {
    case SelectionPolicy::Random: {
      const auto idx = rng.sample_without_replacement(pool.size(), count);
      std::vector<GateId> out;
      out.reserve(count);
      for (std::size_t i : idx) out.push_back(pool[i]);
      std::sort(out.begin(), out.end());
      return out;
    }
    case SelectionPolicy::FanoutWeighted: {
      const auto fo = nl.fanouts();
      std::vector<double> w;
      w.reserve(pool.size());
      for (GateId id : pool) w.push_back(1.0 + static_cast<double>(fo[id].size()));
      auto out = weighted_sample(pool, std::move(w), count, rng);
      std::sort(out.begin(), out.end());
      return out;
    }
  }
  IC_ASSERT_MSG(false, "unhandled SelectionPolicy");
  return {};
}

}  // namespace ic::locking
