#include "ic/circuit/netlist.hpp"

#include <algorithm>

#include "ic/support/assert.hpp"

namespace ic::circuit {

namespace {

/// 2^fanins, the rows of a LUT's truth table. Throws before the shift when
/// `fanins` exceeds kMaxLutFanins.
std::size_t lut_rows(std::size_t fanins, const std::string& name) {
  IC_CHECK(fanins <= kMaxLutFanins, "LUT '" << name << "' has " << fanins
                                            << " fanins; at most "
                                            << kMaxLutFanins << " are allowed");
  return std::size_t{1} << fanins;
}

}  // namespace

GateId Netlist::add_gate_impl(Gate g) {
  IC_CHECK(!by_name_.contains(g.name),
           "duplicate gate name '" << g.name << "' in netlist '" << name_ << "'");
  for (GateId f : g.fanins) {
    IC_ASSERT_MSG(f < gates_.size(), "fanin id out of range for gate " << g.name);
  }
  const GateId id = static_cast<GateId>(gates_.size());
  by_name_.emplace(g.name, id);
  gates_.push_back(std::move(g));
  return id;
}

GateId Netlist::add_input(std::string name) {
  Gate g;
  g.kind = GateKind::Input;
  g.name = std::move(name);
  const GateId id = add_gate_impl(std::move(g));
  inputs_.push_back(id);
  return id;
}

GateId Netlist::add_key_input(std::string name) {
  Gate g;
  g.kind = GateKind::KeyInput;
  g.name = std::move(name);
  g.key_base = static_cast<std::int32_t>(key_inputs_.size());
  const GateId id = add_gate_impl(std::move(g));
  key_inputs_.push_back(id);
  return id;
}

GateId Netlist::add_gate(GateKind kind, std::vector<GateId> fanins,
                         std::string name) {
  // Checked as input errors: parsers hand add_gate whatever a file says.
  IC_CHECK(is_logic(kind) && kind != GateKind::Lut,
           "gate '" << name << "' has kind " << gate_kind_name(kind)
                    << "; only plain logic gates take fanins");
  if (kind == GateKind::Buf || kind == GateKind::Not) {
    IC_CHECK(fanins.size() == 1, "unary gate '" << name << "' ("
                                                << gate_kind_name(kind)
                                                << ") needs 1 fanin, got "
                                                << fanins.size());
  } else {
    IC_CHECK(fanins.size() >= 2,
             "gate '" << name << "' (" << gate_kind_name(kind)
                      << ") needs >=2 fanins, got " << fanins.size());
  }
  Gate g;
  g.kind = kind;
  g.name = std::move(name);
  g.fanins = std::move(fanins);
  return add_gate_impl(std::move(g));
}

GateId Netlist::add_fixed_lut(std::vector<GateId> fanins,
                              std::vector<bool> truth, std::string name) {
  IC_ASSERT(!fanins.empty());
  IC_ASSERT_MSG(truth.size() == lut_rows(fanins.size(), name),
                "LUT " << name << " truth table size mismatch");
  Gate g;
  g.kind = GateKind::Lut;
  g.name = std::move(name);
  g.fanins = std::move(fanins);
  g.lut_truth = std::move(truth);
  return add_gate_impl(std::move(g));
}

GateId Netlist::add_key_lut(std::vector<GateId> fanins, std::int32_t key_base,
                            std::string name) {
  IC_ASSERT(!fanins.empty());
  const std::size_t bits = lut_rows(fanins.size(), name);
  IC_CHECK(key_base >= 0 &&
               static_cast<std::size_t>(key_base) + bits <= key_inputs_.size(),
           "key LUT '" << name << "' references key bits [" << key_base << ", "
                       << key_base + static_cast<std::int64_t>(bits)
                       << ") but only " << key_inputs_.size() << " exist");
  Gate g;
  g.kind = GateKind::Lut;
  g.name = std::move(name);
  g.fanins = std::move(fanins);
  g.key_base = key_base;
  return add_gate_impl(std::move(g));
}

void Netlist::mark_output(GateId id, bool allow_duplicate) {
  IC_ASSERT(id < gates_.size());
  if (allow_duplicate ||
      std::find(outputs_.begin(), outputs_.end(), id) == outputs_.end()) {
    outputs_.push_back(id);
  }
}

void Netlist::replace_with_key_lut(GateId id, std::int32_t key_base) {
  IC_ASSERT(id < gates_.size());
  Gate& g = gates_[id];
  IC_ASSERT_MSG(is_logic(g.kind), "cannot obfuscate a source gate");
  const std::size_t bits = lut_rows(g.fanins.size(), g.name);
  IC_ASSERT_MSG(key_base >= 0 &&
                    static_cast<std::size_t>(key_base) + bits <= key_inputs_.size(),
                "key range out of bounds replacing gate " << g.name);
  g.kind = GateKind::Lut;
  g.key_base = key_base;
  g.lut_truth.clear();
}

void Netlist::replace_with_key_lut(GateId id, std::int32_t key_base,
                                   std::vector<GateId> fanins) {
  IC_ASSERT(id < gates_.size());
  IC_ASSERT(!fanins.empty());
  for (GateId f : fanins) IC_ASSERT(f < gates_.size());
  Gate& g = gates_[id];
  IC_ASSERT_MSG(is_logic(g.kind), "cannot obfuscate a source gate");
  const std::size_t bits = lut_rows(fanins.size(), g.name);
  IC_ASSERT_MSG(key_base >= 0 &&
                    static_cast<std::size_t>(key_base) + bits <= key_inputs_.size(),
                "key range out of bounds replacing gate " << g.name);
  g.kind = GateKind::Lut;
  g.key_base = key_base;
  g.fanins = std::move(fanins);
  g.lut_truth.clear();
}

void Netlist::replace_output(GateId old_id, GateId new_id) {
  IC_ASSERT(new_id < gates_.size());
  auto it = std::find(outputs_.begin(), outputs_.end(), old_id);
  IC_ASSERT_MSG(it != outputs_.end(), "replace_output: gate is not an output");
  *it = new_id;
}

void Netlist::rewire_fanin(GateId id, GateId old_fanin, GateId new_fanin) {
  IC_ASSERT(id < gates_.size() && new_fanin < gates_.size());
  auto& fanins = gates_[id].fanins;
  auto it = std::find(fanins.begin(), fanins.end(), old_fanin);
  IC_ASSERT_MSG(it != fanins.end(),
                "gate " << gates_[id].name << " has no fanin to rewire");
  *it = new_fanin;
}

const Gate& Netlist::gate(GateId id) const {
  IC_ASSERT(id < gates_.size());
  return gates_[id];
}

GateId Netlist::find(std::string_view name) const {
  auto it = by_name_.find(std::string(name));
  return it == by_name_.end() ? kNoGate : it->second;
}

std::size_t Netlist::num_logic_gates() const {
  std::size_t n = 0;
  for (const Gate& g : gates_) {
    if (is_logic(g.kind)) ++n;
  }
  return n;
}

std::vector<std::vector<GateId>> Netlist::fanouts() const {
  std::vector<std::vector<GateId>> fo(gates_.size());
  for (GateId id = 0; id < gates_.size(); ++id) {
    for (GateId f : gates_[id].fanins) fo[f].push_back(id);
  }
  return fo;
}

std::vector<GateId> Netlist::topological_order() const {
  // Kahn's algorithm over the fanin relation. The readers of each gate form
  // a linked list through `edges`, built in one backward pass so that every
  // list runs in id order, as fanouts() lists them. The order returned
  // depends on that, and the SAT encoder numbers its variables in it.
  // Edge indices are 32-bit, like GateId: half the footprint of size_t.
  constexpr std::uint32_t kEnd = UINT32_MAX;
  struct Edge {
    GateId reader;
    std::uint32_t next;
  };
  const std::size_t n = gates_.size();
  std::vector<std::uint32_t> head(n, kEnd);
  std::vector<Edge> edges;
  edges.reserve(2 * n);
  std::vector<std::uint32_t> pending(n);
  for (GateId id = static_cast<GateId>(n); id-- > 0;) {
    const std::vector<GateId>& fanins = gates_[id].fanins;
    pending[id] = static_cast<std::uint32_t>(fanins.size());
    for (GateId f : fanins) {
      edges.push_back({id, head[f]});
      head[f] = static_cast<std::uint32_t>(edges.size() - 1);
    }
  }
  // `order` doubles as the queue: a gate is appended once ready and visited
  // in that same order.
  std::vector<GateId> order;
  order.reserve(n);
  for (GateId id = 0; id < n; ++id) {
    if (pending[id] == 0) order.push_back(id);
  }
  for (std::size_t next = 0; next < order.size(); ++next) {
    for (std::uint32_t e = head[order[next]]; e != kEnd; e = edges[e].next) {
      if (--pending[edges[e].reader] == 0) order.push_back(edges[e].reader);
    }
  }
  IC_CHECK(order.size() == n,
           "netlist '" << name_ << "' contains a combinational cycle");
  return order;
}

std::vector<int> Netlist::depths() const {
  const auto order = topological_order();
  std::vector<int> depth(gates_.size(), 0);
  for (GateId id : order) {
    int d = 0;
    for (GateId f : gates_[id].fanins) d = std::max(d, depth[f] + 1);
    depth[id] = d;
  }
  return depth;
}

void Netlist::validate() const {
  IC_CHECK(!outputs_.empty(), "netlist '" << name_ << "' has no outputs");
  for (GateId id = 0; id < gates_.size(); ++id) {
    const Gate& g = gates_[id];
    for (GateId f : g.fanins) {
      IC_CHECK(f < gates_.size(), "gate '" << g.name << "' has dangling fanin");
    }
    switch (g.kind) {
      case GateKind::Input:
      case GateKind::KeyInput:
        IC_CHECK(g.fanins.empty(), "source gate '" << g.name << "' has fanins");
        break;
      case GateKind::Buf:
      case GateKind::Not:
        IC_CHECK(g.fanins.size() == 1, "unary gate '" << g.name << "' arity != 1");
        break;
      case GateKind::Lut: {
        IC_CHECK(!g.fanins.empty(), "LUT '" << g.name << "' has no fanins");
        const std::size_t bits = lut_rows(g.fanins.size(), g.name);
        if (g.key_base >= 0) {
          IC_CHECK(static_cast<std::size_t>(g.key_base) + bits <= key_inputs_.size(),
                   "LUT '" << g.name << "' key range out of bounds");
        } else {
          IC_CHECK(g.lut_truth.size() == bits,
                   "LUT '" << g.name << "' truth table size mismatch");
        }
        break;
      }
      default:
        IC_CHECK(g.fanins.size() >= 2,
                 "gate '" << g.name << "' (" << gate_kind_name(g.kind)
                          << ") arity < 2");
    }
  }
  // Acyclicity (throws if cyclic).
  (void)topological_order();
}

std::vector<std::size_t> Netlist::kind_histogram() const {
  std::vector<std::size_t> hist(kGateKindCount, 0);
  for (const Gate& g : gates_) ++hist[static_cast<int>(g.kind)];
  return hist;
}

}  // namespace ic::circuit
