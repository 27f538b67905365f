#include "ic/data/features.hpp"

#include <algorithm>

#include "ic/support/assert.hpp"
#include "ic/support/metrics.hpp"
#include "ic/support/timer.hpp"

namespace ic::data {

using circuit::GateId;
using circuit::GateKind;
using circuit::Netlist;
using graph::Matrix;

namespace {

/// Paper type alphabet order: {AND, NOR, NOT, NAND, OR, XOR}.
int type_slot(GateKind kind) {
  switch (kind) {
    case GateKind::And: return 0;
    case GateKind::Nor: return 1;
    case GateKind::Not: return 2;
    case GateKind::Buf: return 2;   // inverter-class
    case GateKind::Nand: return 3;
    case GateKind::Or: return 4;
    case GateKind::Xor: return 5;
    case GateKind::Xnor: return 5;  // parity-class
    case GateKind::Lut: return 5;   // pre-existing fixed LUTs: parity-like
    default: return -1;             // sources carry no type bits
  }
}

}  // namespace

std::size_t feature_width(FeatureSet set) {
  return set == FeatureSet::Location ? 1 : 7;
}

Matrix gate_features(const Netlist& nl, const std::vector<GateId>& selection,
                     FeatureSet set) {
  const Timer timer;
  const std::size_t n = nl.size();
  Matrix x(n, feature_width(set));
  for (GateId id : selection) {
    IC_ASSERT(id < n);
    x(id, kMaskColumn) = 1.0;
  }
  if (set == FeatureSet::All) {
    for (GateId id = 0; id < n; ++id) {
      const int slot = type_slot(nl.gate(id).kind);
      if (slot >= 0) x(id, 1 + static_cast<std::size_t>(slot)) = 1.0;
    }
  }
  // Registered once, then two relaxed atomic ops per call — cheap next to
  // the n×f matrix fill above.
  static auto& extraction_hist =
      telemetry::MetricsRegistry::global().histogram("data.gate_features_seconds");
  extraction_hist.observe(timer.seconds());
  return x;
}

}  // namespace ic::data
