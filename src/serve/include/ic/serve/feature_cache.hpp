// Per-circuit featurization cache (DESIGN.md §9).
//
// The expensive, selection-independent parts of a prediction — building the
// structure operator (adjacency / GCN norm / scaled Laplacian) and the
// gate-type one-hot columns — depend only on the circuit, the feature set,
// and the structure kind. This cache computes them once per distinct circuit
// *content* (keyed by a fingerprint of the canonical .bench serialization,
// so two loads of the same netlist share an entry) and serves shared
// read-only handles. A selection changes only its own gates' mask bits, so a
// request hands the model just those rows (selected_rows) and the entry's
// base activations for the model snapshot (Entry::base): a full forward pass
// on the base features, built by the first predict that needs it and shared
// by every later one. No request copies the n×F feature matrix.
//
// The cache is bounded: when an entry cap is set (serve: EngineOptions::
// feature_cache_max, CLI: --feature-cache-max), inserting beyond it evicts
// the least-recently-used entry, so many-distinct-circuit traffic cannot
// grow memory without bound. Outstanding shared_ptr handles keep an evicted
// entry alive until their requests finish; re-requesting it is a miss.
//
// A base dies with its entry, or at the entry's next lookup after its model
// snapshot is gone (a hot reload replaced it and no request holds it).
//
// Telemetry: counters serve.feature_cache.hits / serve.feature_cache.misses,
// gauges serve.feature_cache.entries / serve.feature_cache.evictions
// (cumulative count of LRU evictions), resolved once at construction.
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <tuple>
#include <utility>
#include <vector>

#include "ic/circuit/netlist.hpp"
#include "ic/data/dataset.hpp"
#include "ic/data/features.hpp"
#include "ic/graph/matrix.hpp"
#include "ic/graph/sparse.hpp"
#include "ic/nn/regressor.hpp"
#include "ic/serve/model_registry.hpp"

namespace ic::telemetry {
class Counter;
class Gauge;
}  // namespace ic::telemetry

namespace ic::serve {

/// FNV-1a hash of the canonical .bench serialization of a netlist: equal
/// circuits hash equal regardless of how they were constructed or loaded.
std::uint64_t netlist_fingerprint(const circuit::Netlist& netlist);

class FeatureCache {
 public:
  /// `max_entries` = 0 means unbounded.
  explicit FeatureCache(std::size_t max_entries = 0);

  /// Everything selection-independent about (circuit, features, kind).
  struct Entry {
    std::uint64_t fingerprint = 0;
    std::shared_ptr<const circuit::Netlist> circuit;
    std::shared_ptr<const graph::SparseMatrix> structure;
    graph::Matrix base_features;  ///< mask column all-zero, type one-hots set
    data::FeatureSet features = data::FeatureSet::All;
    data::StructureKind kind = data::StructureKind::Adjacency;

    /// `snapshot`'s model on base_features: built by the first call for
    /// that snapshot (under this entry's lock), then shared.
    std::shared_ptr<const nn::BaseActivations> base(
        const std::shared_ptr<const ModelSnapshot>& snapshot) const;

   private:
    mutable std::mutex base_mu_;
    /// Keyed by snapshot identity; a weak key never keeps a model alive.
    mutable std::vector<std::pair<std::weak_ptr<const ModelSnapshot>,
                                  std::shared_ptr<const nn::BaseActivations>>>
        bases_;
  };

  /// Find-or-build. The build runs under the cache lock (building twice
  /// would waste the exact work the cache exists to save).
  std::shared_ptr<const Entry> get(
      std::shared_ptr<const circuit::Netlist> circuit,
      data::FeatureSet features, data::StructureKind kind);

  /// Same, with the fingerprint precomputed by the caller — the hot path for
  /// the engine, which fingerprints each circuit once at registration
  /// instead of re-serializing the netlist per request.
  std::shared_ptr<const Entry> get(
      std::shared_ptr<const circuit::Netlist> circuit,
      data::FeatureSet features, data::StructureKind kind,
      std::uint64_t fingerprint);

  /// The feature rows a selection changes, in selection order: row i is
  /// gate selection[i]'s base row with its mask bit set, as
  /// data::gate_features(circuit, selection, set) has it. Callers must have
  /// validated the gate ids.
  static graph::Matrix selected_rows(
      const Entry& entry, const std::vector<circuit::GateId>& selection);

  std::size_t size() const;
  std::size_t max_entries() const { return max_entries_; }
  /// Change the cap; 0 = unbounded. Shrinking evicts LRU entries down to fit.
  void set_max_entries(std::size_t max_entries);
  void clear();  ///< drop all entries (benchmarks; outstanding handles survive)

 private:
  using Key = std::tuple<std::uint64_t, data::FeatureSet, data::StructureKind>;
  struct Slot {
    std::shared_ptr<const Entry> entry;
    std::list<Key>::iterator lru_pos;  ///< position in lru_ (front = hottest)
  };

  /// Drop LRU entries until the cap holds. Caller holds mu_.
  void evict_locked();

  telemetry::Counter& hits_;         // serve.feature_cache.hits
  telemetry::Counter& misses_;       // serve.feature_cache.misses
  telemetry::Gauge& entries_gauge_;  // serve.feature_cache.entries
  telemetry::Gauge& evictions_;      // serve.feature_cache.evictions

  mutable std::mutex mu_;
  std::size_t max_entries_ = 0;
  std::list<Key> lru_;  ///< most-recently-used first
  std::map<Key, Slot> entries_;
};

}  // namespace ic::serve
