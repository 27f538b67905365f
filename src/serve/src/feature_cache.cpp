#include "ic/serve/feature_cache.hpp"

#include <algorithm>

#include "ic/circuit/bench_io.hpp"
#include "ic/support/metrics.hpp"
#include "ic/support/trace.hpp"

namespace ic::serve {

std::uint64_t netlist_fingerprint(const circuit::Netlist& netlist) {
  const std::string text = circuit::write_bench(netlist);
  std::uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a 64
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

FeatureCache::FeatureCache(std::size_t max_entries)
    : hits_(telemetry::MetricsRegistry::global().counter(
          "serve.feature_cache.hits")),
      misses_(telemetry::MetricsRegistry::global().counter(
          "serve.feature_cache.misses")),
      entries_gauge_(telemetry::MetricsRegistry::global().gauge(
          "serve.feature_cache.entries")),
      evictions_(telemetry::MetricsRegistry::global().gauge(
          "serve.feature_cache.evictions")),
      max_entries_(max_entries) {}

std::shared_ptr<const FeatureCache::Entry> FeatureCache::get(
    std::shared_ptr<const circuit::Netlist> circuit, data::FeatureSet features,
    data::StructureKind kind) {
  const std::uint64_t fp = netlist_fingerprint(*circuit);
  return get(std::move(circuit), features, kind, fp);
}

std::shared_ptr<const FeatureCache::Entry> FeatureCache::get(
    std::shared_ptr<const circuit::Netlist> circuit, data::FeatureSet features,
    data::StructureKind kind, std::uint64_t fp) {
  const Key key{fp, features, kind};
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(key);
  if (it != entries_.end()) {
    hits_.add(1);
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
    return it->second.entry;
  }
  misses_.add(1);
  telemetry::TraceSpan span("serve/featurize");
  auto entry = std::make_shared<Entry>();
  entry->fingerprint = fp;
  entry->circuit = circuit;
  entry->structure = data::make_structure(*circuit, kind);
  entry->base_features = data::gate_features(*circuit, {}, features);
  entry->features = features;
  entry->kind = kind;
  lru_.push_front(key);
  entries_.emplace(key, Slot{entry, lru_.begin()});
  evict_locked();
  entries_gauge_.set(static_cast<double>(entries_.size()));
  return entry;
}

void FeatureCache::evict_locked() {
  if (max_entries_ == 0) return;
  while (entries_.size() > max_entries_) {
    entries_.erase(lru_.back());
    lru_.pop_back();
    evictions_.add(1.0);
  }
}

std::shared_ptr<const nn::BaseActivations> FeatureCache::Entry::base(
    const std::shared_ptr<const ModelSnapshot>& snapshot) const {
  std::lock_guard<std::mutex> lock(base_mu_);
  std::erase_if(bases_, [](const auto& b) { return b.first.expired(); });
  for (const auto& [owner, base] : bases_) {
    if (!owner.owner_before(snapshot) && !snapshot.owner_before(owner)) {
      return base;
    }
  }
  auto built = std::make_shared<const nn::BaseActivations>(
      snapshot->model->base(*structure, base_features));
  bases_.emplace_back(snapshot, built);
  return built;
}

graph::Matrix FeatureCache::selected_rows(
    const Entry& entry, const std::vector<circuit::GateId>& selection) {
  const graph::Matrix& base = entry.base_features;
  graph::Matrix rows(selection.size(), base.cols());
  for (std::size_t i = 0; i < selection.size(); ++i) {
    const double* from = base.data() + selection[i] * base.cols();
    std::copy(from, from + base.cols(), rows.data() + i * base.cols());
    rows(i, data::kMaskColumn) = 1.0;
  }
  return rows;
}

std::size_t FeatureCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

void FeatureCache::set_max_entries(std::size_t max_entries) {
  std::lock_guard<std::mutex> lock(mu_);
  max_entries_ = max_entries;
  evict_locked();
  entries_gauge_.set(static_cast<double>(entries_.size()));
}

void FeatureCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  lru_.clear();
  entries_gauge_.set(0.0);
}

}  // namespace ic::serve
