#include "ic/support/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>

#include "ic/support/assert.hpp"
#include "ic/support/strings.hpp"

namespace ic::telemetry {

namespace {

/// fetch_add for atomic<double> via CAS; portable to pre-C++20 atomics and
/// toolchains without native FP atomics.
void atomic_add(std::atomic<double>& target, double delta) {
  double cur = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(cur, cur + delta, std::memory_order_relaxed)) {
  }
}

void atomic_min(std::atomic<double>& target, double x) {
  double cur = target.load(std::memory_order_relaxed);
  while (x < cur &&
         !target.compare_exchange_weak(cur, x, std::memory_order_relaxed)) {
  }
}

void atomic_max(std::atomic<double>& target, double x) {
  double cur = target.load(std::memory_order_relaxed);
  while (x > cur &&
         !target.compare_exchange_weak(cur, x, std::memory_order_relaxed)) {
  }
}

/// JSON-safe rendering of a double (JSON has no inf/nan literals).
void write_number(std::ostream& os, double v) {
  if (std::isfinite(v)) {
    std::ostringstream tmp;
    tmp.precision(12);
    tmp << v;
    os << tmp.str();
  } else {
    os << "null";
  }
}

void write_string(std::ostream& os, const std::string& s) {
  os << ic::json_quote(s);
}

/// Prometheus sample value: %.17g round-trips doubles, and the format allows
/// +Inf/-Inf/NaN spellings directly.
void write_prom_number(std::ostream& os, double v) {
  if (std::isnan(v)) {
    os << "NaN";
  } else if (std::isinf(v)) {
    os << (v > 0 ? "+Inf" : "-Inf");
  } else {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    os << buf;
  }
}

}  // namespace

void Gauge::add(double delta) { atomic_add(value_, delta); }

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  IC_ASSERT(!bounds_.empty());
  IC_ASSERT(std::is_sorted(bounds_.begin(), bounds_.end()));
  buckets_ = std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) buckets_[i].store(0);
  min_.store(std::numeric_limits<double>::infinity());
  max_.store(-std::numeric_limits<double>::infinity());
}

std::vector<double> Histogram::exponential_bounds(double start, double factor,
                                                  std::size_t count) {
  IC_ASSERT(start > 0.0 && factor > 1.0 && count >= 1);
  std::vector<double> bounds;
  bounds.reserve(count);
  double b = start;
  for (std::size_t i = 0; i < count; ++i, b *= factor) bounds.push_back(b);
  return bounds;
}

void Histogram::observe(double x) {
  const std::size_t idx = static_cast<std::size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), x) - bounds_.begin());
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  atomic_add(sum_, x);
  atomic_min(min_, x);
  atomic_max(max_, x);
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> out(bounds_.size() + 1);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

double Histogram::min() const { return min_.load(std::memory_order_relaxed); }
double Histogram::max() const { return max_.load(std::memory_order_relaxed); }

double Histogram::quantile(double q) const {
  const std::uint64_t n = count();
  if (n == 0) return 0.0;
  const double lo_clamp = min();
  const double hi_clamp = max();
  if (q <= 0.0) return lo_clamp;
  if (q >= 1.0) return hi_clamp;
  const double target = q * static_cast<double>(n);
  const auto counts = bucket_counts();
  double cumulative = 0.0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    const double next = cumulative + static_cast<double>(counts[i]);
    if (next >= target) {
      // Interpolate inside this bucket, with its edges tightened to the
      // exact observed range so sparse buckets cannot widen the estimate.
      const double lo =
          std::max(i == 0 ? lo_clamp : bounds_[i - 1], lo_clamp);
      const double hi =
          std::min(i < bounds_.size() ? bounds_[i] : hi_clamp, hi_clamp);
      const double frac =
          (target - cumulative) / static_cast<double>(counts[i]);
      const double v = lo + frac * (hi - lo);
      return std::min(std::max(v, lo_clamp), hi_clamp);
    }
    cumulative = next;
  }
  return hi_clamp;
}

void Histogram::reset() {
  for (std::size_t i = 0; i <= bounds_.size(); ++i) buckets_[i].store(0);
  count_.store(0);
  sum_.store(0.0);
  min_.store(std::numeric_limits<double>::infinity());
  max_.store(-std::numeric_limits<double>::infinity());
}

MetricsRegistry& MetricsRegistry::global() {
  // Intentionally leaked: exit hooks (bench snapshots, late log lines) may
  // run after static destructors, so the registry must outlive them all.
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  IC_CHECK(gauges_.count(name) == 0 && histograms_.count(name) == 0,
           "metric '" << name << "' already registered as a different kind");
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  IC_CHECK(counters_.count(name) == 0 && histograms_.count(name) == 0,
           "metric '" << name << "' already registered as a different kind");
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  IC_CHECK(counters_.count(name) == 0 && gauges_.count(name) == 0,
           "metric '" << name << "' already registered as a different kind");
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) {
    IC_CHECK(bounds.empty() || bounds == it->second->bounds(),
             "metric '" << name
                        << "' already registered with other histogram bounds");
    return *it->second;
  }
  if (bounds.empty()) bounds = Histogram::exponential_bounds();
  // Built before it is inserted: bounds the constructor rejects must not
  // leave an empty slot for the dumps to dereference.
  auto hist = std::make_unique<Histogram>(std::move(bounds));
  return *histograms_.emplace(name, std::move(hist)).first->second;
}

void MetricsRegistry::write_json(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(mu_);
  os << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    os << (first ? "\n" : ",\n") << "    ";
    write_string(os, name);
    os << ": " << c->value();
    first = false;
  }
  os << (first ? "" : "\n  ") << "},\n  \"gauges\": {";
  first = true;
  for (const auto& [name, g] : gauges_) {
    os << (first ? "\n" : ",\n") << "    ";
    write_string(os, name);
    os << ": ";
    write_number(os, g->value());
    first = false;
  }
  os << (first ? "" : "\n  ") << "},\n  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    os << (first ? "\n" : ",\n") << "    ";
    write_string(os, name);
    os << ": {\"count\": " << h->count() << ", \"sum\": ";
    write_number(os, h->sum());
    os << ", \"min\": ";
    write_number(os, h->count() ? h->min() : 0.0);
    os << ", \"max\": ";
    write_number(os, h->count() ? h->max() : 0.0);
    os << ", \"buckets\": [";
    const auto& bounds = h->bounds();
    const auto counts = h->bucket_counts();
    for (std::size_t i = 0; i < counts.size(); ++i) {
      if (i) os << ", ";
      os << "{\"le\": ";
      if (i < bounds.size()) {
        write_number(os, bounds[i]);
      } else {
        os << "\"+inf\"";
      }
      os << ", \"count\": " << counts[i] << '}';
    }
    os << "]}";
    first = false;
  }
  os << (first ? "" : "\n  ") << "}\n}\n";
}

std::string MetricsRegistry::to_json() const {
  std::ostringstream os;
  write_json(os);
  return os.str();
}

void MetricsRegistry::write_prometheus(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, c] : counters_) {
    const std::string prom = prometheus_name(name);
    os << "# TYPE " << prom << " counter\n";
    os << prom << ' ' << c->value() << '\n';
  }
  for (const auto& [name, g] : gauges_) {
    const std::string prom = prometheus_name(name);
    os << "# TYPE " << prom << " gauge\n";
    os << prom << ' ';
    write_prom_number(os, g->value());
    os << '\n';
  }
  for (const auto& [name, h] : histograms_) {
    const std::string prom = prometheus_name(name);
    os << "# TYPE " << prom << " histogram\n";
    const auto& bounds = h->bounds();
    const auto counts = h->bucket_counts();
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < counts.size(); ++i) {
      cumulative += counts[i];
      os << prom << "_bucket{le=\"";
      if (i < bounds.size()) {
        write_prom_number(os, bounds[i]);
      } else {
        os << "+Inf";
      }
      os << "\"} " << cumulative << '\n';
    }
    os << prom << "_sum ";
    write_prom_number(os, h->sum());
    os << '\n';
    // _count must equal the +Inf bucket even while observers race, so it is
    // derived from the same bucket reads rather than the count_ atomic.
    os << prom << "_count " << cumulative << '\n';
  }
}

std::string MetricsRegistry::to_prometheus() const {
  std::ostringstream os;
  write_prometheus(os);
  return os.str();
}

std::map<std::string, double> MetricsRegistry::gauge_snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, double> out;
  for (const auto& [name, g] : gauges_) out[name] = g->value();
  return out;
}

std::string prometheus_name(const std::string& name) {
  std::string out;
  out.reserve(name.size() + 1);
  for (const char c : name) {
    const bool legal = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                       (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(legal ? c : '_');
  }
  if (!out.empty() && out[0] >= '0' && out[0] <= '9') {
    out.insert(out.begin(), '_');
  }
  return out;
}

void write_prometheus(std::ostream& os) {
  MetricsRegistry::global().write_prometheus(os);
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& entry : counters_) entry.second->reset();
  for (auto& entry : gauges_) entry.second->reset();
  for (auto& entry : histograms_) entry.second->reset();
}

}  // namespace ic::telemetry
