// Process-wide metrics: named counters, gauges, and fixed-bucket histograms.
//
//   auto& iters = MetricsRegistry::global().counter("sat_attack.iterations");
//   iters.add(result.iterations);
//
// All instruments are lock-free after registration (plain atomics), safe to
// update from any thread, and dumpable as one JSON document. Registration
// returns stable references: instruments are never deallocated while the
// process lives, so hot paths may cache `Counter&` across calls.
//
// These record *observability* data only — nothing in the library reads a
// metric back to make a decision, so the deterministic effort counters and
// results are untouched whether or not anyone ever dumps the registry.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace ic::telemetry {

/// Monotonically increasing count (events, iterations, conflicts...).
class Counter {
 public:
  void add(std::uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-written scalar (loss, learning rate, queue depth...).
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  /// Atomic increment (negative delta decrements) — for up/down gauges such
  /// as open-connection counts maintained by RAII guards.
  void add(double delta);
  double value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// RAII increment/decrement of a Gauge: +1 on construction, -1 on
/// destruction, so a throwing scope can never leak the count.
class GaugeGuard {
 public:
  explicit GaugeGuard(Gauge& gauge) : gauge_(gauge) { gauge_.add(1.0); }
  ~GaugeGuard() { gauge_.add(-1.0); }
  GaugeGuard(const GaugeGuard&) = delete;
  GaugeGuard& operator=(const GaugeGuard&) = delete;

 private:
  Gauge& gauge_;
};

/// Fixed-bucket histogram: bucket i counts observations ≤ bounds[i], with an
/// implicit overflow bucket. Also tracks count/sum/min/max exactly.
class Histogram {
 public:
  /// `bounds` must be strictly increasing and non-empty.
  explicit Histogram(std::vector<double> bounds);

  /// Geometric bucket bounds {start, start·factor, ...}, `count` of them.
  /// The default spans 1µs–100s, a good fit for solve/epoch durations.
  static std::vector<double> exponential_bounds(double start = 1e-6,
                                                double factor = 10.0,
                                                std::size_t count = 9);

  void observe(double x);

  const std::vector<double>& bounds() const { return bounds_; }
  /// bounds().size() + 1 entries; the last is the overflow bucket.
  std::vector<std::uint64_t> bucket_counts() const;

  /// Quantile estimate in [0, 1]: walks the cumulative bucket counts and
  /// interpolates linearly inside the bucket that crosses rank q·count.
  /// The exact tracked min/max clamp both ends — quantile(0) == min(),
  /// quantile(1) == max(), and no estimate can leave [min, max] — so the
  /// first and last buckets never widen the answer past observed data.
  /// Returns 0 when the histogram is empty.
  double quantile(double q) const;

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  double min() const;
  double max() const;
  void reset();

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{0.0};
  std::atomic<double> max_{0.0};
};

/// Name → instrument map. One global instance serves the whole process; local
/// registries are constructible for tests.
class MetricsRegistry {
 public:
  static MetricsRegistry& global();
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Find-or-create by name. A name identifies exactly one instrument kind;
  /// asking for an existing name as a different kind throws.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// Empty `bounds` takes the existing histogram's, or the exponential
  /// default on creation. Non-empty `bounds` that differ from an existing
  /// histogram's throw, so no caller gets buckets it did not ask for.
  Histogram& histogram(const std::string& name, std::vector<double> bounds = {});

  /// One JSON object: {"counters":{...},"gauges":{...},"histograms":{...}}.
  void write_json(std::ostream& os) const;
  std::string to_json() const;

  /// Prometheus text exposition (version 0.0.4): every counter, gauge, and
  /// histogram with a `# TYPE` header. Names are sanitized to the Prometheus
  /// charset (`.` and any other illegal character become `_`); histograms
  /// render the standard cumulative `_bucket{le="..."}` series plus `_sum`
  /// and `_count`.
  void write_prometheus(std::ostream& os) const;
  std::string to_prometheus() const;

  /// Point-in-time snapshot of every gauge, name → value. Used by the bench
  /// pipeline to turn `bench.*` gauges into a normalized BENCH_*.json.
  std::map<std::string, double> gauge_snapshot() const;

  /// Zero every instrument (names stay registered; references stay valid).
  void reset();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// A metric name rewritten to the Prometheus charset [a-zA-Z0-9_:]: every
/// other character (the registry's `.` separators included) becomes `_`, and
/// a leading digit gains a `_` prefix. "serve.request_seconds" →
/// "serve_request_seconds".
std::string prometheus_name(const std::string& name);

/// MetricsRegistry::global().write_prometheus(os) — the exposition endpoint
/// helper named by DESIGN.md §10.
void write_prometheus(std::ostream& os);

}  // namespace ic::telemetry
