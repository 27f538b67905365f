// Scoped trace spans exported in Chrome trace-event JSON.
//
//   {
//     ic::telemetry::TraceSpan span("sat_attack/dip_iter");
//     ... work ...
//   }  // span recorded on scope exit
//
// Collection is off by default: a disabled TraceSpan is one relaxed atomic
// load and never touches the clock, so instrumentation can live permanently
// in hot paths. Enable with TraceCollector::global().set_enabled(true) (the
// CLI does this for --trace-out), then write_chrome_json() emits a plain JSON
// array of complete events (`"ph":"X"`, microsecond timestamps) that loads
// directly in chrome://tracing or Perfetto.
//
// The collector keeps the first TraceCollector::kMaxEvents spans until
// clear() and counts the rest as dropped, so a long-lived process under
// --trace-out holds a bounded buffer. Spans mark coarse phases (an attack, a
// DIP, a model load, a prepared-state build). A path run once per served
// request opens none: the request's Timeline (timeline.hpp) is its record,
// bounded in a TraceStore.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace ic::telemetry {

/// One finished span on the shared steady-clock axis (see process_micros()).
struct TraceEvent {
  std::string name;
  std::int64_t ts_us = 0;   ///< begin, µs since the process telemetry epoch
  std::int64_t dur_us = 0;  ///< duration in µs
  std::uint64_t tid = 0;    ///< hashed std::thread::id
};

/// Process-wide buffer of finished spans.
class TraceCollector {
 public:
  /// Spans kept; later ones are dropped and counted. Far above one CLI run
  /// (a 268-DIP attack records about 270 spans), and a few MB at most.
  static constexpr std::size_t kMaxEvents = std::size_t{1} << 16;

  static TraceCollector& global();
  TraceCollector() = default;
  TraceCollector(const TraceCollector&) = delete;
  TraceCollector& operator=(const TraceCollector&) = delete;

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  /// Keep `event`, or count it as dropped when kMaxEvents are kept.
  void record(TraceEvent event);
  std::size_t size() const;
  /// Spans dropped since the last clear().
  std::uint64_t dropped() const;
  void clear();

  /// Plain JSON array of Chrome trace events, oldest first.
  void write_chrome_json(std::ostream& os) const;
  std::string to_chrome_json() const;

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<TraceEvent> events_;
  std::uint64_t dropped_ = 0;
};

/// RAII span against the global collector. When collection is disabled at
/// construction the span is inert (no clock reads, nothing recorded), even if
/// collection is enabled before it closes — a half-measured span would lie.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name);
  ~TraceSpan() { end(); }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Close early (idempotent) — for spans that end mid-scope.
  void end();

 private:
  const char* name_;
  std::int64_t start_us_ = 0;
  bool active_ = false;  ///< recording into the trace collector
};

}  // namespace ic::telemetry
