// Umbrella header for the ic::telemetry subsystem — structured logging
// (log.hpp), the metrics registry (metrics.hpp), Chrome-trace spans
// (trace.hpp), the crash/stall flight recorder (flight_recorder.hpp), the
// live progress plane (progress.hpp), the sampling profiler (profiler.hpp),
// and stage-attributed request timelines (timeline.hpp) — plus the
// file-dump helpers shared by the CLI and benches.
//
// Environment variables honoured by the subsystem:
//   IC_LOG_LEVEL       trace|debug|info|warn|error|off   (default: warn;
//                      unrecognized values warn once and fall back)
//   ICNET_METRICS_OUT  path; benches snapshot the registry there on exit
//   ICNET_PROFILE_OUT  path[,hz][,seconds]; arms the sampling profiler at
//                      startup, folded stacks written at exit (the
//                      environment twin of --profile-out)
#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>

#include "ic/support/flight_recorder.hpp"
#include "ic/support/log.hpp"
#include "ic/support/metrics.hpp"
#include "ic/support/profiler.hpp"
#include "ic/support/progress.hpp"
#include "ic/support/timeline.hpp"
#include "ic/support/trace.hpp"

namespace ic::telemetry {

/// Write the global metrics registry to `path`: Prometheus text exposition
/// when the path ends in ".prom", the registry's JSON document otherwise.
/// The snapshot is written to `path + ".tmp"` and renamed into place, so a
/// concurrent reader (or Prometheus textfile collector) never sees a
/// half-written file.
void dump_metrics(const std::string& path);

/// Write the global trace buffer as Chrome trace-event JSON to `path`, and
/// warn once with the count when the buffer dropped spans.
void dump_trace(const std::string& path);

/// Background thread that periodically snapshots the global metrics registry
/// to a file with dump_metrics, so long-running commands (train, attack,
/// serve) expose live progress instead of only an exit-time dump. The
/// destructor stops the thread and writes one final snapshot.
class MetricsFlusher {
 public:
  MetricsFlusher(std::string path, std::chrono::milliseconds interval);
  ~MetricsFlusher();  ///< stop() — joins the thread, flushes once more
  MetricsFlusher(const MetricsFlusher&) = delete;
  MetricsFlusher& operator=(const MetricsFlusher&) = delete;

  /// Join the flusher thread and write a final snapshot. Idempotent.
  void stop();

 private:
  void loop();

  std::string path_;
  std::chrono::milliseconds interval_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;
  std::thread thread_;
};

}  // namespace ic::telemetry
