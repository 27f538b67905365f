// Stage-attributed request timelines for the serving path.
//
// A Timeline is a fixed array of per-stage timestamps/durations covering the
// life of one request: accept → parse → route → queue → batch-admit →
// feature-build → spmm → dense → readout → respond. The serve front-end and
// engine mark the coarse stages directly; the forward pass (SpMM in
// src/graph, dense combination in GraphConv, the regressor readout) marks
// the inner stages through a thread-local "current timeline" so the nn/graph
// layers stay ignorant of serving types and trainer-facing signatures don't
// change. Inner stages may fire many times per request (one SpMM per
// Chebyshev order per layer); durations accumulate, timestamps keep the last
// mark.
//
// Completed timelines land in a TraceStore: a tail-sampling store keeping
// the K slowest requests plus a 1-in-N uniform sample, queryable on a live
// server via {"op":"traces"}.
#pragma once

#include <array>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace ic::telemetry {

enum class Stage : int {
  Accept = 0,     // bytes for the request line fully read off the socket
  Parse,          // wire JSON parsed into a request struct
  Route,          // request admitted to the engine queue
  Queue,          // popped from the queue by a worker
  BatchAdmit,     // the worker starts computing it
  FeatureBuild,   // circuit features resolved (cache hit or rebuild)
  Spmm,           // sparse structure-operator products (accumulates)
  Dense,          // Chebyshev combination + dense layers (accumulates)
  Readout,        // graph readout + MLP head
  Respond,        // result serialized and handed to the response queue
};

constexpr std::size_t kStageCount = 10;

/// Short machine name used in JSON and metric names ("batch_admit", ...).
const char* stage_name(Stage stage);

struct Timeline {
  /// Microseconds (process_micros epoch) when each stage *completed*;
  /// 0 = stage never ran.
  std::array<std::int64_t, kStageCount> ts_us{};
  /// Accumulated duration of each stage in microseconds.
  std::array<std::int64_t, kStageCount> dur_us{};

  /// Record that `stage` just completed: stamps ts_us and charges the time
  /// since the previous mark (or since `begin()`) to dur_us. Inner stages
  /// that fire repeatedly accumulate.
  void mark(Stage stage);

  /// Start (or restart) the clock without attributing a stage — e.g. when a
  /// request is picked up after waiting, so the wait isn't charged to the
  /// next compute stage.
  void begin();

  bool started() const { return last_us_ != 0; }

 private:
  std::int64_t last_us_ = 0;
};

/// Thread-local current timeline, so deep layers (spmm, GraphConv) can mark
/// inner stages without signature changes. Null when no request is active on
/// this thread.
Timeline* current_timeline();

/// RAII installer: points the thread-local at `timeline` for the scope.
class ScopedTimeline {
 public:
  explicit ScopedTimeline(Timeline* timeline);
  ~ScopedTimeline();
  ScopedTimeline(const ScopedTimeline&) = delete;
  ScopedTimeline& operator=(const ScopedTimeline&) = delete;

 private:
  Timeline* previous_;
};

/// Mark `stage` on the thread's current timeline, if any. The no-request
/// case (training, benches) is one thread-local load and a branch.
void mark_stage(Stage stage);

/// One completed, annotated request timeline.
struct TraceRecord {
  Timeline timeline;
  std::string request_id;
  std::uint64_t fingerprint = 0;
  std::uint32_t batch_size = 0;
  double total_seconds = 0.0;
};

/// Tail-sampling store: keep the 8 slowest requests (by total_seconds) plus
/// every 16th request in a 32-entry uniform ring, so both the pathological
/// tail and the typical request shape stay queryable. Append is a short
/// critical section — off the wire loop, once per request.
class TraceStore {
 public:
  void record(TraceRecord record);

  /// All retained records: slowest first, then ring order.
  std::vector<TraceRecord> snapshot() const;

  std::uint64_t recorded() const;  ///< total records offered (not retained)

 private:
  mutable std::mutex mu_;
  std::vector<TraceRecord> slowest_;  // kept sorted, smallest total first
  std::vector<TraceRecord> ring_;
  std::size_t ring_next_ = 0;
  std::uint64_t seen_ = 0;
};

}  // namespace ic::telemetry
