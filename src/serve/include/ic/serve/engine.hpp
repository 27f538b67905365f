// Inference engine: one bounded queue pulled by `jobs` workers (DESIGN.md
// §9, §13).
//
// Request lifecycle:
//   submit_async() ── bounded queue ──► worker pops its share ──► process()
//     ──► completion callback, one request at a time
//
// * Workers: EngineOptions::jobs threads (0 = IC_JOBS, or 1 when unset),
//   owned by the engine. A worker takes its fair share of the queue,
//   min(max_batch, ceil(queued / workers)), wakes one more worker if work is
//   left, and answers each request as soon as it is computed: nothing waits
//   for the rest of a pop. Every worker predicts from the registry's one
//   immutable ModelSnapshot (predict is const).
// * Circuit table: each registered circuit keeps its netlist, its
//   fingerprint and, per live model snapshot, one prepared state — the
//   structure operator of the snapshot's kind and the snapshot's base
//   activations (nn::BaseActivations) on the base features, every mask bit
//   clear. The first predict that needs a prepared state builds it under the
//   circuit's own lock; every later one shares it. A prepared state is keyed
//   weakly by its snapshot, so it goes at the circuit's next lookup once a
//   hot reload has replaced the snapshot and no request holds it, and with
//   the circuit when its name is registered again. Memory is bounded by
//   registered circuits × live snapshots. A request copies only its
//   selection's feature rows, never the n×F matrix (DESIGN.md §9).
// * Determinism: a prediction is a pure function of (model parameters,
//   structure operator, features) — the §8 contract — so which worker runs
//   it can never change what it answers. Responses are bit-identical at any
//   jobs value (CrossJobsResponsesAreByteIdentical test).
// * Backpressure is explicit and whole-engine: when the queue holds
//   max_queue requests, a submission is answered Rejected at once instead of
//   blocking the caller or growing without bound.
// * Deadlines are per request (enqueue time + timeout_ms); an expired
//   request is answered DeadlineExceeded without running inference.
// * Admission has one path: submit_async() takes a completion callback that
//   fires exactly once — on a worker thread normally, or on the submitting
//   thread when the request is rejected up front. submit() is submit_async()
//   with a callback that sets a promise. Callbacks must not block or throw.
// * Shutdown is drain-then-stop: stop() rejects new work, finishes
//   everything already queued, then joins every worker.
//
// Telemetry: counters serve.requests / serve.rejected /
// serve.deadline_exceeded / serve.errors / serve.batches (one per worker
// pop) / serve.slow_requests, serve.feature_cache.hits /
// serve.feature_cache.misses (per predict: prepared state found / built),
// gauge serve.queue_depth, histograms
// serve.batch_size (one worker pop), serve.request_seconds (submit →
// response) and serve.stage.<stage>_seconds (the request's timeline split:
// queue and batch_admit before execution, feature_build/spmm/dense/readout
// during it), and span serve/featurize (a prepared-state build). A request
// is recorded once, by its timeline: bounded in the TraceStore
// ({"op":"traces"}), aggregated in serve.stage.*; it opens no trace span of
// its own, so `serve --trace-out` does not grow with traffic. Requests slower
// end-to-end than EngineOptions::slow_request_ms (the CLI's --slow-ms)
// additionally emit one "serve.slow_request" warn log line carrying the
// request_id, circuit fingerprint (0 when the request failed before its
// circuit was found), queue wait, and compute time.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "ic/circuit/netlist.hpp"
#include "ic/graph/sparse.hpp"
#include "ic/nn/regressor.hpp"
#include "ic/serve/model_registry.hpp"
#include "ic/support/progress.hpp"
#include "ic/support/timeline.hpp"

namespace ic::telemetry {
class Counter;
class Gauge;
class Histogram;
}  // namespace ic::telemetry

namespace ic::serve {

struct EngineOptions {
  std::size_t max_queue = 1024;  ///< reject beyond this queue depth
  std::size_t max_batch = 32;    ///< most requests one worker pop takes
  /// Worker threads. 0 = IC_JOBS, or 1 when it is unset.
  std::size_t jobs = 0;
  std::int64_t default_timeout_ms = -1;  ///< applied when a request has none
  /// End-to-end latency (ms) above which a request logs a
  /// "serve.slow_request" warn line. -1 = off.
  std::int64_t slow_request_ms = -1;
};

enum class RequestStatus { Ok, Rejected, DeadlineExceeded, Error };

/// Wire-protocol name of a status ("ok", "rejected", "deadline", "error").
const char* status_name(RequestStatus status);

struct PredictRequest {
  std::string model = "default";
  std::string circuit = "default";
  std::vector<circuit::GateId> selection;
  std::int64_t timeout_ms = -1;  ///< -1 = engine default
  /// End-to-end tracing id. Empty = submit() assigns "r-<n>"; the id is
  /// echoed in the result, kept with the request's timeline in the
  /// TraceStore, and printed by the slow-request log line.
  std::string request_id;
  /// Stage-attributed timeline. The server marks Accept/Parse before
  /// submitting; the engine marks Route/Queue/BatchAdmit/FeatureBuild/
  /// Respond, and the forward pass marks Spmm/Dense/Readout through the
  /// thread-local installed around inference. Completed timelines feed the
  /// engine's TraceStore and the serve.stage.*_seconds histograms.
  telemetry::Timeline timeline;
};

struct PredictResult {
  RequestStatus status = RequestStatus::Ok;
  std::string error;
  double log_runtime = 0.0;  ///< label scale: log(1 + runtime µs)
  double seconds = 0.0;
  std::uint64_t model_version = 0;
  std::string request_id;  ///< echo of PredictRequest::request_id

  bool ok() const { return status == RequestStatus::Ok; }
};

class InferenceEngine {
 public:
  /// Completion hook for submit_async(). Invoked exactly once; must not
  /// block or throw (it runs on a worker thread, or inline on the submitter
  /// when the request is rejected before enqueue).
  using Callback = std::function<void(PredictResult)>;

  explicit InferenceEngine(ModelRegistry& registry, EngineOptions options = {});
  ~InferenceEngine();  ///< drain-then-stop
  InferenceEngine(const InferenceEngine&) = delete;
  InferenceEngine& operator=(const InferenceEngine&) = delete;

  /// Register a circuit for prediction under `name` (fingerprinted once
  /// here). Replaces any previous binding of the name, and with it every
  /// prepared state built for the old one.
  void register_circuit(const std::string& name,
                        std::shared_ptr<const circuit::Netlist> circuit);

  /// The netlist registered under `name`, or nullptr.
  std::shared_ptr<const circuit::Netlist> circuit(
      const std::string& name) const;

  /// Enqueue one request, completion by callback — the non-blocking path
  /// the event-driven server uses. The callback always fires exactly once,
  /// with a prediction or with a Rejected / DeadlineExceeded / Error result.
  void submit_async(PredictRequest request, Callback done);

  /// submit_async() with a callback that completes the returned future.
  std::future<PredictResult> submit(PredictRequest request);

  /// submit() + wait. Convenience for tests and the CLI.
  PredictResult predict(PredictRequest request);

  /// Submit every request before waiting on any, then collect results
  /// index-aligned with the input. Because nothing waits until the whole
  /// batch is enqueued, every worker can take a share of it — the policy
  /// searcher's per-neighborhood scoring path (DESIGN.md §14). The caller
  /// wakes once, when the last answer is in. Answers are bit-identical to
  /// per-request predict().
  std::vector<PredictResult> predict_batch(
      std::vector<PredictRequest> requests);

  /// Block until every queued and in-flight request has been answered.
  void drain();

  /// Graceful shutdown: reject new submissions, answer everything already
  /// queued, join every worker. Idempotent; the destructor calls it.
  void stop();

  std::size_t queue_depth() const;
  /// Queue capacity (EngineOptions::max_queue) — submissions beyond it are
  /// rejected.
  std::size_t max_queue() const { return options_.max_queue; }

  /// Pause/resume the workers (queued requests sit untouched while paused).
  /// Exists so tests can fill the queue deterministically; stop() resumes.
  void set_paused(bool paused);

  /// Slow-request threshold in ms (-1 = logging disabled). Shared
  /// with the search service so {"op":"search"} participates in the same
  /// --slow-ms policy as predict.
  std::int64_t slow_request_ms() const { return options_.slow_request_ms; }

  /// Tail-sampled request timelines (K slowest + 1-in-N uniform), the
  /// backing store of the {"op":"traces"} admin op.
  const telemetry::TraceStore& traces() const { return traces_; }

 private:
  struct Pending {
    PredictRequest request;
    Callback done;
    std::chrono::steady_clock::time_point enqueued;
    std::chrono::steady_clock::time_point deadline;  ///< max() = none
    std::uint64_t fingerprint = 0;  ///< set once the circuit is found
    std::uint32_t batch_size = 0;   ///< size of the pop this request ran in
  };
  /// A circuit's selection-independent state for one model snapshot.
  struct Prepared {
    std::shared_ptr<const graph::SparseMatrix> structure;
    nn::BaseActivations base;  ///< base.features is the base X
  };
  struct Circuit {
    std::shared_ptr<const circuit::Netlist> netlist;
    std::uint64_t fingerprint = 0;
    std::mutex mu;  ///< guards `prepared`; held while one is built
    /// One per live snapshot; a weak key never keeps a model alive.
    std::vector<std::pair<std::weak_ptr<const ModelSnapshot>,
                          std::shared_ptr<const Prepared>>>
        prepared;
  };

  void worker_loop();
  /// Observe serve.stage.* histograms and offer the timeline to the
  /// TraceStore; called once per request at fulfillment.
  void finish_timeline(Pending& pending, double total_seconds);
  PredictResult process(Pending& pending);
  PredictResult process_inner(Pending& pending,
                              std::chrono::steady_clock::time_point started);
  /// `circuit`'s prepared state for `snapshot`: found, or built under the
  /// circuit's lock. Counts a feature-cache hit or miss.
  std::shared_ptr<const Prepared> prepare(
      Circuit& circuit, const std::shared_ptr<const ModelSnapshot>& snapshot);

  ModelRegistry& registry_;
  EngineOptions options_;  ///< jobs resolved to the worker count
  // Instruments resolved once: the request path does no registry lookups.
  telemetry::Counter& requests_;           // serve.requests
  telemetry::Counter& rejected_;           // serve.rejected
  telemetry::Counter& deadline_exceeded_;  // serve.deadline_exceeded
  telemetry::Counter& errors_;             // serve.errors
  telemetry::Counter& batches_;            // serve.batches
  telemetry::Counter& slow_requests_;      // serve.slow_requests
  telemetry::Counter& prepared_hits_;      // serve.feature_cache.hits
  telemetry::Counter& prepared_misses_;    // serve.feature_cache.misses
  telemetry::Gauge& queue_depth_gauge_;    // serve.queue_depth
  telemetry::Histogram& request_seconds_;  // serve.request_seconds
  telemetry::Histogram& batch_size_;       // serve.batch_size
  /// serve.stage.<name>_seconds, indexed by Stage.
  std::array<telemetry::Histogram*, telemetry::kStageCount> stage_hist_{};
  telemetry::TraceStore traces_;
  /// Heartbeat slot: requests served and live queue depth. The engine idles
  /// legitimately between requests, so the stall watchdog is off.
  telemetry::ProgressJob progress_{"serve.engine"};
  std::atomic<std::uint64_t> next_request_id_{0};

  mutable std::mutex circuits_mu_;  // guards the table, not its entries
  std::map<std::string, std::shared_ptr<Circuit>> circuits_;

  mutable std::mutex mu_;               // guards the queue state below
  std::condition_variable work_cv_;     // worker wakeups
  std::condition_variable drained_cv_;  // drain() wakeups
  std::deque<std::unique_ptr<Pending>> queue_;
  std::size_t in_flight_ = 0;  ///< popped, not yet answered
  bool stopping_ = false;
  bool paused_ = false;

  std::vector<std::thread> workers_;  // started last, joined by stop()
};

}  // namespace ic::serve
