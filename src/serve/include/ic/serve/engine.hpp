// Sharded micro-batching inference engine (DESIGN.md §9, §13).
//
// Request lifecycle:
//   submit() ── shard router ── per-shard bounded queue ──► shard batcher
//     thread ── micro-batch ──► ThreadPool fan-out (indexed result slots)
//     ──► promises fulfilled / completion callbacks invoked
//
// * Sharding: EngineOptions::shards creates N independent pipelines, each
//   with its own bounded MPSC queue, mutex, batcher thread, and worker pool.
//   Every executor of every shard predicts from the registry's one immutable
//   ModelSnapshot (predict is const). Admission takes only the target shard's
//   lock — there is no global lock on the request path. The router hashes
//   the registered circuit's fingerprint together with the selection, so a
//   given (circuit, selection) query is shard-affine while a policy search
//   streaming thousands of selections of one circuit spreads across every
//   shard. The FeatureCache is engine-wide (one featurization per circuit,
//   whichever shard computes it first), so cache locality survives sharding.
// * Cross-shard determinism: a prediction is a pure function of (model
//   parameters, structure operator, features) — the §8 contract — so WHERE
//   it runs can never change WHAT it answers. Responses are bit-identical
//   at any shard count (CrossShardResponsesAreByteIdentical test).
// * Backpressure is explicit and shard-targeted: when the routed shard's
//   queue holds max_queue requests, submit() completes the future
//   immediately with Rejected instead of blocking the caller or growing
//   without bound. Other shards keep admitting — one hot circuit cannot
//   take down the whole engine (DESIGN.md §13 spells out the semantics).
// * Deadlines are per request (enqueue time + timeout_ms); an expired
//   request is answered DeadlineExceeded without running inference.
// * Micro-batching: each shard's batcher drains up to max_batch queued
//   requests and fans them out with ThreadPool::parallel_for under the
//   determinism contract (DESIGN.md §8) — each request writes results[i],
//   and the const delta forward reads the shared base activations and keeps
//   what it recomputes in its thread's workspace, so concurrent answers are
//   bit-identical to serial ones.
// * submit_async() is the event-driven server's path: instead of a future,
//   the completion callback fires exactly once with the result — on the
//   shard batcher thread normally, or on the submitting thread when the
//   request is rejected up front. Callbacks must not block.
// * Shutdown is drain-then-stop: stop() rejects new work, finishes
//   everything already queued, then joins every batcher.
//
// Telemetry: counters serve.requests / serve.rejected /
// serve.deadline_exceeded / serve.errors / serve.batches /
// serve.slow_requests, gauges serve.queue_depth (all shards) and
// serve.shard<k>.queue_depth, histograms serve.request_seconds (submit →
// response) and serve.stage.<stage>_seconds (the request's timeline split:
// queue and batch_admit before execution, feature_build/spmm/dense/readout
// during it), spans serve/batch and serve/request (annotated with the
// request_id). Requests slower end-to-end than the slow-request threshold
// (EngineOptions::slow_request_ms, or the IC_SLOW_REQUEST_MS environment
// variable when the option is left at -1) additionally emit one
// "serve.slow_request" warn log line carrying the request_id, circuit
// fingerprint, queue wait, and compute time.
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
#include <vector>

#include "ic/circuit/netlist.hpp"
#include "ic/serve/feature_cache.hpp"
#include "ic/serve/model_registry.hpp"
#include "ic/support/thread_pool.hpp"
#include "ic/support/timeline.hpp"

namespace ic::telemetry {
class Counter;
class Gauge;
class Histogram;
}  // namespace ic::telemetry

namespace ic::serve {

struct EngineOptions {
  /// Independent shard pipelines (queue + batcher + worker pool each).
  std::size_t shards = 1;
  std::size_t max_queue = 1024;  ///< per-shard; reject beyond this depth
  std::size_t max_batch = 32;    ///< requests per micro-batch
  /// Inference workers per shard. 0 = all shards share ThreadPool::global()
  /// (sized by IC_JOBS); an explicit value gives each shard a private pool
  /// of that size.
  std::size_t jobs = 0;
  std::int64_t default_timeout_ms = -1;  ///< applied when a request has none
  /// End-to-end latency (ms) above which a request logs a
  /// "serve.slow_request" warn line. -1 = read IC_SLOW_REQUEST_MS from the
  /// environment (absent/unparseable disables the log entirely).
  std::int64_t slow_request_ms = -1;
  /// FeatureCache entry cap (LRU eviction beyond it); 0 = unbounded. The
  /// cache is shared by every shard.
  std::size_t feature_cache_max = 0;
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
  /// echoed in the result, annotated on the serve/request trace span, and
  /// printed by the slow-request log line.
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
  /// block (it runs on a shard batcher thread, or inline on the submitter
  /// when the request is rejected before enqueue).
  using Callback = std::function<void(PredictResult)>;

  explicit InferenceEngine(ModelRegistry& registry, EngineOptions options = {});
  ~InferenceEngine();  ///< drain-then-stop
  InferenceEngine(const InferenceEngine&) = delete;
  InferenceEngine& operator=(const InferenceEngine&) = delete;

  /// Register a circuit for prediction under `name` (fingerprinted once
  /// here; replaces any previous binding of the name).
  void register_circuit(const std::string& name,
                        std::shared_ptr<const circuit::Netlist> circuit);

  /// Enqueue one request. The future always completes — with a prediction,
  /// or with a Rejected / DeadlineExceeded / Error result.
  std::future<PredictResult> submit(PredictRequest request);

  /// Enqueue one request, completion by callback instead of future — the
  /// non-blocking path the event-driven server uses. The callback always
  /// fires exactly once.
  void submit_async(PredictRequest request, Callback done);

  /// submit() + wait. Convenience for tests and the CLI.
  PredictResult predict(PredictRequest request);

  /// Submit every request before waiting on any, then collect results
  /// index-aligned with the input. Because nothing waits until the whole
  /// batch is enqueued, the shard batchers can coalesce it into micro-batches
  /// across every shard — the policy searcher's per-neighborhood scoring path
  /// (DESIGN.md §14). Answers are bit-identical to per-request predict().
  std::vector<PredictResult> predict_batch(
      std::vector<PredictRequest> requests);

  /// Shard the router would send this request to — a pure function of the
  /// registered circuit's fingerprint and the selection, exposed for
  /// shard-targeted tests and ops tooling.
  std::size_t shard_of(const PredictRequest& request) const;

  std::size_t shard_count() const { return shards_.size(); }

  /// Block until every queued and in-flight request has been answered.
  void drain();

  /// Graceful shutdown: reject new submissions, answer everything already
  /// queued, join every shard batcher. Idempotent; the destructor calls it.
  void stop();

  std::size_t queue_depth() const;                  ///< all shards
  std::size_t queue_depth(std::size_t shard) const; ///< one shard
  /// Per-shard queue capacity (EngineOptions::max_queue) — the bound the
  /// routed shard rejects beyond.
  std::size_t max_queue() const { return options_.max_queue; }
  /// Whole-engine capacity (max_queue × shards) — readiness checks compare
  /// total depth against this.
  std::size_t total_capacity() const {
    return options_.max_queue * shards_.size();
  }

  /// Pause/resume every shard batcher (queued requests sit untouched while
  /// paused). Exists so tests can fill queues deterministically; stop()
  /// resumes.
  void set_paused(bool paused);

  /// Drop cached featurizations (cold-start benchmarking).
  void clear_feature_cache() { features_.clear(); }

  /// Resolved slow-request threshold in ms (-1 = logging disabled). Shared
  /// with the search service so {"op":"search"} participates in the same
  /// --slow-ms policy as predict.
  std::int64_t slow_request_ms() const { return slow_request_ms_; }

  /// Tail-sampled request timelines (K slowest + 1-in-N uniform per shard),
  /// the backing store of the {"op":"traces"} admin op.
  const telemetry::TraceStore& traces() const { return *traces_; }

 private:
  struct Pending {
    PredictRequest request;
    std::promise<PredictResult> promise;
    Callback callback;  ///< when set, fulfilled via callback, not promise
    std::chrono::steady_clock::time_point enqueued;
    std::chrono::steady_clock::time_point deadline;  ///< max() = none
    std::uint64_t fingerprint = 0;  ///< resolved circuit fingerprint
    std::uint32_t batch_size = 0;   ///< micro-batch this request ran in
  };
  struct RegisteredCircuit {
    std::shared_ptr<const circuit::Netlist> netlist;
    std::uint64_t fingerprint = 0;
  };
  /// One independent pipeline: bounded MPSC queue, batcher, worker pool.
  /// Admission and batching touch only this state, so shards never contend
  /// with each other.
  struct Shard {
    mutable std::mutex mu;
    std::condition_variable work_cv;     // batcher wakeups
    std::condition_variable drained_cv;  // drain() wakeups
    std::deque<std::unique_ptr<Pending>> queue;
    std::size_t in_flight = 0;
    bool stopping = false;
    bool paused = false;

    support::ThreadPool* pool = nullptr;  // global or owned_pool
    std::unique_ptr<support::ThreadPool> owned_pool;
    telemetry::Gauge* depth_gauge = nullptr;  // serve.shard<k>.queue_depth
    std::thread batcher;
  };

  static void fulfill(Pending& pending, PredictResult result);
  void enqueue(std::unique_ptr<Pending> pending);
  void batcher_loop(std::size_t shard_index);
  /// Observe serve.stage.* histograms and offer the timeline to the
  /// TraceStore; called once per request at fulfillment.
  void finish_timeline(Pending& pending, std::size_t shard_index,
                       double total_seconds);
  PredictResult process(Pending& pending);
  PredictResult process_inner(Pending& pending,
                              std::chrono::steady_clock::time_point started);

  ModelRegistry& registry_;
  EngineOptions options_;
  FeatureCache features_;
  // Instruments resolved once: the request path does no registry lookups.
  telemetry::Counter& requests_;           // serve.requests
  telemetry::Counter& rejected_;           // serve.rejected
  telemetry::Counter& deadline_exceeded_;  // serve.deadline_exceeded
  telemetry::Counter& errors_;             // serve.errors
  telemetry::Counter& batches_;            // serve.batches
  telemetry::Counter& slow_requests_;      // serve.slow_requests
  telemetry::Gauge& queue_depth_gauge_;    // serve.queue_depth
  telemetry::Histogram& request_seconds_;  // serve.request_seconds
  std::unique_ptr<telemetry::TraceStore> traces_;
  /// serve.stage.<name>_seconds, indexed by Stage — resolved once so the
  /// per-request fulfill loop does no registry lookups.
  std::array<telemetry::Histogram*, telemetry::kStageCount> stage_hist_{};
  telemetry::Histogram* batch_size_hist_ = nullptr;  // serve.batch_size
  std::int64_t slow_request_ms_ = -1;  ///< resolved option/env; -1 = off
  std::atomic<std::uint64_t> next_request_id_{0};
  std::atomic<std::size_t> total_depth_{0};  // feeds serve.queue_depth

  mutable std::mutex circuits_mu_;
  std::map<std::string, RegisteredCircuit> circuits_;

  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace ic::serve
