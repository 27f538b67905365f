#include "ic/serve/engine.hpp"

#include <algorithm>
#include <mutex>

#include "ic/circuit/bench_io.hpp"
#include "ic/data/dataset.hpp"
#include "ic/data/features.hpp"
#include "ic/support/assert.hpp"
#include "ic/support/log.hpp"
#include "ic/support/metrics.hpp"
#include "ic/support/thread_pool.hpp"
#include "ic/support/trace.hpp"

namespace ic::serve {

using Clock = std::chrono::steady_clock;

namespace {

/// FNV-1a hash of the canonical .bench serialization of a netlist: equal
/// circuits hash equal regardless of how they were constructed or loaded.
std::uint64_t netlist_fingerprint(const circuit::Netlist& netlist) {
  const std::string text = circuit::write_bench(netlist);
  std::uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a 64
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

/// The feature rows a selection changes, in selection order: row i is gate
/// selection[i]'s base row with its mask bit set, as
/// data::gate_features(circuit, selection, set) has it. The gate ids must
/// have been validated.
graph::Matrix selected_rows(const graph::Matrix& base,
                            const std::vector<circuit::GateId>& selection) {
  graph::Matrix rows(selection.size(), base.cols());
  for (std::size_t i = 0; i < selection.size(); ++i) {
    const double* from = base.data() + selection[i] * base.cols();
    std::copy(from, from + base.cols(), rows.data() + i * base.cols());
    rows(i, data::kMaskColumn) = 1.0;
  }
  return rows;
}

}  // namespace

const char* status_name(RequestStatus status) {
  switch (status) {
    case RequestStatus::Ok: return "ok";
    case RequestStatus::Rejected: return "rejected";
    case RequestStatus::DeadlineExceeded: return "deadline";
    case RequestStatus::Error: return "error";
  }
  IC_ASSERT_MSG(false, "unhandled RequestStatus");
  return "error";
}

InferenceEngine::InferenceEngine(ModelRegistry& registry, EngineOptions options)
    : registry_(registry),
      options_(options),
      requests_(telemetry::MetricsRegistry::global().counter("serve.requests")),
      rejected_(telemetry::MetricsRegistry::global().counter("serve.rejected")),
      deadline_exceeded_(telemetry::MetricsRegistry::global().counter(
          "serve.deadline_exceeded")),
      errors_(telemetry::MetricsRegistry::global().counter("serve.errors")),
      batches_(telemetry::MetricsRegistry::global().counter("serve.batches")),
      slow_requests_(
          telemetry::MetricsRegistry::global().counter("serve.slow_requests")),
      prepared_hits_(telemetry::MetricsRegistry::global().counter(
          "serve.feature_cache.hits")),
      prepared_misses_(telemetry::MetricsRegistry::global().counter(
          "serve.feature_cache.misses")),
      queue_depth_gauge_(
          telemetry::MetricsRegistry::global().gauge("serve.queue_depth")),
      request_seconds_(telemetry::MetricsRegistry::global().histogram(
          "serve.request_seconds")),
      batch_size_(telemetry::MetricsRegistry::global().histogram(
          "serve.batch_size", {1, 2, 4, 8, 16, 32, 64, 128, 256})) {
  IC_CHECK(options_.max_queue >= 1, "EngineOptions::max_queue must be >= 1");
  IC_CHECK(options_.max_batch >= 1, "EngineOptions::max_batch must be >= 1");
  for (std::size_t s = 0; s < telemetry::kStageCount; ++s) {
    const auto stage = static_cast<telemetry::Stage>(s);
    stage_hist_[s] = &telemetry::MetricsRegistry::global().histogram(
        std::string("serve.stage.") + telemetry::stage_name(stage) +
        "_seconds");
  }
  progress_.set_watchdog(false);
  options_.jobs = support::ThreadPool::effective_jobs(options_.jobs);
  workers_.reserve(options_.jobs);
  for (std::size_t k = 0; k < options_.jobs; ++k) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

InferenceEngine::~InferenceEngine() { stop(); }

void InferenceEngine::register_circuit(
    const std::string& name, std::shared_ptr<const circuit::Netlist> circuit) {
  IC_CHECK(circuit != nullptr, "register_circuit needs a netlist");
  auto entry = std::make_shared<Circuit>();
  entry->fingerprint = netlist_fingerprint(*circuit);
  entry->netlist = std::move(circuit);
  std::lock_guard<std::mutex> lock(circuits_mu_);
  circuits_[name] = std::move(entry);
}

std::shared_ptr<const circuit::Netlist> InferenceEngine::circuit(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(circuits_mu_);
  const auto it = circuits_.find(name);
  return it == circuits_.end() ? nullptr : it->second->netlist;
}

void InferenceEngine::submit_async(PredictRequest request, Callback done) {
  IC_CHECK(done != nullptr, "submit_async needs a completion callback");
  const auto now = Clock::now();
  const std::int64_t timeout_ms =
      request.timeout_ms >= 0 ? request.timeout_ms : options_.default_timeout_ms;
  if (request.request_id.empty()) {
    request.request_id =
        "r-" + std::to_string(next_request_id_.fetch_add(1,
                                  std::memory_order_relaxed) + 1);
  }
  auto pending = std::make_unique<Pending>();
  pending->request = std::move(request);
  pending->done = std::move(done);
  pending->enqueued = now;
  pending->deadline = timeout_ms >= 0
                          ? now + std::chrono::milliseconds(timeout_ms)
                          : Clock::time_point::max();
  std::string why;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      why = "engine is shutting down";
    } else if (queue_.size() >= options_.max_queue) {
      why = "queue full (max_queue=" + std::to_string(options_.max_queue) + ")";
    } else {
      pending->request.timeline.mark(telemetry::Stage::Route);
      queue_.push_back(std::move(pending));
      requests_.add(1);
      queue_depth_gauge_.set(static_cast<double>(queue_.size()));
    }
  }
  if (pending == nullptr) {
    work_cv_.notify_one();
    return;
  }
  // Rejected up front: answer on this thread, outside the lock.
  rejected_.add(1);
  PredictResult rejected;
  rejected.status = RequestStatus::Rejected;
  rejected.error = std::move(why);
  rejected.request_id = pending->request.request_id;
  pending->done(std::move(rejected));
}

std::future<PredictResult> InferenceEngine::submit(PredictRequest request) {
  auto promise = std::make_shared<std::promise<PredictResult>>();
  auto future = promise->get_future();
  submit_async(std::move(request), [promise](PredictResult result) {
    promise->set_value(std::move(result));
  });
  return future;
}

PredictResult InferenceEngine::predict(PredictRequest request) {
  return submit(std::move(request)).get();
}

std::vector<PredictResult> InferenceEngine::predict_batch(
    std::vector<PredictRequest> requests) {
  // One wake-up for the whole batch: each callback fills its own slot, and
  // the last one to finish completes `done`. Waiting on a future per request
  // would put the caller to sleep once per answer.
  struct Batch {
    std::vector<PredictResult> results;
    std::atomic<std::size_t> left;
    std::promise<void> done;
  };
  if (requests.empty()) return {};
  auto batch = std::make_shared<Batch>();
  batch->results.resize(requests.size());
  batch->left = requests.size();
  auto done = batch->done.get_future();
  for (std::size_t i = 0; i < requests.size(); ++i) {
    submit_async(std::move(requests[i]), [batch, i](PredictResult result) {
      batch->results[i] = std::move(result);
      if (batch->left.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        batch->done.set_value();
      }
    });
  }
  done.wait();
  return std::move(batch->results);
}

PredictResult InferenceEngine::process(Pending& pending) {
  const PredictRequest& request = pending.request;
  const auto started = Clock::now();
  const double queue_wait =
      std::chrono::duration<double>(started - pending.enqueued).count();
  pending.request.timeline.mark(telemetry::Stage::BatchAdmit);
  // Expose the timeline to the forward pass (SpMM / GraphConv / readout mark
  // inner stages through the thread-local) for the rest of this request.
  telemetry::ScopedTimeline scoped(&pending.request.timeline);
  PredictResult out = process_inner(pending, started);
  out.request_id = request.request_id;
  const double compute =
      std::chrono::duration<double>(Clock::now() - started).count();
  if (options_.slow_request_ms >= 0 &&
      (queue_wait + compute) * 1e3 >
          static_cast<double>(options_.slow_request_ms)) {
    slow_requests_.add(1);
    ICLOG(warn) << "serve.slow_request"
                << telemetry::kv("request_id", request.request_id)
                << telemetry::kv("circuit", request.circuit)
                << telemetry::kv("fingerprint", pending.fingerprint)
                << telemetry::kv("queue_wait_s", queue_wait)
                << telemetry::kv("compute_s", compute)
                << telemetry::kv("status", status_name(out.status));
  }
  return out;
}

PredictResult InferenceEngine::process_inner(Pending& pending,
                                             Clock::time_point started) {
  PredictResult out;
  if (started > pending.deadline) {
    deadline_exceeded_.add(1);
    out.status = RequestStatus::DeadlineExceeded;
    out.error = "deadline exceeded before execution";
    return out;
  }
  const PredictRequest& request = pending.request;
  try {
    const auto snapshot = registry_.get(request.model);
    if (snapshot == nullptr) {
      errors_.add(1);
      out.status = RequestStatus::Error;
      out.error = "unknown model '" + request.model + "'";
      return out;
    }
    std::shared_ptr<Circuit> circuit;
    {
      std::lock_guard<std::mutex> lock(circuits_mu_);
      const auto it = circuits_.find(request.circuit);
      if (it == circuits_.end()) {
        errors_.add(1);
        out.status = RequestStatus::Error;
        out.error = "unknown circuit '" + request.circuit + "'";
        return out;
      }
      circuit = it->second;
    }
    pending.fingerprint = circuit->fingerprint;
    for (const circuit::GateId id : request.selection) {
      if (id >= circuit->netlist->size()) {
        errors_.add(1);
        out.status = RequestStatus::Error;
        out.error = "gate id " + std::to_string(id) + " out of range (circuit has " +
                    std::to_string(circuit->netlist->size()) + " gates)";
        return out;
      }
    }
    const auto prepared = prepare(*circuit, snapshot);
    const graph::Matrix rows =
        selected_rows(prepared->base.features, request.selection);
    pending.request.timeline.mark(telemetry::Stage::FeatureBuild);

    // The delta forward: only the rows the selection reaches are
    // recomputed, in this thread's workspace; the answer is bit-identical
    // to predict() on the selection's full feature matrix (DESIGN.md §8).
    thread_local nn::Workspace workspace;
    out.log_runtime = snapshot->model->predict(
        *prepared->structure, prepared->base, request.selection, rows,
        workspace);
    out.seconds = data::seconds_of_label(out.log_runtime);
    out.model_version = snapshot->version;
    return out;
  } catch (const std::exception& e) {
    errors_.add(1);
    out.status = RequestStatus::Error;
    out.error = e.what();
    return out;
  }
}

std::shared_ptr<const InferenceEngine::Prepared> InferenceEngine::prepare(
    Circuit& circuit, const std::shared_ptr<const ModelSnapshot>& snapshot) {
  std::lock_guard<std::mutex> lock(circuit.mu);
  std::erase_if(circuit.prepared,
                [](const auto& entry) { return entry.first.expired(); });
  for (const auto& [owner, prepared] : circuit.prepared) {
    if (!owner.owner_before(snapshot) && !snapshot.owner_before(owner)) {
      prepared_hits_.add(1);
      return prepared;
    }
  }
  prepared_misses_.add(1);
  telemetry::TraceSpan span("serve/featurize");
  auto structure =
      data::make_structure(*circuit.netlist, snapshot->structure_kind());
  auto base = snapshot->model->base(
      *structure,
      data::gate_features(*circuit.netlist, {}, snapshot->spec.features));
  auto built = std::make_shared<const Prepared>(
      Prepared{std::move(structure), std::move(base)});
  circuit.prepared.emplace_back(snapshot, built);
  return built;
}

void InferenceEngine::finish_timeline(Pending& pending,
                                      double total_seconds) {
  telemetry::Timeline& timeline = pending.request.timeline;
  timeline.mark(telemetry::Stage::Respond);
  for (std::size_t s = 0; s < telemetry::kStageCount; ++s) {
    if (timeline.dur_us[s] > 0) {
      stage_hist_[s]->observe(static_cast<double>(timeline.dur_us[s]) / 1e6);
    }
  }
  telemetry::TraceRecord record;
  record.timeline = timeline;
  record.request_id = pending.request.request_id;
  record.fingerprint = pending.fingerprint;
  record.batch_size = pending.batch_size;
  record.total_seconds = total_seconds;
  traces_.record(std::move(record));
}

void InferenceEngine::worker_loop() {
  for (;;) {
    std::vector<std::unique_ptr<Pending>> popped;
    std::size_t left = 0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] {
        return (!paused_ && !queue_.empty()) || (stopping_ && queue_.empty());
      });
      if (queue_.empty()) return;  // stopping, and everything is answered
      // A fair share, so a burst spreads over every worker instead of
      // filling one pop while the others idle.
      const std::size_t share =
          (queue_.size() + options_.jobs - 1) / options_.jobs;
      const std::size_t n = std::min(options_.max_batch, share);
      popped.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        queue_.front()->request.timeline.mark(telemetry::Stage::Queue);
        queue_.front()->batch_size = static_cast<std::uint32_t>(n);
        popped.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      in_flight_ += n;
      left = queue_.size();
      queue_depth_gauge_.set(static_cast<double>(left));
    }
    if (left > 0) work_cv_.notify_one();
    batches_.add(1);
    batch_size_.observe(static_cast<double>(popped.size()));
    for (auto& pending : popped) {
      PredictResult result = process(*pending);
      const double total =
          std::chrono::duration<double>(Clock::now() - pending->enqueued)
              .count();
      request_seconds_.observe(total);
      finish_timeline(*pending, total);
      pending->done(std::move(result));
    }
    progress_.advance(popped.size());
    progress_.set_counters("queue_depth", left);
    {
      std::lock_guard<std::mutex> lock(mu_);
      in_flight_ -= popped.size();
      if (queue_.empty() && in_flight_ == 0) drained_cv_.notify_all();
    }
  }
}

void InferenceEngine::drain() {
  std::unique_lock<std::mutex> lock(mu_);
  IC_CHECK(!paused_ || queue_.empty(),
           "drain() would never finish while the engine is paused");
  drained_cv_.wait(lock,
                   [this] { return queue_.empty() && in_flight_ == 0; });
}

void InferenceEngine::stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
    paused_ = false;
  }
  work_cv_.notify_all();
  for (auto& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

std::size_t InferenceEngine::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

void InferenceEngine::set_paused(bool paused) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    paused_ = paused;
  }
  work_cv_.notify_all();
}

}  // namespace ic::serve
