#include "ic/search/service.hpp"

#include <utility>

#include "ic/search/report.hpp"
#include "ic/support/assert.hpp"
#include "ic/support/log.hpp"
#include "ic/support/metrics.hpp"

namespace ic::search {

using serve::JsonValue;

SearchOptions options_from_wire(const serve::WireSearchParams& params) {
  SearchOptions options;
  options.budget = static_cast<std::size_t>(params.budget);
  options.scheme = scheme_from_name(params.scheme);
  options.greedy_steps = static_cast<std::size_t>(params.greedy_steps);
  options.sa_steps = static_cast<std::size_t>(params.sa_steps);
  options.neighbors = static_cast<std::size_t>(params.neighbors);
  options.top_k = static_cast<std::size_t>(params.top_k);
  options.seed = params.seed;
  options.objective.area_weight = params.area_weight;
  options.objective.depth_weight = params.depth_weight;
  options.sa_initial_temp = params.sa_initial_temp;
  options.sa_cooling = params.sa_cooling;
  options.verify_max_conflicts = params.verify_max_conflicts;
  return options;
}

namespace {

std::string error_response(const serve::WireRequest& request,
                           const std::string& status,
                           const std::string& error) {
  JsonValue resp = JsonValue::object();
  if (request.has_id) {
    resp.set("id", JsonValue::number(static_cast<double>(request.id)));
  }
  resp.set("op", JsonValue::string("search"));
  resp.set("ok", JsonValue::boolean(false));
  resp.set("status", JsonValue::string(status));
  resp.set("error", JsonValue::string(error));
  resp.set("request_id", JsonValue::string(request.request_id));
  return resp.dump();
}

}  // namespace

SearchService::SearchService(serve::InferenceEngine& engine,
                             SearchServiceOptions options)
    : engine_(engine), options_(options) {
  worker_ = std::thread([this] { worker_loop(); });
}

SearchService::~SearchService() { stop(); }

void SearchService::install(serve::Server& server) {
  server.register_op(
      "search", [this](const serve::WireRequest& request,
                       std::function<void(std::string)> respond) {
        std::unique_lock<std::mutex> lock(mu_);
        if (stopping_ || queue_.size() >= options_.max_queue) {
          const bool rejected = !stopping_;
          lock.unlock();
          telemetry::MetricsRegistry::global()
              .counter("search.rejected")
              .add(1);
          respond(error_response(
              request, rejected ? "rejected" : "error",
              rejected ? "search queue is full" : "search service stopped"));
          return;
        }
        queue_.push_back(
            Job{request, std::move(respond), std::chrono::steady_clock::now()});
        lock.unlock();
        work_cv_.notify_one();
      });
}

SearchReport SearchService::run(const serve::WireRequest& request) {
  const auto circuit = engine_.circuit(request.circuit);
  IC_CHECK(circuit != nullptr, "unknown circuit '" << request.circuit << "'");
  EngineOracle oracle(engine_, request.model, request.circuit);
  return policy_search(*circuit, oracle, options_from_wire(request.search));
}

std::string SearchService::handle_job(const Job& job) {
  try {
    const SearchReport report = run(job.request);
    JsonValue resp = JsonValue::object();
    if (job.request.has_id) {
      resp.set("id",
               JsonValue::number(static_cast<double>(job.request.id)));
    }
    resp.set("op", JsonValue::string("search"));
    resp.set("ok", JsonValue::boolean(true));
    resp.set("report", report_to_json(report));
    resp.set("request_id", JsonValue::string(job.request.request_id));
    return resp.dump();
  } catch (const std::exception& e) {
    telemetry::MetricsRegistry::global().counter("search.errors").add(1);
    ICLOG(warn) << "search request failed"
                << telemetry::kv("request_id", job.request.request_id)
                << telemetry::kv("error", e.what());
    return error_response(job.request, "error", e.what());
  }
}

void SearchService::worker_loop() {
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_, nothing left to answer
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    auto& metrics = telemetry::MetricsRegistry::global();
    const auto started = std::chrono::steady_clock::now();
    const double queue_wait =
        std::chrono::duration<double>(started - job.enqueued).count();
    metrics.histogram("search.queue_wait_seconds").observe(queue_wait);
    const std::string response = handle_job(job);
    const double search_time =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      started)
            .count();
    metrics.histogram("search.request_seconds").observe(queue_wait +
                                                        search_time);
    // Same --slow-ms policy as the predict path (the engine resolved the
    // option/env once); searches are orders of magnitude slower than
    // predicts, but the operator asked for one threshold on "a request".
    const std::int64_t slow_ms = engine_.slow_request_ms();
    if (slow_ms >= 0 && (queue_wait + search_time) * 1e3 >
                            static_cast<double>(slow_ms)) {
      metrics.counter("search.slow_requests").add(1);
      ICLOG(warn) << "search.slow_request"
                  << telemetry::kv("request_id", job.request.request_id)
                  << telemetry::kv("circuit", job.request.circuit)
                  << telemetry::kv("queue_wait_s", queue_wait)
                  << telemetry::kv("search_s", search_time);
    }
    job.respond(response);
  }
}

void SearchService::stop() {
  std::deque<Job> leftovers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_ && !worker_.joinable()) return;
    stopping_ = true;
    leftovers.swap(queue_);
  }
  work_cv_.notify_all();
  for (const Job& job : leftovers) {
    job.respond(error_response(job.request, "error", "search service stopped"));
  }
  if (worker_.joinable()) worker_.join();
}

}  // namespace ic::search
