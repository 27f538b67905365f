#include "ic/search/service.hpp"

#include <utility>

#include "ic/search/report.hpp"
#include "ic/support/assert.hpp"
#include "ic/support/log.hpp"

namespace ic::search {

using serve::JsonValue;

namespace {

/// Searches queued beyond this many are rejected.
constexpr std::size_t kMaxQueue = 8;

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

SearchService::SearchService(serve::InferenceEngine& engine)
    : engine_(engine),
      rejected_(telemetry::MetricsRegistry::global().counter("search.rejected")),
      errors_(telemetry::MetricsRegistry::global().counter("search.errors")),
      slow_requests_(
          telemetry::MetricsRegistry::global().counter("search.slow_requests")),
      queue_wait_seconds_(telemetry::MetricsRegistry::global().histogram(
          "search.queue_wait_seconds")),
      request_seconds_(telemetry::MetricsRegistry::global().histogram(
          "search.request_seconds")) {
  worker_ = std::thread([this] { worker_loop(); });
}

SearchService::~SearchService() { stop(); }

void SearchService::install(serve::Server& server) {
  server.register_op(
      "search", [this](const serve::WireRequest& request,
                       std::function<void(std::string)> respond) {
        SearchOptions options;
        try {
          options = options_from_json(request.search);
        } catch (const std::exception& e) {
          respond(failed(request, e));
          return;
        }
        std::unique_lock<std::mutex> lock(mu_);
        if (stopping_ || queue_.size() >= kMaxQueue) {
          const bool rejected = !stopping_;
          lock.unlock();
          rejected_.add(1);
          respond(error_response(
              request, rejected ? "rejected" : "error",
              rejected ? "search queue is full" : "search service stopped"));
          return;
        }
        queue_.push_back(Job{request, options, std::move(respond),
                             std::chrono::steady_clock::now()});
        lock.unlock();
        work_cv_.notify_one();
      });
}

SearchReport SearchService::run(const serve::WireRequest& request) {
  return search(request, options_from_json(request.search));
}

SearchReport SearchService::search(const serve::WireRequest& request,
                                   const SearchOptions& options) {
  const auto circuit = engine_.circuit(request.circuit);
  IC_CHECK(circuit != nullptr, "unknown circuit '" << request.circuit << "'");
  EngineOracle oracle(engine_, request.model, request.circuit);
  return policy_search(*circuit, oracle, options);
}

std::string SearchService::failed(const serve::WireRequest& request,
                                  const std::exception& e) {
  errors_.add(1);
  ICLOG(warn) << "search request failed"
              << telemetry::kv("request_id", request.request_id)
              << telemetry::kv("error", e.what());
  return error_response(request, "error", e.what());
}

std::string SearchService::handle_job(const Job& job) {
  try {
    const SearchReport report = search(job.request, job.options);
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
    return failed(job.request, e);
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
    const auto started = std::chrono::steady_clock::now();
    const double queue_wait =
        std::chrono::duration<double>(started - job.enqueued).count();
    queue_wait_seconds_.observe(queue_wait);
    const std::string response = handle_job(job);
    const double search_time =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      started)
            .count();
    request_seconds_.observe(queue_wait + search_time);
    // Same --slow-ms policy as the predict path; searches are orders of
    // magnitude slower than predicts, but the operator asked for one
    // threshold on "a request".
    const std::int64_t slow_ms = engine_.slow_request_ms();
    if (slow_ms >= 0 && (queue_wait + search_time) * 1e3 >
                            static_cast<double>(slow_ms)) {
      slow_requests_.add(1);
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
