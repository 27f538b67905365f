// Serving-plane adapter for the policy searcher (DESIGN.md §14).
//
// A SearchService owns one worker thread and a job queue bounded at 8. The
// {"op":"search"} handler it installs on a Server only reads the options and
// enqueues — searches run for seconds to minutes, far too long for an I/O
// thread — and the worker answers through the connection's ordered response
// slot when the search completes, exactly like engine completion callbacks
// do for predict.
// Backpressure is explicit: when the queue is full the request is answered
// status "rejected" immediately. A search whose "search" object does not
// parse (options_from_json) is answered status "error" at admission, never
// queued, and counts in search.errors like a search that fails while it runs.
//
// A search names a circuit registered with the engine: the service takes
// its netlist (for neighborhoods and verification attacks) from
// InferenceEngine::circuit() and scores candidates through an EngineOracle
// bound to the same engine — so searches and client predictions share one
// circuit table, the engine workers and the model registry.
//
// The wire handler and run() both turn the request's "search" object into
// SearchOptions through options_from_json (report.hpp), and icnet_cli's
// in-process path calls run() with the object it builds from its flags, so
// a wire search and a local search of the same options validate alike and
// report byte-identically (WireSearchMatchesInProcessByteForByte).
//
// Slow-request parity with predict: a search slower end-to-end (enqueue →
// response ready) than the engine's slow-request threshold
// (EngineOptions::slow_request_ms, the CLI's --slow-ms)
// bumps search.slow_requests and logs one "search.slow_request" warn line
// carrying the request_id, circuit, queue wait, and search time. Every
// search also feeds the search.request_seconds and search.queue_wait_seconds
// histograms. The service resolves its search.* instruments once, in its
// constructor.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <string>
#include <thread>

#include "ic/search/search.hpp"
#include "ic/serve/server.hpp"
#include "ic/serve/wire.hpp"
#include "ic/support/metrics.hpp"

namespace ic::search {

class SearchService {
 public:
  explicit SearchService(serve::InferenceEngine& engine);
  ~SearchService();  ///< stop()
  SearchService(const SearchService&) = delete;
  SearchService& operator=(const SearchService&) = delete;

  /// Install the {"op":"search"} handler. Call before server.start().
  void install(serve::Server& server);

  /// Run one search synchronously on the caller's thread (the CLI's
  /// in-process path; bypasses the queue). Throws on options that do not
  /// parse, a circuit the engine does not know, or infeasible options.
  SearchReport run(const serve::WireRequest& request);

  /// Answer every queued job with an error, then join the worker. Idempotent.
  /// Call after Server::shutdown() — in-flight searches still complete and
  /// flush their response slots during the server drain.
  void stop();

 private:
  struct Job {
    serve::WireRequest request;
    SearchOptions options;  ///< parsed at admission
    std::function<void(std::string)> respond;
    std::chrono::steady_clock::time_point enqueued;
  };

  SearchReport search(const serve::WireRequest& request,
                      const SearchOptions& options);
  /// The error answer to a search that failed; counts search.errors.
  std::string failed(const serve::WireRequest& request,
                     const std::exception& e);
  void worker_loop();
  std::string handle_job(const Job& job);

  serve::InferenceEngine& engine_;
  // Instruments resolved once: no by-name lookups after construction.
  telemetry::Counter& rejected_;              // search.rejected
  telemetry::Counter& errors_;                // search.errors
  telemetry::Counter& slow_requests_;         // search.slow_requests
  telemetry::Histogram& queue_wait_seconds_;  // search.queue_wait_seconds
  telemetry::Histogram& request_seconds_;     // search.request_seconds

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::deque<Job> queue_;
  bool stopping_ = false;
  std::thread worker_;
};

}  // namespace ic::search
