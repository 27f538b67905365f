// Serving-plane adapter for the policy searcher (DESIGN.md §14).
//
// A SearchService owns one worker thread and a small bounded job queue. The
// {"op":"search"} handler it installs on a Server only enqueues — searches
// run for seconds to minutes, far too long for an I/O thread — and the
// worker answers through the connection's ordered response slot when the
// search completes, exactly like engine completion callbacks do for predict.
// Backpressure is explicit: when the queue is full the request is answered
// status "rejected" immediately.
//
// A search names a circuit registered with the engine: the service takes
// its netlist (for neighborhoods and verification attacks) from
// InferenceEngine::circuit() and scores candidates through an EngineOracle
// bound to the same engine — so searches and client predictions share one
// circuit table, the engine workers and the model registry.
//
// options_from_wire() is the single WireSearchParams → SearchOptions
// mapping; icnet_cli uses it for its in-process path too, which is what
// makes a wire search and a local search of the same parameters
// byte-identical (SearchWireMatchesInProcess test).
//
// Slow-request parity with predict: a search slower end-to-end (enqueue →
// response ready) than the engine's resolved slow-request threshold
// (EngineOptions::slow_request_ms / IC_SLOW_REQUEST_MS, the CLI's --slow-ms)
// bumps search.slow_requests and logs one "search.slow_request" warn line
// carrying the request_id, circuit, queue wait, and search time. Every
// search also feeds the search.request_seconds and search.queue_wait_seconds
// histograms.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>

#include "ic/search/search.hpp"
#include "ic/serve/server.hpp"
#include "ic/serve/wire.hpp"

namespace ic::search {

/// Wire search parameters → searcher options. Throws on unknown scheme
/// names.
SearchOptions options_from_wire(const serve::WireSearchParams& params);

struct SearchServiceOptions {
  std::size_t max_queue = 8;  ///< pending searches beyond this are rejected
};

class SearchService {
 public:
  explicit SearchService(serve::InferenceEngine& engine,
                         SearchServiceOptions options = {});
  ~SearchService();  ///< stop()
  SearchService(const SearchService&) = delete;
  SearchService& operator=(const SearchService&) = delete;

  /// Install the {"op":"search"} handler. Call before server.start().
  void install(serve::Server& server);

  /// Run one search synchronously on the caller's thread (the CLI's
  /// in-process path; bypasses the queue). Throws on a circuit the engine
  /// does not know or on infeasible options.
  SearchReport run(const serve::WireRequest& request);

  /// Answer every queued job with an error, then join the worker. Idempotent.
  /// Call after Server::shutdown() — in-flight searches still complete and
  /// flush their response slots during the server drain.
  void stop();

 private:
  struct Job {
    serve::WireRequest request;
    std::function<void(std::string)> respond;
    std::chrono::steady_clock::time_point enqueued;
  };

  void worker_loop();
  std::string handle_job(const Job& job);

  serve::InferenceEngine& engine_;
  SearchServiceOptions options_;

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::deque<Job> queue_;
  bool stopping_ = false;
  std::thread worker_;
};

}  // namespace ic::search
