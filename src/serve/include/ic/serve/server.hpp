// Event-driven TCP front-end for the inference engine (DESIGN.md §9, §13).
//
// Plain POSIX sockets, JSON-lines protocol (one JSON object per '\n'-framed
// line, see wire.hpp), multiplexed with poll() readiness loops: two I/O
// threads each own a subset of the client sockets, with per-connection
// read/write buffers — no thread-per-connection. Loop 0 additionally polls
// the listening socket (accepted connections are handed out round-robin)
// and runs the model hot-reload tick (ModelRegistry::poll_reload) on its
// poll timeout. Every loop has a self-pipe so engine completion threads and
// shutdown() can wake it immediately.
//
// Request flow: a readable socket is drained into the connection's input
// buffer and split into lines. A line may be at most 1 MiB: a connection
// whose unterminated input grows past that gets one error line and is
// closed, so no peer can make the server hold more. Admin ops
// (ping/health/stats/shutdown) are answered synchronously on the I/O
// thread. Predict lines become an ordered
// response slot on the connection plus InferenceEngine::submit_async() — the
// I/O thread never blocks on inference. When the engine completes a request
// (on a worker thread), the completion callback fills its slot and flushes
// the connection's ready-slot prefix, so pipelined responses always leave in
// request order even when workers finish out of order. A short write
// (EAGAIN) parks the remainder in the connection's output buffer and
// registers POLLOUT interest with the owning loop via its self-pipe. While a
// connection owes more than 1 MiB of answers — unsent bytes plus ready
// answers held behind an unanswered one — the server stops reading it.
//
// Graceful shutdown order:
//   1. stop accepting (loop 0 drops the listener from its poll set),
//   2. every connection is switched to drain mode — no more reads, but
//      pending predict slots still complete and flush,
//   3. each loop exits once its connections are fully flushed and closed,
//   4. InferenceEngine::drain() so every accepted request is answered.
// A client can trigger this remotely with {"op":"shutdown"}.
//
// Admin ops (DESIGN.md §10): {"op":"stats"} answers a live metrics snapshot
// (queue depth, request/error counters, p50/p99 latency, uptime);
// {"op":"stats","format":"prometheus"} carries the full registry as
// Prometheus text in the "prometheus" field; {"op":"health"} answers
// readiness — ready ⇔ at least one model is loaded and the queue depth is
// below InferenceEngine::max_queue(). Every response echoes the
// client's request_id, or a server-assigned "s-<n>" (predict ops defer to
// the engine's "r-<n>").
//
// Telemetry: counters serve.connections and serve.wire_errors (malformed or
// over-long request lines), gauge serve.open_connections (RAII-maintained per
// connection object, so it counts live sockets even on error unwinds). The
// server resolves these, and everything stats and health read, once in its
// constructor.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "ic/serve/engine.hpp"
#include "ic/serve/model_registry.hpp"

namespace ic::serve {

struct WireRequest;

struct ServerOptions {
  std::string host = "127.0.0.1";
  int port = 0;  ///< 0 = pick an ephemeral port (read back via port())
  /// Loop-0 poll timeout; each expiry runs ModelRegistry::poll_reload().
  /// <= 0 disables hot-reload polling (poll blocks until an event).
  std::int64_t reload_poll_ms = 1000;
};

class Server {
 public:
  Server(InferenceEngine& engine, ModelRegistry& registry,
         ServerOptions options = {});
  ~Server();  ///< calls shutdown()
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Handler for an extension op. Invoked on an I/O thread with the parsed
  /// request and a respond callback that must be called exactly once with
  /// the complete response line (without trailing newline). The callback is
  /// thread-safe and may fire later from any thread — handlers doing real
  /// work (e.g. ic::search::SearchService for {"op":"search"}) hand it to
  /// their own executor instead of blocking the I/O thread; the connection's
  /// ordered response slots keep wire order regardless of completion order.
  using OpHandler = std::function<void(
      const WireRequest&, std::function<void(std::string)> respond)>;

  /// Install `handler` for requests whose op equals `op` (must be an op
  /// parse_request accepts; predict and the admin ops cannot be overridden).
  /// Call before start(). Ops that parse but have no handler are answered
  /// with an error response.
  void register_op(const std::string& op, OpHandler handler);

  /// Bind + listen + start the I/O loops. Throws ic::input_error when the
  /// address cannot be bound.
  void start();

  /// Port actually bound (resolves port 0). Valid after start().
  int port() const { return port_; }

  bool running() const { return running_.load(); }

  /// Block until shutdown is requested (remotely or via shutdown()).
  void wait();

  /// Flag the server to stop and wake every I/O loop, without tearing
  /// anything down yet — async-signal-safe (atomic store + pipe writes), so
  /// a SIGINT handler may call it; follow up with shutdown() from a normal
  /// thread.
  void request_shutdown();

  /// Graceful drain-then-stop; see file header. Idempotent, and safe to call
  /// while wait() blocks in another thread.
  void shutdown();

 private:
  struct Conn;          // per-connection state; defined in server.cpp
  struct IoLoop;        // per-thread poll loop state; defined in server.cpp
  struct ResponseSlot;  // one pipelined answer; defined in server.cpp

  /// The answer to a line the server cannot act on; counts serve.wire_errors.
  std::string wire_error(const std::string& message);
  void io_loop(std::size_t index);
  void accept_ready(IoLoop& loop);
  void read_conn(const std::shared_ptr<Conn>& conn);
  void process_line(const std::shared_ptr<Conn>& conn, const std::string& line);
  std::string handle_admin(const WireRequest& req, bool* close_connection);
  /// Queue an already-complete answer and flush; `close_after` stops
  /// reading and closes the connection once it is sent.
  void reply_now(Conn& conn, std::string text, bool close_after = false);
  /// Fill `slot` with its answer, count it as held until it reaches the
  /// output buffer, and flush. Caller holds conn.mu.
  void answer_locked(Conn& conn, ResponseSlot& slot, std::string text);
  /// Append the ready prefix of the slot queue to the output buffer and send
  /// as much as the socket accepts. Caller holds conn.mu.
  void flush_locked(Conn& conn);
  void wake_loop(std::size_t index);
  /// A fresh "s-<n>" for a request that named no request_id; n counts from
  /// 1 over every op the server answers itself or hands to a handler.
  std::string assign_request_id();
  double uptime_seconds() const;

  InferenceEngine& engine_;
  ModelRegistry& registry_;
  ServerOptions options_;
  // Instruments resolved once: no by-name lookups after construction.
  telemetry::Counter& connections_;         // serve.connections
  telemetry::Gauge& open_connections_;      // serve.open_connections
  telemetry::Counter& wire_errors_;         // serve.wire_errors
  telemetry::Counter& requests_;            // serve.requests
  telemetry::Counter& rejected_;            // serve.rejected
  telemetry::Counter& deadline_exceeded_;   // serve.deadline_exceeded
  telemetry::Counter& errors_;              // serve.errors
  telemetry::Counter& batches_;             // serve.batches
  telemetry::Counter& slow_requests_;       // serve.slow_requests
  telemetry::Counter& feature_cache_hits_;  // serve.feature_cache.hits
  telemetry::Counter& feature_cache_misses_;  // serve.feature_cache.misses
  telemetry::Histogram& request_seconds_;   // serve.request_seconds
  std::map<std::string, OpHandler> op_handlers_;  // set before start()

  int listen_fd_ = -1;
  int port_ = 0;
  std::chrono::steady_clock::time_point started_at_{};
  std::atomic<std::uint64_t> next_request_id_{0};
  std::atomic<std::size_t> next_loop_{0};  // round-robin connection placement
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};

  std::mutex mu_;
  std::condition_variable stop_cv_;
  std::vector<std::unique_ptr<IoLoop>> loops_;
};

}  // namespace ic::serve
