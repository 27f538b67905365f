#include "ic/serve/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <deque>

#include "ic/serve/wire.hpp"
#include "ic/support/assert.hpp"
#include "ic/support/log.hpp"
#include "ic/support/metrics.hpp"
#include "ic/support/profiler.hpp"
#include "ic/support/progress.hpp"
#include "ic/support/timeline.hpp"

// Build stamp reported by {"op":"health"}; CMake passes the project version.
#ifndef ICNET_VERSION
#define ICNET_VERSION "unknown"
#endif

namespace ic::serve {

namespace {

void close_fd(int* fd) {
  if (*fd >= 0) {
    ::close(*fd);
    *fd = -1;
  }
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  IC_CHECK(flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0,
           "fcntl(O_NONBLOCK) failed: " << std::strerror(errno));
}

/// Readiness-loop threads multiplexing the client sockets; the loops only
/// shuffle bytes, inference runs on the engine's workers. A one-loop variant
/// (47 fewer lines) was measured against two with perfbench, 10 alternating
/// 40 s pairs per workload on a 4-vCPU VM: every gated CPU median stayed
/// within -2.2%..+4.0% and none of 2.66M operations failed, but closed-loop
/// predicts/s fell from 5383 to 4960 on predict-paper (one loop ahead in 2
/// of 10 pairs) and from 13.3k to 11.5k on search-paper (3 of 10). Two loops
/// stay for that throughput.
constexpr std::size_t kIoThreads = 2;

/// listen(2) backlog.
constexpr int kBacklog = 64;

/// Longest request line a connection may send, newline excluded. A predict
/// naming every gate of a 100k-gate circuit is about 0.7 MB; past this the
/// peer is not sending requests, and buffering on would let it make the
/// server hold as much memory as it sends.
constexpr std::size_t kMaxLineBytes = std::size_t{1} << 20;

/// Most answer bytes a connection may owe before the server stops reading
/// from it: unsent output plus ready answers held behind an unanswered one.
/// A peer that pipelines requests and never reads — or that parks a slow
/// search ahead of them — would otherwise make the server hold every answer
/// it owes; past this its requests wait in the socket, and reading resumes
/// once the peer drains its answers.
constexpr std::size_t kMaxUnsentBytes = std::size_t{1} << 20;

}  // namespace

// One response in a connection's pipeline. Created in request order; `text`
// is filled when the answer exists (instantly for admin ops, from the engine
// completion callback for predicts). The flush only ever drains the ready
// prefix, so responses leave in request order even when engine workers
// finish out of order.
struct Server::ResponseSlot {
  bool ready = false;
  std::string text;  ///< one JSON object, no trailing newline
};

// Per-connection state. `fd` is opened by the accept path and closed only by
// the owning I/O loop; `inbuf` is touched only by that loop. Everything
// below `mu` is shared with engine completion threads (which append ready
// slots and flush), so it is mutex-guarded — including fd for the duration
// of a send. The GaugeGuard keeps serve.open_connections exact whatever path
// destroys the connection.
struct Server::Conn {
  explicit Conn(telemetry::Gauge& open_gauge) : open_guard(open_gauge) {}

  telemetry::GaugeGuard open_guard;
  int fd = -1;
  std::size_t loop = 0;  ///< owning I/O loop index
  std::string inbuf;     ///< owner loop only

  std::mutex mu;
  std::deque<std::shared_ptr<ResponseSlot>> slots;  ///< pipeline, in order
  std::string outbuf;    ///< bytes the socket did not accept yet
  std::size_t held = 0;  ///< bytes of ready slots not yet in outbuf
  bool want_pollout = false;
  bool eof = false;      ///< read side done; close once flushed
  bool closing = false;  ///< stop reading; close once flushed
};

// One readiness loop. `incoming` is the handoff queue the accept path fills
// (any thread, under mu); `conns` is owned by the loop thread alone. The
// self-pipe wakes poll() for new connections, POLLOUT registration, newly
// closable connections, and shutdown.
struct Server::IoLoop {
  std::thread thread;
  int wake[2] = {-1, -1};
  std::mutex mu;
  std::vector<std::shared_ptr<Conn>> incoming;
  std::vector<std::shared_ptr<Conn>> conns;
};

Server::Server(InferenceEngine& engine, ModelRegistry& registry,
               ServerOptions options)
    : engine_(engine),
      registry_(registry),
      options_(std::move(options)),
      connections_(
          telemetry::MetricsRegistry::global().counter("serve.connections")),
      open_connections_(
          telemetry::MetricsRegistry::global().gauge("serve.open_connections")),
      wire_errors_(
          telemetry::MetricsRegistry::global().counter("serve.wire_errors")),
      requests_(telemetry::MetricsRegistry::global().counter("serve.requests")),
      rejected_(telemetry::MetricsRegistry::global().counter("serve.rejected")),
      deadline_exceeded_(telemetry::MetricsRegistry::global().counter(
          "serve.deadline_exceeded")),
      errors_(telemetry::MetricsRegistry::global().counter("serve.errors")),
      batches_(telemetry::MetricsRegistry::global().counter("serve.batches")),
      slow_requests_(
          telemetry::MetricsRegistry::global().counter("serve.slow_requests")),
      feature_cache_hits_(telemetry::MetricsRegistry::global().counter(
          "serve.feature_cache.hits")),
      feature_cache_misses_(telemetry::MetricsRegistry::global().counter(
          "serve.feature_cache.misses")),
      request_seconds_(telemetry::MetricsRegistry::global().histogram(
          "serve.request_seconds")) {}

Server::~Server() { shutdown(); }

std::string Server::wire_error(const std::string& message) {
  wire_errors_.add(1);
  JsonValue resp = JsonValue::object();
  resp.set("ok", JsonValue::boolean(false));
  resp.set("status", JsonValue::string("error"));
  resp.set("error", JsonValue::string(message));
  return resp.dump();
}

void Server::register_op(const std::string& op, OpHandler handler) {
  IC_CHECK(!running_.load(), "register_op must be called before start()");
  IC_CHECK(op != "predict" && op != "ping" && op != "stats" &&
               op != "health" && op != "shutdown" && op != "profile" &&
               op != "traces",
           "cannot override built-in op '" << op << "'");
  IC_CHECK(static_cast<bool>(handler), "register_op needs a handler");
  op_handlers_[op] = std::move(handler);
}

void Server::start() {
  IC_CHECK(!running_.load(), "server already started");

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  IC_CHECK(listen_fd_ >= 0, "socket() failed: " << std::strerror(errno));
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(options_.port));
  IC_CHECK(::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) == 1,
           "invalid host address '" << options_.host << "'");
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const std::string why = std::strerror(errno);
    close_fd(&listen_fd_);
    ic::input_error("cannot bind " + options_.host + ":" +
                    std::to_string(options_.port) + ": " + why);
  }
  IC_CHECK(::listen(listen_fd_, kBacklog) == 0,
           "listen() failed: " << std::strerror(errno));
  set_nonblocking(listen_fd_);

  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  IC_CHECK(
      ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) == 0,
      "getsockname() failed: " << std::strerror(errno));
  port_ = ntohs(bound.sin_port);

  loops_.clear();
  for (std::size_t i = 0; i < kIoThreads; ++i) {
    auto loop = std::make_unique<IoLoop>();
    IC_CHECK(::pipe(loop->wake) == 0,
             "pipe() failed: " << std::strerror(errno));
    set_nonblocking(loop->wake[0]);
    set_nonblocking(loop->wake[1]);
    loops_.push_back(std::move(loop));
  }

  stop_requested_.store(false);
  running_.store(true);
  started_at_ = std::chrono::steady_clock::now();
  // Threads start after every loop slot exists — request_shutdown() and
  // wake_loop() index loops_.
  for (std::size_t i = 0; i < loops_.size(); ++i) {
    loops_[i]->thread = std::thread([this, i] { io_loop(i); });
  }
  ICLOG(info) << "serve: listening on " << options_.host << ":" << port_;
}

void Server::request_shutdown() {
  // Async-signal-safe on purpose: atomic CAS + write(2) only, so the CLI's
  // SIGINT handler can call it. wait() polls, so no cv notify is needed here.
  bool expected = false;
  if (!stop_requested_.compare_exchange_strong(expected, true)) return;
  for (const auto& loop : loops_) {
    if (loop->wake[1] >= 0) {
      const char byte = 'x';
      (void)!::write(loop->wake[1], &byte, 1);
    }
  }
}

void Server::wake_loop(std::size_t index) {
  const char byte = 'x';
  (void)!::write(loops_[index]->wake[1], &byte, 1);
}

void Server::wait() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_requested_.load()) {
    stop_cv_.wait_for(lock, std::chrono::milliseconds(100));
  }
}

void Server::shutdown() {
  if (!running_.load()) return;
  request_shutdown();
  stop_cv_.notify_all();
  // Each loop drains its connections (pending predict responses still flush)
  // and exits once they are all closed.
  for (auto& loop : loops_) {
    if (loop->thread.joinable()) loop->thread.join();
  }
  close_fd(&listen_fd_);
  for (auto& loop : loops_) {
    close_fd(&loop->wake[0]);
    close_fd(&loop->wake[1]);
  }
  engine_.drain();
  running_.store(false);
  ICLOG(info) << "serve: shutdown complete";
}

void Server::io_loop(std::size_t index) {
  IoLoop& loop = *loops_[index];
  bool draining = false;
  std::vector<pollfd> fds;
  std::vector<std::shared_ptr<Conn>> polled;  // fds[i + fixed] ↔ polled[i]
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(loop.mu);
      for (auto& conn : loop.incoming) loop.conns.push_back(std::move(conn));
      loop.incoming.clear();
    }
    if (stop_requested_ && !draining) {
      draining = true;
      // Switch every connection to drain mode: no more reads; pending
      // responses still flush, then the reap below closes the socket.
      for (const auto& conn : loop.conns) {
        std::lock_guard<std::mutex> lock(conn->mu);
        conn->eof = true;
        if (conn->fd >= 0) ::shutdown(conn->fd, SHUT_RD);
        flush_locked(*conn);
      }
    }
    // Reap: a connection whose read side is done and whose pipeline is fully
    // flushed has nothing left to do.
    for (auto it = loop.conns.begin(); it != loop.conns.end();) {
      bool dead = false;
      {
        std::lock_guard<std::mutex> lock((*it)->mu);
        Conn& conn = **it;
        if (conn.fd >= 0 && (conn.eof || conn.closing) && conn.slots.empty() &&
            conn.outbuf.empty()) {
          close_fd(&conn.fd);
        }
        dead = conn.fd < 0;
      }
      it = dead ? loop.conns.erase(it) : ++it;
    }
    if (stop_requested_ && loop.conns.empty()) {
      std::lock_guard<std::mutex> lock(loop.mu);
      if (loop.incoming.empty()) break;
      continue;  // a connection was handed over mid-shutdown; drain it too
    }

    fds.clear();
    polled.clear();
    fds.push_back({loop.wake[0], POLLIN, 0});
    const bool poll_listener = index == 0 && !stop_requested_;
    if (poll_listener) fds.push_back({listen_fd_, POLLIN, 0});
    for (const auto& conn : loop.conns) {
      std::lock_guard<std::mutex> lock(conn->mu);
      short events = 0;
      if (!conn->eof && !conn->closing &&
          conn->outbuf.size() + conn->held <= kMaxUnsentBytes) {
        events |= POLLIN;
      }
      if (conn->want_pollout) events |= POLLOUT;
      if (conn->fd >= 0 && events != 0) {
        fds.push_back({conn->fd, events, 0});
        polled.push_back(conn);
      }
    }
    // Loop 0's timeout is the hot-reload tick. While stopping, every loop
    // polls with a short timeout as a safety net on top of the self-pipe
    // wakeups from completion callbacks.
    int timeout_ms = -1;
    if (stop_requested_) {
      timeout_ms = 100;
    } else if (index == 0 && options_.reload_poll_ms > 0) {
      timeout_ms = static_cast<int>(options_.reload_poll_ms);
    }
    const int rc = ::poll(fds.data(), fds.size(), timeout_ms);
    if (rc < 0) {
      if (errno == EINTR) continue;
      ICLOG(error) << "serve: poll() failed: " << std::strerror(errno);
      break;
    }
    if (rc == 0) {
      if (index == 0 && !stop_requested_) registry_.poll_reload();
      continue;
    }
    if (fds[0].revents != 0) {
      char buf[64];
      while (::read(loop.wake[0], buf, sizeof(buf)) > 0) {
      }
    }
    if (poll_listener && (fds[1].revents & POLLIN) != 0) accept_ready(loop);
    const std::size_t fixed = poll_listener ? 2 : 1;
    for (std::size_t i = 0; i < polled.size(); ++i) {
      const short revents = fds[i + fixed].revents;
      if (revents == 0) continue;
      if ((revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        read_conn(polled[i]);
      }
      if ((revents & POLLOUT) != 0) {
        std::lock_guard<std::mutex> lock(polled[i]->mu);
        polled[i]->want_pollout = false;
        flush_locked(*polled[i]);
      }
    }
  }
  // Poll-error / shutdown exit: drop whatever is left.
  for (const auto& conn : loop.conns) {
    std::lock_guard<std::mutex> lock(conn->mu);
    close_fd(&conn->fd);
  }
  loop.conns.clear();
}

void Server::accept_ready(IoLoop& loop) {
  for (;;) {
    const int client_fd = ::accept(listen_fd_, nullptr, nullptr);
    if (client_fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      ICLOG(error) << "serve: accept() failed: " << std::strerror(errno);
      return;
    }
    set_nonblocking(client_fd);
    connections_.add(1);
    auto conn = std::make_shared<Conn>(open_connections_);
    conn->fd = client_fd;
    const std::size_t target_index =
        next_loop_.fetch_add(1, std::memory_order_relaxed) % loops_.size();
    conn->loop = target_index;
    IoLoop& target = *loops_[target_index];
    if (&target == &loop) {
      // Loop 0 keeps its own share without a self-handoff round trip.
      loop.conns.push_back(std::move(conn));
    } else {
      {
        std::lock_guard<std::mutex> lock(target.mu);
        target.incoming.push_back(std::move(conn));
      }
      wake_loop(target_index);
    }
  }
}

void Server::read_conn(const std::shared_ptr<Conn>& conn) {
  // fd is only closed by this (owning) loop thread, so the read side needs
  // no lock; sends and slot bookkeeping do.
  char chunk[4096];
  bool saw_eof = false;
  for (;;) {
    const ssize_t n = ::recv(conn->fd, chunk, sizeof(chunk), 0);
    if (n > 0) {
      conn->inbuf.append(chunk, static_cast<std::size_t>(n));
      // Split lines before reading past the cap; poll() is level-triggered,
      // so what stays in the socket is read on the next pass.
      if (conn->inbuf.size() > kMaxLineBytes) break;
      continue;
    }
    if (n == 0) {
      saw_eof = true;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    saw_eof = true;  // hard error: flush what we owe, then close
    break;
  }
  std::size_t start = 0;
  for (;;) {
    const std::size_t nl = conn->inbuf.find('\n', start);
    if (nl == std::string::npos) break;
    const std::string line = conn->inbuf.substr(start, nl - start);
    start = nl + 1;
    if (line.empty() || line.find_first_not_of(" \t\r") == std::string::npos) {
      continue;
    }
    process_line(conn, line);
    bool stop_reading = false;
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      stop_reading = conn->closing;
    }
    if (stop_reading) {  // {"op":"shutdown"}: discard the rest
      start = conn->inbuf.size();
      break;
    }
  }
  conn->inbuf.erase(0, start);
  if (conn->inbuf.size() > kMaxLineBytes) {
    std::string().swap(conn->inbuf);
    reply_now(*conn,
              wire_error("request line exceeds " +
                         std::to_string(kMaxLineBytes) + " bytes"),
              /*close_after=*/true);
    return;
  }
  if (saw_eof) {
    std::lock_guard<std::mutex> lock(conn->mu);
    conn->eof = true;
    flush_locked(*conn);
  }
}

void Server::process_line(const std::shared_ptr<Conn>& conn,
                          const std::string& line) {
  // Stage 0 of the request timeline: the request line is fully off the
  // socket. Parse is marked once the wire JSON decoded; the engine and the
  // forward pass fill in the rest.
  telemetry::Timeline timeline;
  timeline.mark(telemetry::Stage::Accept);
  WireRequest req;
  try {
    req = parse_request(line);
    timeline.mark(telemetry::Stage::Parse);
  } catch (const std::exception& e) {
    reply_now(*conn, wire_error(e.what()));
    return;
  }
  if (req.op == "predict") {
    // Reserve the connection's next pipeline position, then hand the request
    // to the engine without blocking this I/O thread. The completion callback
    // fills the slot (possibly out of order across workers) and the
    // ready-prefix flush restores wire order. submit_async is called OUTSIDE
    // conn->mu: a rejected request invokes the callback inline on this
    // thread, and the callback takes the lock.
    auto slot = std::make_shared<ResponseSlot>();
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      conn->slots.push_back(slot);
    }
    PredictRequest predict;
    predict.model = req.model;
    predict.circuit = req.circuit;
    predict.selection = req.select;
    predict.timeout_ms = req.timeout_ms;
    predict.request_id = req.request_id;  // may be empty: engine assigns r-<n>
    predict.timeline = timeline;
    const bool has_id = req.has_id;
    const std::uint64_t id = req.id;
    std::shared_ptr<Conn> c = conn;
    engine_.submit_async(
        std::move(predict),
        [this, c, slot, has_id, id](PredictResult result) {
          JsonValue resp = JsonValue::object();
          if (has_id) {
            resp.set("id", JsonValue::number(static_cast<double>(id)));
          }
          resp.set("op", JsonValue::string("predict"));
          resp.set("ok", JsonValue::boolean(result.ok()));
          resp.set("status", JsonValue::string(status_name(result.status)));
          if (result.ok()) {
            resp.set("log_runtime", JsonValue::number(result.log_runtime));
            resp.set("seconds", JsonValue::number(result.seconds));
            resp.set("model_version", JsonValue::number(static_cast<double>(
                                          result.model_version)));
          } else {
            resp.set("error", JsonValue::string(result.error));
          }
          resp.set("request_id", JsonValue::string(result.request_id));
          std::lock_guard<std::mutex> lock(c->mu);
          answer_locked(*c, *slot, resp.dump());
        });
    return;
  }
  const auto handler = op_handlers_.find(req.op);
  if (handler != op_handlers_.end()) {
    // Same pipelining contract as predict: reserve the connection's next
    // response slot now, let the handler answer whenever it finishes.
    auto slot = std::make_shared<ResponseSlot>();
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      conn->slots.push_back(slot);
    }
    WireRequest request = req;
    if (request.request_id.empty()) request.request_id = assign_request_id();
    std::shared_ptr<Conn> c = conn;
    handler->second(request, [this, c, slot](std::string text) {
      std::lock_guard<std::mutex> lock(c->mu);
      answer_locked(*c, *slot, std::move(text));
    });
    return;
  }
  if (req.op == "search") {
    // The op parses but no SearchService was installed on this server.
    JsonValue resp = JsonValue::object();
    if (req.has_id) {
      resp.set("id", JsonValue::number(static_cast<double>(req.id)));
    }
    resp.set("op", JsonValue::string(req.op));
    resp.set("ok", JsonValue::boolean(false));
    resp.set("status", JsonValue::string("error"));
    resp.set("error",
             JsonValue::string("search is not enabled on this server"));
    reply_now(*conn, resp.dump());
    return;
  }
  bool close_connection = false;
  std::string text = handle_admin(req, &close_connection);
  reply_now(*conn, std::move(text), close_connection);
}

void Server::reply_now(Conn& conn, std::string text, bool close_after) {
  auto slot = std::make_shared<ResponseSlot>();
  std::lock_guard<std::mutex> lock(conn.mu);
  conn.slots.push_back(slot);
  if (close_after) conn.closing = true;
  answer_locked(conn, *slot, std::move(text));
}

void Server::answer_locked(Conn& conn, ResponseSlot& slot, std::string text) {
  conn.held += text.size() + 1;
  slot.text = std::move(text);
  slot.ready = true;
  flush_locked(conn);
}

void Server::flush_locked(Conn& conn) {
  while (!conn.slots.empty() && conn.slots.front()->ready) {
    conn.held -= conn.slots.front()->text.size() + 1;
    conn.outbuf += conn.slots.front()->text;
    conn.outbuf += '\n';
    conn.slots.pop_front();
  }
  if (conn.fd < 0) {
    conn.outbuf.clear();
    return;
  }
  std::size_t sent = 0;
  while (sent < conn.outbuf.size()) {
    const ssize_t n = ::send(conn.fd, conn.outbuf.data() + sent,
                             conn.outbuf.size() - sent, MSG_NOSIGNAL);
    if (n >= 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    // Peer is gone; nothing further can be delivered. Pending engine work
    // still completes (its callbacks find the slot detached and the fd
    // closed) — we just stop owing this socket anything.
    conn.closing = true;
    conn.outbuf.clear();
    conn.slots.clear();
    conn.held = 0;
    wake_loop(conn.loop);
    return;
  }
  conn.outbuf.erase(0, sent);
  if (!conn.outbuf.empty()) {
    // Short write: park the rest and have the owning loop watch POLLOUT.
    if (!conn.want_pollout) {
      conn.want_pollout = true;
      wake_loop(conn.loop);
    }
  } else if ((conn.eof || conn.closing) && conn.slots.empty()) {
    wake_loop(conn.loop);  // fully drained: the owning loop can close it
  }
}

std::string Server::assign_request_id() {
  return "s-" + std::to_string(
                    next_request_id_.fetch_add(1, std::memory_order_relaxed) +
                    1);
}

double Server::uptime_seconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       started_at_)
      .count();
}

std::string Server::handle_admin(const WireRequest& req,
                                 bool* close_connection) {
  JsonValue resp = JsonValue::object();
  try {
    if (req.has_id) {
      resp.set("id", JsonValue::number(static_cast<double>(req.id)));
    }
    resp.set("op", JsonValue::string(req.op));
    // Every response carries a request_id: the client's, or a
    // server-assigned "s-<n>" (predicts defer to the engine's "r-<n>").
    const std::string request_id =
        req.request_id.empty() ? assign_request_id() : req.request_id;
    if (req.op == "ping") {
      resp.set("ok", JsonValue::boolean(true));
    } else if (req.op == "health") {
      const telemetry::ProcessStats proc = telemetry::sample_process_stats();
      const std::size_t depth = engine_.queue_depth();
      const bool ready = registry_.size() > 0 && depth < engine_.max_queue();
      resp.set("ok", JsonValue::boolean(true));
      resp.set("ready", JsonValue::boolean(ready));
      resp.set("status", JsonValue::string(ready ? "ready" : "unavailable"));
      JsonValue models = JsonValue::array();
      for (const auto& name : registry_.names()) {
        models.push_back(JsonValue::string(name));
      }
      resp.set("models", std::move(models));
      resp.set("queue_depth", JsonValue::number(static_cast<double>(depth)));
      resp.set("max_queue",
               JsonValue::number(static_cast<double>(engine_.max_queue())));
      resp.set("uptime_seconds", JsonValue::number(uptime_seconds()));
      resp.set("version", JsonValue::string(ICNET_VERSION));
      resp.set("open_connections",
               JsonValue::number(open_connections_.value()));
      if (proc.ok) resp.set("rss_bytes", JsonValue::number(proc.rss_bytes));
    } else if (req.op == "stats") {
      // Refresh the process.* gauges so both formats report current values.
      const telemetry::ProcessStats proc = telemetry::sample_process_stats();
      resp.set("ok", JsonValue::boolean(true));
      if (req.format == "prometheus") {
        // The JSON-lines framing cannot carry raw multi-line exposition
        // text, so the full registry rides in one string field; clients
        // (icnet_cli stats --format prometheus) print it verbatim.
        resp.set("prometheus", JsonValue::string(
                                   telemetry::MetricsRegistry::global()
                                       .to_prometheus()));
      } else {
        const auto count = [](const telemetry::Counter& counter) {
          return JsonValue::number(static_cast<double>(counter.value()));
        };
        resp.set("queue_depth",
                 JsonValue::number(static_cast<double>(engine_.queue_depth())));
        JsonValue models = JsonValue::array();
        for (const auto& name : registry_.names()) {
          models.push_back(JsonValue::string(name));
        }
        resp.set("models", std::move(models));
        resp.set("uptime_seconds", JsonValue::number(uptime_seconds()));
        resp.set("requests", count(requests_));
        resp.set("rejected", count(rejected_));
        resp.set("deadline_exceeded", count(deadline_exceeded_));
        resp.set("errors", count(errors_));
        resp.set("batches", count(batches_));
        resp.set("slow_requests", count(slow_requests_));
        resp.set("wire_errors", count(wire_errors_));
        resp.set("feature_cache_hits", count(feature_cache_hits_));
        resp.set("feature_cache_misses", count(feature_cache_misses_));
        if (proc.ok) {
          resp.set("process_rss_bytes", JsonValue::number(proc.rss_bytes));
          resp.set("process_cpu_seconds",
                   JsonValue::number(proc.cpu_user_seconds +
                                     proc.cpu_system_seconds));
          resp.set("process_threads", JsonValue::number(proc.threads));
          resp.set("process_open_fds", JsonValue::number(proc.open_fds));
        }
        // Quantiles of an empty histogram are undefined, not 0.0: omit them
        // until the first request so dashboards don't plot a fake zero.
        if (request_seconds_.count() > 0) {
          resp.set("p50_latency_seconds",
                   JsonValue::number(request_seconds_.quantile(0.5)));
          resp.set("p99_latency_seconds",
                   JsonValue::number(request_seconds_.quantile(0.99)));
        }
      }
    } else if (req.op == "profile") {
      auto& profiler = telemetry::Profiler::global();
      if (req.action == "start") {
        telemetry::ProfilerOptions options;
        if (req.hz > 0) options.hz = static_cast<int>(req.hz);
        if (req.seconds > 0) options.seconds = req.seconds;
        const bool started = profiler.start(options);
        resp.set("ok", JsonValue::boolean(true));
        resp.set("started", JsonValue::boolean(started));
        if (!started) {
          resp.set("error",
                   JsonValue::string("profiler already running"));
        }
      } else if (req.action == "stop") {
        const bool stopped = profiler.stop();
        resp.set("ok", JsonValue::boolean(true));
        resp.set("stopped", JsonValue::boolean(stopped));
      } else {  // dump: stop a live session, return the folded capture
        profiler.stop();
        resp.set("ok", JsonValue::boolean(true));
        resp.set("folded", JsonValue::string(profiler.folded()));
      }
      resp.set("samples", JsonValue::number(
                              static_cast<double>(profiler.sample_count())));
      resp.set("dropped",
               JsonValue::number(static_cast<double>(profiler.dropped())));
      resp.set("running", JsonValue::boolean(profiler.running()));
    } else if (req.op == "traces") {
      const telemetry::TraceStore& store = engine_.traces();
      resp.set("ok", JsonValue::boolean(true));
      resp.set("recorded",
               JsonValue::number(static_cast<double>(store.recorded())));
      JsonValue traces = JsonValue::array();
      for (const telemetry::TraceRecord& record : store.snapshot()) {
        JsonValue entry = JsonValue::object();
        entry.set("request_id", JsonValue::string(record.request_id));
        // Fingerprints are full 64-bit values; hex keeps them exact where a
        // JSON double would round.
        char fp[19];
        std::snprintf(fp, sizeof(fp), "0x%016llx",
                      static_cast<unsigned long long>(record.fingerprint));
        entry.set("fingerprint", JsonValue::string(fp));
        entry.set("batch_size",
                  JsonValue::number(static_cast<double>(record.batch_size)));
        entry.set("total_seconds", JsonValue::number(record.total_seconds));
        JsonValue stages = JsonValue::array();
        for (std::size_t s = 0; s < telemetry::kStageCount; ++s) {
          if (record.timeline.ts_us[s] == 0) continue;  // stage never ran
          JsonValue stage = JsonValue::object();
          stage.set("stage", JsonValue::string(telemetry::stage_name(
                                 static_cast<telemetry::Stage>(s))));
          stage.set("ts_us", JsonValue::number(static_cast<double>(
                                 record.timeline.ts_us[s])));
          stage.set("dur_us", JsonValue::number(static_cast<double>(
                                  record.timeline.dur_us[s])));
          stages.push_back(std::move(stage));
        }
        entry.set("stages", std::move(stages));
        traces.push_back(std::move(entry));
      }
      resp.set("traces", std::move(traces));
    } else if (req.op == "shutdown") {
      resp.set("ok", JsonValue::boolean(true));
      *close_connection = true;
      request_shutdown();
      stop_cv_.notify_all();
    } else {
      // parse_request only admits known ops; predict never reaches here.
      IC_ASSERT_MSG(false, "unhandled admin op");
    }
    resp.set("request_id", JsonValue::string(request_id));
  } catch (const std::exception& e) {
    return wire_error(e.what());
  }
  return resp.dump();
}

}  // namespace ic::serve
