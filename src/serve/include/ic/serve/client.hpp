// Blocking JSON-lines client for the serving front-end (DESIGN.md §9).
//
// One TCP connection per Client. call() is the simple request/response path;
// send()/receive() split the two halves so callers can pipeline many
// requests on one connection (the server answers strictly in request order
// per connection, so the k-th receive() matches the k-th send()).
//
// Timeouts: an unreachable or hung server raises ConnectionError instead of
// blocking forever — connect is bounded by connect_timeout_ms, and each
// send/recv by io_timeout_ms when set. ConnectionError derives from
// std::runtime_error, so callers that only know the old contract still catch
// it; callers that care (icnet_cli exits 2) can catch it specifically.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "ic/serve/wire.hpp"

namespace ic::serve {

/// The server could not be reached or stopped responding: connect failure or
/// timeout, IO timeout, or the peer closing mid-response.
class ConnectionError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct ClientOptions {
  /// Bound on establishing the TCP connection; <= 0 blocks indefinitely.
  int connect_timeout_ms = 5000;
  /// Bound on each send()/recv() syscall; <= 0 blocks indefinitely (the
  /// pre-timeout behaviour — callers awaiting slow predictions keep it).
  int io_timeout_ms = 0;
};

class Client {
 public:
  /// Connect to host:port. Throws ConnectionError on connect failure or
  /// timeout, ic::input_error on invalid arguments (bad host address).
  Client(const std::string& host, int port, ClientOptions options = {});
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  Client(Client&& other) noexcept;

  /// send() + receive().
  WireResponse call(const WireRequest& request);

  void send(const WireRequest& request);
  WireResponse receive();

  WireResponse ping();
  /// Live metrics snapshot. `format` is "" / "json" for the JSON fields, or
  /// "prometheus" to receive the full registry as exposition text in the
  /// response's "prometheus" field.
  WireResponse stats(const std::string& format = "");
  /// Readiness probe ({"op":"health"}): ready, models, queue depth/max_queue,
  /// uptime, build version.
  WireResponse health();
  /// Ask the server to drain and stop; returns its acknowledgement.
  WireResponse shutdown_server();

  void close();

 private:
  std::string read_line();

  int fd_ = -1;
  int io_timeout_ms_ = 0;
  std::string buffer_;
};

}  // namespace ic::serve
