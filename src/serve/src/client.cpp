#include "ic/serve/client.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "ic/support/assert.hpp"

namespace ic::serve {

namespace {

void set_nonblocking(int fd, bool on) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return;
  ::fcntl(fd, F_SETFL, on ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK));
}

void set_io_timeout(int fd, int timeout_ms) {
  if (timeout_ms <= 0) return;
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

}  // namespace

Client::Client(const std::string& host, int port, ClientOptions options)
    : io_timeout_ms_(options.io_timeout_ms) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  IC_CHECK(fd_ >= 0, "socket() failed: " << std::strerror(errno));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd_);
    fd_ = -1;
    ic::input_error("invalid host address '" + host + "'");
  }

  const std::string target = host + ":" + std::to_string(port);
  // Bounded connect: start it non-blocking, wait for writability with
  // poll(2), then read the final verdict out of SO_ERROR. A plain blocking
  // connect to an unroutable address can hang for minutes.
  if (options.connect_timeout_ms > 0) set_nonblocking(fd_, true);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    if (options.connect_timeout_ms > 0 && errno == EINPROGRESS) {
      pollfd pfd{};
      pfd.fd = fd_;
      pfd.events = POLLOUT;
      int rc;
      do {
        rc = ::poll(&pfd, 1, options.connect_timeout_ms);
      } while (rc < 0 && errno == EINTR);
      int soerr = 0;
      socklen_t len = sizeof(soerr);
      if (rc > 0) ::getsockopt(fd_, SOL_SOCKET, SO_ERROR, &soerr, &len);
      if (rc <= 0 || soerr != 0) {
        const std::string why =
            rc == 0 ? "timed out after " +
                          std::to_string(options.connect_timeout_ms) + "ms"
                    : std::strerror(rc < 0 ? errno : soerr);
        ::close(fd_);
        fd_ = -1;
        throw ConnectionError("cannot connect to " + target + ": " + why);
      }
    } else {
      const std::string why = std::strerror(errno);
      ::close(fd_);
      fd_ = -1;
      throw ConnectionError("cannot connect to " + target + ": " + why);
    }
  }
  if (options.connect_timeout_ms > 0) set_nonblocking(fd_, false);
  set_io_timeout(fd_, io_timeout_ms_);
}

Client::~Client() { close(); }

Client::Client(Client&& other) noexcept
    : fd_(other.fd_),
      io_timeout_ms_(other.io_timeout_ms_),
      buffer_(std::move(other.buffer_)) {
  other.fd_ = -1;
}

void Client::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Client::send(const WireRequest& request) {
  IC_CHECK(fd_ >= 0, "client connection is closed");
  const std::string line = encode_request(request) + "\n";
  std::size_t sent = 0;
  while (sent < line.size()) {
    const ssize_t n =
        ::send(fd_, line.data() + sent, line.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        throw ConnectionError("send timed out after " +
                              std::to_string(io_timeout_ms_) + "ms");
      }
      throw ConnectionError(std::string("send failed: ") +
                            std::strerror(errno));
    }
    sent += static_cast<std::size_t>(n);
  }
}

std::string Client::read_line() {
  for (;;) {
    const std::size_t nl = buffer_.find('\n');
    if (nl != std::string::npos) {
      std::string line = buffer_.substr(0, nl);
      buffer_.erase(0, nl + 1);
      return line;
    }
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      throw ConnectionError("no response within " +
                            std::to_string(io_timeout_ms_) + "ms");
    }
    if (n < 0) {
      throw ConnectionError(std::string("recv failed: ") +
                            std::strerror(errno));
    }
    if (n == 0) {
      throw ConnectionError("connection closed while waiting for a response");
    }
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

WireResponse Client::receive() {
  IC_CHECK(fd_ >= 0, "client connection is closed");
  return parse_response(read_line());
}

WireResponse Client::call(const WireRequest& request) {
  send(request);
  return receive();
}

WireResponse Client::ping() {
  WireRequest request;
  request.op = "ping";
  return call(request);
}

WireResponse Client::stats(const std::string& format) {
  WireRequest request;
  request.op = "stats";
  request.format = format;
  return call(request);
}

WireResponse Client::health() {
  WireRequest request;
  request.op = "health";
  return call(request);
}

WireResponse Client::shutdown_server() {
  WireRequest request;
  request.op = "shutdown";
  return call(request);
}

}  // namespace ic::serve
