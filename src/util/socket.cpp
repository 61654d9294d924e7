#include "util/socket.h"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <stdexcept>
#include <sys/socket.h>
#include <unistd.h>
#include <utility>

namespace midas::util {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

int poll_timeout_ms(double timeout_s) {
  if (timeout_s < 0.0) return -1;
  const double ms = timeout_s * 1000.0;
  return ms > 2.0e9 ? 2000000000 : static_cast<int>(ms);
}

/// Numeric IPv4 only: a typo'd address must fail fast with its text,
/// not hang in a resolver.
sockaddr_in ipv4_addr(const std::string& host, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    throw std::runtime_error("'" + host +
                             "' is not an IPv4 dotted-quad address");
  }
  return addr;
}

}  // namespace

TcpStream::~TcpStream() { close(); }

TcpStream::TcpStream(TcpStream&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)) {}

TcpStream& TcpStream::operator=(TcpStream&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
  }
  return *this;
}

TcpStream TcpStream::connect_to(const std::string& host, std::uint16_t port,
                                double timeout_s) {
  const sockaddr_in addr = ipv4_addr(host, port);
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) fail("socket");
  TcpStream stream(fd);

  // Non-blocking connect so the timeout is honoured even if the peer
  // is unresponsive.
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  int rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                     sizeof addr);
  if (rc != 0 && errno != EINPROGRESS) fail("connect");
  if (rc != 0) {
    pollfd p{fd, POLLOUT, 0};
    rc = ::poll(&p, 1, poll_timeout_ms(timeout_s));
    if (rc < 0) fail("poll");
    if (rc == 0) {
      throw std::runtime_error("connect: timed out after " +
                               std::to_string(timeout_s) + " s");
    }
    int err = 0;
    socklen_t len = sizeof err;
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0) {
      fail("getsockopt");
    }
    if (err != 0) {
      errno = err;
      fail("connect");
    }
  }
  ::fcntl(fd, F_SETFL, flags);
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return stream;
}

long TcpStream::read_some(char* out, std::size_t capacity,
                          double timeout_s) {
  if (fd_ < 0) throw std::runtime_error("read_some: stream is closed");
  pollfd p{fd_, POLLIN, 0};
  const int rc = ::poll(&p, 1, poll_timeout_ms(timeout_s));
  if (rc < 0) {
    if (errno == EINTR) return -1;
    fail("poll");
  }
  if (rc == 0) return -1;
  const ssize_t n = ::recv(fd_, out, capacity, 0);
  if (n < 0) {
    if (errno == EINTR || errno == EAGAIN) return -1;
    // A peer that died abruptly (crashed worker) is an orderly end of
    // conversation for our purposes, not an OS failure.
    if (errno == ECONNRESET) return 0;
    fail("recv");
  }
  return n;
}

void TcpStream::write_all(std::string_view bytes) {
  if (fd_ < 0) throw std::runtime_error("write_all: stream is closed");
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      fail("send");
    }
    sent += static_cast<std::size_t>(n);
  }
}

void TcpStream::close() noexcept {
  if (fd_ >= 0) {
    ::shutdown(fd_, SHUT_RDWR);
    ::close(fd_);
    fd_ = -1;
  }
}

void TcpStream::shutdown() noexcept {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

TcpListener::~TcpListener() { close(); }

TcpListener::TcpListener(TcpListener&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      port_(std::exchange(other.port_, 0)) {}

TcpListener& TcpListener::operator=(TcpListener&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    port_ = std::exchange(other.port_, 0);
  }
  return *this;
}

TcpListener TcpListener::bind_to(const std::string& address,
                                 std::uint16_t port) {
  sockaddr_in addr = ipv4_addr(address, port);
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) fail("socket");
  TcpListener listener;
  listener.fd_ = fd;
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    fail("bind " + address + ":" + std::to_string(port));
  }
  if (::listen(fd, 64) != 0) fail("listen");
  socklen_t len = sizeof addr;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    fail("getsockname");
  }
  listener.port_ = ntohs(addr.sin_port);
  return listener;
}

TcpStream TcpListener::accept(double timeout_s) {
  if (fd_ < 0) throw std::runtime_error("accept: listener is closed");
  pollfd p{fd_, POLLIN, 0};
  const int rc = ::poll(&p, 1, poll_timeout_ms(timeout_s));
  if (rc < 0) {
    if (errno == EINTR) return TcpStream();
    fail("poll");
  }
  if (rc == 0) return TcpStream();
  const int conn = ::accept(fd_, nullptr, nullptr);
  if (conn < 0) {
    if (errno == EINTR || errno == ECONNABORTED) return TcpStream();
    fail("accept");
  }
  const int one = 1;
  ::setsockopt(conn, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return TcpStream(conn);
}

void TcpListener::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

}  // namespace midas::util
