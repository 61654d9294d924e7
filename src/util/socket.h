// Minimal IPv4 TCP wrapper for the fleet runtime (svc/): a listener
// bound to a dotted-quad address and a blocking byte stream with
// poll() timeouts.  The DEFAULT everywhere is 127.0.0.1 — the
// coordinator/worker protocol is a local-machine fleet unless the
// operator explicitly binds elsewhere (fleet tools: --bind / --host) —
// and the wrapper is deliberately tiny: no buffering
// (util::FrameBuffer owns that), no readiness loop (each Connection
// has its own reader thread), no name resolution (numeric addresses
// only, so a bad address fails fast instead of blocking in a
// resolver).
//
// All calls throw std::runtime_error (with errno text) on OS-level
// failure; orderly peer close is reported as a 0-byte read, not an
// error.  SIGPIPE is suppressed per-send (MSG_NOSIGNAL), so a worker
// crashing mid-frame surfaces as a send error in the coordinator
// instead of killing it.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace midas::util {

/// Blocking loopback byte stream.  Movable, not copyable; closes on
/// destruction.
class TcpStream {
 public:
  TcpStream() = default;
  /// Adopts an already-connected socket fd (from TcpListener::accept).
  explicit TcpStream(int fd) : fd_(fd) {}
  ~TcpStream();
  TcpStream(TcpStream&& other) noexcept;
  TcpStream& operator=(TcpStream&& other) noexcept;
  TcpStream(const TcpStream&) = delete;
  TcpStream& operator=(const TcpStream&) = delete;

  /// Connects to host:port (IPv4 dotted quad), waiting at most
  /// timeout_s.  Throws on a malformed address, refusal or timeout.
  [[nodiscard]] static TcpStream connect_to(const std::string& host,
                                            std::uint16_t port,
                                            double timeout_s);

  /// Reads at most `capacity` bytes into `out`.  Returns the byte
  /// count, 0 on orderly peer close, or -1 when `timeout_s` elapses
  /// with nothing to read.  Throws on OS error.
  [[nodiscard]] long read_some(char* out, std::size_t capacity,
                               double timeout_s);

  /// Writes the whole buffer (looping over partial sends).  Throws on
  /// OS error or when the peer has gone away.
  void write_all(std::string_view bytes);

  void close() noexcept;

  /// ::shutdown(SHUT_RDWR) without releasing the fd: wakes a reader
  /// blocked in read_some() on another thread while keeping the fd
  /// number reserved (no reuse race) until close()/destruction.
  void shutdown() noexcept;

  [[nodiscard]] bool is_open() const noexcept { return fd_ >= 0; }

 private:
  int fd_ = -1;
};

/// IPv4 listener (loopback by default).  Port 0 binds an ephemeral
/// port; port() reports the one actually bound.
class TcpListener {
 public:
  TcpListener() = default;
  ~TcpListener();
  TcpListener(TcpListener&& other) noexcept;
  TcpListener& operator=(TcpListener&& other) noexcept;
  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  /// Binds address:port.  `address` is an IPv4 dotted quad — e.g.
  /// "0.0.0.0" to accept remote workers; throws on a malformed address.
  [[nodiscard]] static TcpListener bind_to(const std::string& address,
                                           std::uint16_t port);

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// Accepts one connection, waiting at most timeout_s.  Returns an
  /// unconnected stream (is_open() == false) on timeout.  Throws on OS
  /// error or when the listener is closed.
  [[nodiscard]] TcpStream accept(double timeout_s);

  void close() noexcept;
  [[nodiscard]] bool is_open() const noexcept { return fd_ >= 0; }

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

}  // namespace midas::util
