// Transport abstraction: byte-stream connections + listeners, each usable
// blocking (send/receive/accept) or readiness-driven (native_handle +
// try_* calls, the reactor path). Two implementations:
//   * SimTransport (sim_transport.hpp) — in-process, delays injected by the
//     SimLink model of the paper's 100 Mbit Ethernet testbed; readiness
//     comes from one timerfd per pipe direction
//   * TcpTransport (tcp_transport.hpp) — real POSIX sockets (loopback
//     integration tests, examples)
// Every transport is pollable, so the HTTP layer and everything above it
// run one code path (the reactor) whatever the transport.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "common/clock.hpp"
#include "common/error.hpp"
#include "common/timeout.hpp"
#include "net/endpoint.hpp"

namespace spi::net {

/// One segment of a vectored send: mirrors `struct iovec` without pulling
/// <sys/uio.h> into the interface. Segments are written to the wire in
/// order, as if concatenated.
struct ConstBuffer {
  const char* data = nullptr;
  size_t size = 0;
};

/// Options for Transport::listen. reuse_port asks for kernel-level accept
/// sharding (SO_REUSEPORT): several listeners bound to the same endpoint,
/// each with its own accept queue, so every reactor loop can accept
/// locally instead of funnelling through one listener.
struct ListenOptions {
  bool reuse_port = false;
};

/// Wire counters. Benches read these to report message/byte reductions
/// (the mechanism behind the paper's Figures 5-7).
struct WireStats {
  std::uint64_t connections_opened = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
};

/// Shared, thread-safe stats accumulator owned by a Transport.
class WireStatsCollector {
 public:
  void on_connect() { connections_.fetch_add(1, std::memory_order_relaxed); }
  void on_send(std::uint64_t n) {
    bytes_sent_.fetch_add(n, std::memory_order_relaxed);
  }
  void on_receive(std::uint64_t n) {
    bytes_received_.fetch_add(n, std::memory_order_relaxed);
  }

  WireStats snapshot() const {
    WireStats s;
    s.connections_opened = connections_.load(std::memory_order_relaxed);
    s.bytes_sent = bytes_sent_.load(std::memory_order_relaxed);
    s.bytes_received = bytes_received_.load(std::memory_order_relaxed);
    return s;
  }

  void reset() {
    connections_.store(0, std::memory_order_relaxed);
    bytes_sent_.store(0, std::memory_order_relaxed);
    bytes_received_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> connections_{0};
  std::atomic<std::uint64_t> bytes_sent_{0};
  std::atomic<std::uint64_t> bytes_received_{0};
};

/// Result of Transport::connect_nonblocking. When `pending` is true the
/// connection handshake is still in flight (the kernel said EINPROGRESS):
/// the caller must wait for WRITABILITY on native_handle() and then call
/// Connection::finish_connect() to learn whether the dial succeeded.
struct AsyncConnect {
  std::unique_ptr<class Connection> connection;
  bool pending = false;
};

/// Bidirectional byte stream.
class Connection {
 public:
  virtual ~Connection() = default;

  /// Sends all bytes, blocking until the transport has accepted them.
  /// SimTransport never blocks here: the modeled transmission time is
  /// folded into the bytes' delivery time at the receiver.
  virtual Status send(std::string_view bytes) = 0;

  /// Receives at least 1 and at most max_bytes bytes, blocking until data
  /// is available. Error kConnectionClosed once the peer closes and all
  /// delivered data has been read; kTimeout if a receive timeout is set
  /// and expires first.
  virtual Result<std::string> receive(size_t max_bytes) = 0;

  /// Bounds how long receive() may block (kNoTimeout = forever, the
  /// default; common/timeout.hpp owns that convention). Guards callers
  /// against peers that accept a request and then hang.
  virtual Status set_receive_timeout(Duration timeout) = 0;

  /// Half-close: peer's receive() drains then reports kConnectionClosed.
  /// Idempotent.
  virtual void close() = 0;

  /// Hard teardown: tears down BOTH directions so a thread blocked in
  /// receive() on this connection wakes with kConnectionClosed. Servers
  /// use this to reclaim protocol threads parked on idle keep-alive
  /// connections at shutdown. Idempotent.
  virtual void abort() { close(); }

  // --- readiness-driven I/O (event-driven connection layer, §12) --------
  // A Reactor drives thousands of connections from one thread through
  // these: it polls native_handle() and calls the try_* operations when
  // the handle reports readiness.

  /// Pollable OS handle for Poller registration. Readable whenever
  /// try_receive() has bytes (or EOF) to report.
  virtual int native_handle() const = 0;

  /// Switches the connection between blocking and O_NONBLOCK I/O.
  virtual Status set_nonblocking(bool enabled) = 0;

  /// Non-blocking receive: up to max_bytes of whatever is buffered.
  /// kWouldBlock when nothing is available right now (re-arm read
  /// interest and return to the event loop); kConnectionClosed at EOF.
  virtual Result<std::string> try_receive(size_t max_bytes) = 0;

  /// Non-blocking send: writes what fits into the outbound buffer and
  /// returns the byte count (possibly short). kWouldBlock when nothing
  /// could be accepted (arm write interest and retry on readiness).
  virtual Result<size_t> try_send(std::string_view bytes) = 0;

  /// True when try_sendv() gathers natively (writev/sendmsg). Callers keep
  /// a coalesced single-buffer fallback for transports that return false.
  virtual bool supports_sendv() const { return false; }

  /// Non-blocking vectored send: writes the segments in order as one
  /// gather and returns bytes accepted — possibly short, possibly ending
  /// mid-segment; the caller advances its segment cursor and retries.
  /// kWouldBlock when nothing could be accepted.
  virtual Result<size_t> try_sendv(const ConstBuffer* segments,
                                   size_t count) {
    (void)segments;
    (void)count;
    return Error(ErrorCode::kInvalidArgument,
                 "transport does not support vectored I/O");
  }

  /// Completes a dial started by Transport::connect_nonblocking that came
  /// back pending. Call once the socket polls WRITABLE: Ok means the
  /// connection is established; an error means the dial failed (SO_ERROR)
  /// and the connection must be discarded. For connections that were never
  /// pending this is a no-op.
  virtual Status finish_connect() { return Status(); }
};

/// Connection source bound to an Endpoint.
class Listener {
 public:
  virtual ~Listener() = default;

  /// Blocks for the next inbound connection. Error kShutdown after close().
  virtual Result<std::unique_ptr<Connection>> accept() = 0;

  virtual void close() = 0;

  /// The actual bound endpoint (with the resolved port for port 0).
  virtual Endpoint endpoint() const = 0;

  /// Pollable listening handle: readable while a connection is pending
  /// (or the listener has closed).
  virtual int native_handle() const = 0;

  /// Switches accept() between blocking and O_NONBLOCK.
  virtual Status set_nonblocking(bool enabled) = 0;

  /// Non-blocking accept: kWouldBlock when no connection is pending,
  /// kShutdown after close(). Accepted connections start in blocking mode;
  /// the reactor flips them with set_nonblocking(true).
  virtual Result<std::unique_ptr<Connection>> try_accept() = 0;
};

class Transport {
 public:
  virtual ~Transport() = default;

  virtual Result<std::unique_ptr<Listener>> listen(const Endpoint& at) = 0;

  /// listen() with options. Transports without SO_REUSEPORT support reject
  /// reuse_port requests, so callers fall back to one shared listener.
  virtual Result<std::unique_ptr<Listener>> listen(
      const Endpoint& at, const ListenOptions& options) {
    if (options.reuse_port) {
      return Error(ErrorCode::kInvalidArgument,
                   "transport does not support SO_REUSEPORT");
    }
    return listen(at);
  }

  /// True when listen() honors ListenOptions::reuse_port.
  virtual bool supports_reuse_port() const { return false; }

  virtual Result<std::unique_ptr<Connection>> connect(const Endpoint& to) = 0;

  /// Starts a dial without blocking. When the result's `pending` flag is
  /// true, wait for writability on the connection's native_handle() and
  /// then call Connection::finish_connect(). The default returns connect()'s
  /// connection already established (pending=false), which suits
  /// transports whose connect() never blocks (SimTransport).
  virtual Result<AsyncConnect> connect_nonblocking(const Endpoint& to) {
    auto connection = connect(to);
    if (!connection.ok()) return connection.error();
    AsyncConnect out;
    out.connection = std::move(connection).value();
    out.pending = false;
    return out;
  }

  /// Aggregate wire counters for connections made through this transport.
  virtual WireStats stats() const = 0;
  virtual void reset_stats() = 0;
};

}  // namespace spi::net
