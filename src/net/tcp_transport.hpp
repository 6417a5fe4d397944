// Real TCP/IPv4 transport (POSIX sockets). Used by integration tests and
// the examples so the full stack — HTTP framing, SOAP parsing, SPI pack /
// dispatch — is exercised over genuine kernel sockets on loopback.
// Benchmarks use SimTransport instead, because loopback has neither the
// connect cost nor the bandwidth of the paper's Ethernet testbed.
#pragma once

#include "net/transport.hpp"

namespace spi::net {

class TcpTransport final : public Transport {
 public:
  TcpTransport() = default;

  /// Binds host:port (port 0 picks an ephemeral port, reported by
  /// Listener::endpoint()). Host must be an IPv4 literal, e.g. 127.0.0.1.
  Result<std::unique_ptr<Listener>> listen(const Endpoint& at) override;

  /// With options.reuse_port, binds with SO_REUSEPORT so multiple
  /// listeners can shard accepts on one endpoint (one per reactor loop).
  Result<std::unique_ptr<Listener>> listen(
      const Endpoint& at, const ListenOptions& options) override;

  /// True where SO_REUSEPORT exists (Linux ≥3.9, BSDs).
  bool supports_reuse_port() const override;

  Result<std::unique_ptr<Connection>> connect(const Endpoint& to) override;

  /// O_NONBLOCK dial: EINPROGRESS comes back as pending=true and the
  /// caller completes the handshake via writability + finish_connect().
  Result<AsyncConnect> connect_nonblocking(const Endpoint& to) override;

  WireStats stats() const override { return stats_.snapshot(); }
  void reset_stats() override { stats_.reset(); }

 private:
  WireStatsCollector stats_;
};

}  // namespace spi::net
