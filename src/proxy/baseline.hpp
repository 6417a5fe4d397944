// Pack-oblivious L7 baseline for the proxy bench: a classic round-robin
// reverse proxy that treats every SOAP body as opaque bytes. One incoming
// message — no matter how many calls it packs — is forwarded WHOLE to the
// next backend in rotation; no unpack, no shard routing, no re-pack, no
// merge. This is what a generic HTTP load balancer does with SPI traffic,
// and what the PackingProxy's goodput/tail-latency numbers are measured
// against: the baseline cannot spread one M-call pack over K backends, so
// a single pack's work always serializes on one member.
//
// Forwards ride one reactor-driven AsyncHttpClient (DESIGN.md §16), the
// runtime every other SPI hop uses: keep-alive connections pooled per
// backend, each handler thread waiting on its own exchange.
#pragma once

#include <atomic>
#include <memory>
#include <vector>

#include "concurrency/reactor.hpp"
#include "http/async_client.hpp"
#include "http/server.hpp"
#include "net/transport.hpp"

namespace spi::proxy {

struct RoundRobinOptions {
  std::vector<net::Endpoint> backends;
  std::string target = "/spi";
  size_t protocol_threads = 8;
  size_t reactor_threads = 1;
  Duration receive_timeout = kNoTimeout;
  http::ParserLimits http_limits;
};

class RoundRobinProxy {
 public:
  struct Stats {
    std::uint64_t requests = 0;
    std::uint64_t backend_errors = 0;  ///< forwards that failed transport-level
  };

  RoundRobinProxy(net::Transport& transport, net::Endpoint at,
                  RoundRobinOptions options = {});
  ~RoundRobinProxy();

  RoundRobinProxy(const RoundRobinProxy&) = delete;
  RoundRobinProxy& operator=(const RoundRobinProxy&) = delete;

  Status start();
  void stop();
  net::Endpoint endpoint() const;
  Stats stats() const;

 private:
  http::Response handle(const http::Request& request);

  RoundRobinOptions options_;
  std::atomic<size_t> next_{0};
  /// Forwarding runtime: one loop thread for every backend exchange.
  Reactor reactor_;
  http::AsyncHttpClient http_;
  std::unique_ptr<http::HttpServer> http_server_;
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> backend_errors_{0};
};

}  // namespace spi::proxy
