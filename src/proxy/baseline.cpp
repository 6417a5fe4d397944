#include "proxy/baseline.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "soap/envelope.hpp"

namespace spi::proxy {

namespace {

Reactor::Options forwarding_reactor_options() {
  Reactor::Options options;
  options.name = "spi-rr-forward";
  return options;
}

http::AsyncClientOptions forwarding_client_options(
    const RoundRobinOptions& options) {
  http::AsyncClientOptions client;
  // Each protocol thread has at most one forward in flight, so this many
  // connections per backend never queue an exchange.
  client.max_connections_per_endpoint =
      std::max<size_t>(1, options.protocol_threads);
  client.limits = options.http_limits;
  return client;
}

}  // namespace

RoundRobinProxy::RoundRobinProxy(net::Transport& transport, net::Endpoint at,
                                 RoundRobinOptions options)
    : options_(std::move(options)),
      reactor_(forwarding_reactor_options()),
      http_(reactor_, transport, forwarding_client_options(options_)) {
  http::ServerOptions http_options;
  http_options.protocol_threads = options_.protocol_threads;
  http_options.reactor_threads = options_.reactor_threads;
  http_options.limits = options_.http_limits;
  http_server_ = std::make_unique<http::HttpServer>(
      transport, std::move(at),
      [this](const http::Request& request) { return handle(request); },
      http_options);
}

RoundRobinProxy::~RoundRobinProxy() { stop(); }

Status RoundRobinProxy::start() {
  if (!reactor_.running()) reactor_.start();
  return http_server_->start();
}

void RoundRobinProxy::stop() {
  // Handler threads are the only senders: stop them before the loop.
  http_server_->stop();
  reactor_.stop();
}

net::Endpoint RoundRobinProxy::endpoint() const {
  return http_server_->endpoint();
}

http::Response RoundRobinProxy::handle(const http::Request& request) {
  if (request.method != "POST") {
    return http::Response::make(405, "Method Not Allowed",
                                "SOAP endpoint accepts POST only");
  }
  requests_.fetch_add(1, std::memory_order_relaxed);
  if (options_.backends.empty()) {
    return http::Response::make(503, "Service Unavailable", "no backends");
  }
  const net::Endpoint& backend =
      options_.backends[next_.fetch_add(1, std::memory_order_relaxed) %
                        options_.backends.size()];

  // Opaque byte forwarding: the body and the headers that describe it
  // cross unmodified — the baseline understands nothing about packs,
  // codecs, traces, or deadlines.
  http::Request forward;
  forward.target = options_.target;
  for (const char* name :
       {"Content-Encoding", "Accept-Encoding", "SOAPAction"}) {
    if (auto value = request.headers.get(name)) {
      forward.headers.set(name, *value);
    }
  }
  forward.headers.set("Content-Type",
                      request.headers.get("Content-Type").value_or("text/xml"));
  forward.body = request.body;

  auto response =
      http_.send_future(backend, std::move(forward), options_.receive_timeout)
          .get();
  if (!response.ok()) {
    backend_errors_.fetch_add(1, std::memory_order_relaxed);
    std::string body = soap::build_envelope(
        soap::Fault::from_error(response.error()).to_xml());
    return http::Response::make(502, "Bad Gateway", std::move(body),
                                "text/xml");
  }

  http::Response out = http::Response::make(
      response.value().status,
      http::default_reason(response.value().status),
      std::move(response.value().body), "text/xml");
  for (const char* name : {"Content-Encoding", "Retry-After"}) {
    if (auto value = response.value().headers.get(name)) {
      out.headers.set(name, *value);
    }
  }
  return out;
}

RoundRobinProxy::Stats RoundRobinProxy::stats() const {
  Stats s;
  s.requests = requests_.load(std::memory_order_relaxed);
  s.backend_errors = backend_errors_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace spi::proxy
