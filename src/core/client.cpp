#include "core/client.hpp"

#include <limits>

#include "common/logging.hpp"
#include "core/codec_boundary.hpp"
#include "telemetry/trace.hpp"

namespace spi::core {

namespace {

std::vector<CallOutcome> replicate_error(const Error& error, size_t n) {
  std::vector<CallOutcome> outcomes;
  outcomes.reserve(n);
  for (size_t i = 0; i < n; ++i) outcomes.emplace_back(error);
  return outcomes;
}

}  // namespace

SpiClient::SpiClient(net::Transport& transport, net::Endpoint server,
                     ClientOptions options)
    : transport_(transport),
      server_(std::move(server)),
      options_(std::move(options)),
      wsse_factory_(options_.wsse
                        ? std::make_unique<soap::WsseTokenFactory>(
                              *options_.wsse, options_.wsse_nonce_seed)
                        : nullptr),
      assembler_(wsse_factory_.get(), options_.pack_cost),
      dispatcher_(nullptr, options_.pack_cost),
      retry_policy_(options_.retry),
      hedge_policy_(options_.hedge) {}

SpiClient::~SpiClient() {
  // Async leg callbacks reference this client; wait until every in-flight
  // exchange has completed (the runtime's reactor must be running, or its
  // destruction must have failed them, before we are destroyed). The
  // private runtime, if any, is torn down after this wait.
  std::unique_lock lock(async_mutex_);
  async_cv_.wait(lock, [this] {
    return async_inflight_.load(std::memory_order_acquire) == 0;
  });
}

http::AsyncHttpClient& SpiClient::runtime() {
  if (options_.async_client) return *options_.async_client;
  // Started lazily: a client that never exchanges costs no thread, and
  // construction stays as cheap as the connection-less client it is.
  std::call_once(runtime_once_, [this] {
    Reactor::Options reactor_options;
    reactor_options.name = "spi-client";
    private_reactor_ = std::make_unique<Reactor>(reactor_options);
    private_reactor_->start();
    http::AsyncClientOptions http_options;
    // call_multithreaded is M exchanges on M connections: never queue
    // them behind a connection cap.
    http_options.max_connections_per_endpoint =
        std::numeric_limits<size_t>::max();
    http_options.limits = options_.http_limits;
    private_http_ = std::make_unique<http::AsyncHttpClient>(
        *private_reactor_, transport_, http_options);
  });
  return *private_http_;
}

http::Request SpiClient::new_request() const {
  http::Request request;
  request.target = options_.target;
  request.headers.set("SOAPAction", "\"\"");
  request.headers.set("Content-Type", "text/xml");
  if (!options_.keep_alive) request.headers.set("Connection", "close");
  return request;
}

const codec::CodecRegistry& SpiClient::codec_registry() const {
  return options_.codecs ? *options_.codecs : codec::CodecRegistry::builtin();
}

Result<std::string> SpiClient::encode_request(std::string envelope,
                                              size_t packed_calls,
                                              http::Headers& headers) {
  if (!options_.accept_codecs.empty()) {
    std::string accept;
    for (const std::string& name : options_.accept_codecs) {
      if (!accept.empty()) accept += ", ";
      accept += name;
    }
    headers.set("Accept-Encoding", accept);
  }
  std::string body = std::move(envelope);
  if (!options_.request_codec.empty() &&
      options_.request_codec != "identity") {
    const codec::WireCodec* codec =
        codec_registry().find(options_.request_codec);
    if (!codec) {
      return Error(ErrorCode::kInvalidArgument,
                   "unknown request codec: " + options_.request_codec);
    }
    auto encoded = codec->encode(body);
    if (!encoded.ok()) return encoded.wrap_error("encode request");
    headers.set("Content-Encoding", std::string(codec->name()));
    body = std::move(encoded).value();
  }
  if (packed_calls > 0) assembler_.charge_pack_cost(body.size(), packed_calls);
  return body;
}

Result<wire::ParsedResponse> SpiClient::parse_wire_response(
    const http::Response& response) {
  auto codec = content_codec(response.headers, codec_registry());
  if (!codec.ok()) {
    return Error(ErrorCode::kProtocolError, codec.error().message());
  }
  return dispatcher_.parse_response(*codec.value(), response.body,
                                    options_.http_limits.max_body_bytes);
}

CallOutcome SpiClient::call(const ServiceCall& service_call) {
  auto outcomes = execute_packed(std::span(&service_call, 1), PackMode::kSingle);
  if (!outcomes.ok()) return outcomes.error();
  return std::move(outcomes.value().front());
}

CallOutcome SpiClient::call(std::string service, std::string operation,
                            soap::Struct params) {
  return call(make_call(std::move(service), std::move(operation),
                        std::move(params)));
}

std::vector<CallOutcome> SpiClient::call_serial(
    std::span<const ServiceCall> calls) {
  std::vector<CallOutcome> outcomes;
  outcomes.reserve(calls.size());
  for (const ServiceCall& service_call : calls) {
    outcomes.push_back(call(service_call));
  }
  return outcomes;
}

std::vector<CallOutcome> SpiClient::call_multithreaded(
    std::span<const ServiceCall> calls) {
  // All M exchanges are in flight before the first wait, each on its own
  // connection, like the paper's M client threads each opening a socket.
  std::vector<std::future<PackedResult>> pending;
  pending.reserve(calls.size());
  for (const ServiceCall& service_call : calls) {
    pending.push_back(execute_packed_future({service_call}, PackMode::kSingle));
  }
  std::vector<CallOutcome> outcomes;
  outcomes.reserve(calls.size());
  for (auto& future : pending) {
    PackedResult result = future.get();
    if (result.ok()) {
      outcomes.push_back(std::move(result.value().front()));
    } else {
      outcomes.emplace_back(result.error());
    }
  }
  return outcomes;
}

Result<std::vector<CallOutcome>> SpiClient::execute_packed(
    std::span<const ServiceCall> calls, PackMode mode) {
  // The reactor drives the exchange; this thread only waits on the
  // completion future (never call from the runtime's loop thread).
  return execute_packed_future(
             std::vector<ServiceCall>(calls.begin(), calls.end()), mode)
      .get();
}

Result<std::vector<CallOutcome>> SpiClient::execute_plan(
    const RemotePlan& plan) {
  if (Status valid = plan.validate(); !valid.ok()) {
    return valid.error();
  }
  telemetry::TraceContext trace;
  if (options_.trace_propagation) {
    // Continue the caller's ambient trace as a child (a proxy forwarding a
    // plan keeps the origin trace id); start a fresh one otherwise.
    const telemetry::TraceContext* ambient = telemetry::current_trace();
    trace = (ambient && ambient->valid()) ? ambient->child()
                                          : telemetry::TraceContext::generate();
  }
  telemetry::TraceScope trace_scope(trace);

  http::Request request = new_request();
  auto encoded = encode_request(assembler_.assemble_plan(plan),
                                plan.steps.size(), request.headers);
  if (!encoded.ok()) return encoded.wrap_error("spi plan");
  request.body = std::move(encoded).value();
  auto response =
      runtime()
          .send_future(server_, std::move(request), options_.receive_timeout)
          .get();
  if (!response.ok()) return response.wrap_error("spi plan");

  auto parsed = parse_wire_response(response.value());
  if (!parsed.ok()) return parsed.error();
  return dispatcher_.route(std::move(parsed).value(), plan.steps.size());
}

std::vector<CallOutcome> SpiClient::call_packed(
    std::span<const ServiceCall> calls, PackMode mode) {
  auto result = execute_packed(calls, mode);
  if (!result.ok()) {
    return replicate_error(result.error(), calls.size());
  }
  return std::move(result).value();
}

std::future<CallOutcome> SpiClient::Batch::add(ServiceCall call) {
  if (executed_) {
    throw SpiError(ErrorCode::kInvalidArgument,
                   "Batch::add after execute()");
  }
  calls_.push_back(std::move(call));
  promises_.emplace_back();
  return promises_.back().get_future();
}

std::future<CallOutcome> SpiClient::Batch::add(std::string service,
                                               std::string operation,
                                               soap::Struct params) {
  return add(make_call(std::move(service), std::move(operation),
                       std::move(params)));
}

void SpiClient::Batch::execute() {
  if (executed_) {
    throw SpiError(ErrorCode::kInvalidArgument, "Batch already executed");
  }
  executed_ = true;
  if (calls_.empty()) return;

  std::vector<CallOutcome> outcomes = client_.call_packed(calls_);
  // The client-side dispatcher has already routed outcomes into request
  // order; hand each to its caller's future.
  for (size_t i = 0; i < promises_.size(); ++i) {
    promises_[i].set_value(std::move(outcomes[i]));
  }
}

SpiClient::Stats SpiClient::stats() const {
  Stats s;
  s.assembler = assembler_.stats();
  s.dispatcher = dispatcher_.stats();
  s.retries = retry_policy_.retries_granted();
  s.partial_repacks = partial_repacks_.load(std::memory_order_relaxed);
  s.breaker_fast_fails = breaker_fast_fails_.load(std::memory_order_relaxed);
  s.retry_budget = retry_policy_.budget_level();
  s.async_inflight = async_inflight_.load(std::memory_order_relaxed);
  s.hedges_sent = hedges_sent_.load(std::memory_order_relaxed);
  s.hedges_won = hedges_won_.load(std::memory_order_relaxed);
  s.hedges_cancelled = hedges_cancelled_.load(std::memory_order_relaxed);
  return s;
}

void SpiClient::bind_metrics(telemetry::MetricsRegistry& registry,
                             std::string_view label) {
  std::string labels = "client=\"" + std::string(label) + "\"";
  registry.add_callback("spi_client_retries_total",
                        "Retries granted by the retry policy",
                        telemetry::CallbackKind::kCounter, labels,
                        [this]() -> double {
                          return static_cast<double>(
                              retry_policy_.retries_granted());
                        });
  registry.add_callback("spi_client_retry_budget",
                        "Retry-budget tokens currently available",
                        telemetry::CallbackKind::kGauge, labels,
                        [this]() -> double {
                          return retry_policy_.budget_level();
                        });
  registry.add_callback(
      "spi_client_partial_repacks_total",
      "Packed messages re-sent carrying only failed sub-calls",
      telemetry::CallbackKind::kCounter, labels, [this]() -> double {
        return static_cast<double>(
            partial_repacks_.load(std::memory_order_relaxed));
      });
  registry.add_callback(
      "spi_client_breaker_fast_fails_total",
      "Exchanges refused fast by an open circuit breaker",
      telemetry::CallbackKind::kCounter, labels, [this]() -> double {
        return static_cast<double>(
            breaker_fast_fails_.load(std::memory_order_relaxed));
      });
  registry.add_callback("spi_client_inflight",
                        "Async packed exchanges accepted and not completed",
                        telemetry::CallbackKind::kGauge, labels,
                        [this]() -> double {
                          return static_cast<double>(
                              async_inflight_.load(std::memory_order_relaxed));
                        });
  registry.add_callback("spi_hedges_sent_total",
                        "Hedge attempts fired at the latency-quantile trigger",
                        telemetry::CallbackKind::kCounter, labels,
                        [this]() -> double {
                          return static_cast<double>(
                              hedges_sent_.load(std::memory_order_relaxed));
                        });
  registry.add_callback("spi_hedges_won_total",
                        "Exchanges where the hedge answered before the primary",
                        telemetry::CallbackKind::kCounter, labels,
                        [this]() -> double {
                          return static_cast<double>(
                              hedges_won_.load(std::memory_order_relaxed));
                        });
  registry.add_callback("spi_hedges_cancelled_total",
                        "Hedge legs cancelled after the primary won",
                        telemetry::CallbackKind::kCounter, labels,
                        [this]() -> double {
                          return static_cast<double>(
                              hedges_cancelled_.load(std::memory_order_relaxed));
                        });
}

}  // namespace spi::core
