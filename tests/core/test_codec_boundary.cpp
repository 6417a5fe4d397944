// The codec boundary (DESIGN.md §14): what crosses it unchanged whatever
// the wire codec. Trace ids and deadlines reach the handler's CallContext
// for every codec on both the direct hop and the proxied one; an already
// expired request is shed at the same stage, with the same status and
// counter, per codec and hop; and the calibrated pack cost is charged on
// the bytes that cross the wire, not on the text envelope behind them.
#include <gtest/gtest.h>

#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <vector>

#include "benchsupport/workload.hpp"
#include "codec/registry.hpp"
#include "common/clock.hpp"
#include "core/call_context.hpp"
#include "core/client.hpp"
#include "core/dispatcher.hpp"
#include "core/params.hpp"
#include "core/server.hpp"
#include "core/wire.hpp"
#include "http/client.hpp"
#include "net/sim_transport.hpp"
#include "proxy/proxy.hpp"
#include "resilience/retry.hpp"
#include "services/echo.hpp"
#include "soap/envelope.hpp"
#include "telemetry/trace.hpp"

namespace spi::core {
namespace {

using soap::Value;

enum class Hop { kDirect, kProxy };

std::string hop_name(Hop hop) {
  return hop == Hop::kDirect ? "ClientServer" : "ClientProxyBackend";
}

class TraceDeadlineAcrossCodecsTest
    : public ::testing::TestWithParam<std::tuple<std::string, Hop>> {
 protected:
  struct Observation {
    std::string trace_id;
    bool deadline_valid = false;
    Duration remaining = Duration::zero();
  };

  void SetUp() override {
    ServiceBinder binder(registry_, "ProbeService");
    binder.bind_idempotent("Observe", [this](const soap::Struct&)
                                          -> Result<Value> {
      Observation seen;
      if (const CallContext* context = current_call_context()) {
        seen.trace_id = context->trace.trace_id;
        seen.deadline_valid = context->deadline.valid();
        seen.remaining =
            context->deadline.remaining(RealClock::instance().now());
      }
      std::lock_guard lock(mutex_);
      observed_.push_back(std::move(seen));
      return Value("seen");
    });
    server_ = std::make_unique<SpiServer>(
        transport_, net::Endpoint{"server", 80}, registry_);
    ASSERT_TRUE(server_->start().ok());

    if (hop() == Hop::kProxy) {
      proxy::ProxyOptions options;
      options.backends = {server_->endpoint()};
      options.backend_request_codec = codec();
      options.backend_accept_codecs = {codec()};
      proxy_ = std::make_unique<proxy::PackingProxy>(
          transport_, net::Endpoint{"proxy", 80}, std::move(options));
      ASSERT_TRUE(proxy_->start().ok());
    }
  }

  void TearDown() override {
    if (proxy_) proxy_->stop();
    server_->stop();
  }

  const std::string& codec() const { return std::get<0>(GetParam()); }
  Hop hop() const { return std::get<1>(GetParam()); }

  net::Endpoint entry() const {
    return proxy_ ? proxy_->endpoint() : server_->endpoint();
  }

  std::vector<ServiceCall> observe_calls(size_t count) const {
    std::vector<ServiceCall> calls;
    for (size_t i = 0; i < count; ++i) {
      calls.push_back(make_call("ProbeService", "Observe",
                                {{"n", Value(static_cast<int>(i))}}));
    }
    return calls;
  }

  /// A packed request whose spi:Deadline is already spent, with a trace
  /// header, encoded in the parameter codec and POSTed past SpiClient
  /// (which would fail it locally before sending).
  http::Response post_expired(size_t calls) {
    std::string envelope = soap::build_envelope(
        wire::serialize_packed_request(observe_calls(calls)),
        {telemetry::TraceContext::generate().to_header_block(),
         "<spi:Deadline><spi:RemainingUs>-5000</spi:RemainingUs>"
         "</spi:Deadline>"});
    http::Headers headers;
    if (codec() != "identity") {
      const codec::WireCodec* wire_codec =
          codec::CodecRegistry::builtin().find(codec());
      EXPECT_NE(wire_codec, nullptr);
      auto encoded = wire_codec->encode(envelope);
      EXPECT_TRUE(encoded.ok());
      envelope = std::move(encoded).value();
      headers.set("Content-Encoding", codec());
    }
    http::HttpClient http(transport_, entry(), {});
    auto response = http.post("/spi", std::move(envelope), "text/xml",
                              &headers);
    EXPECT_TRUE(response.ok()) << response.error().to_string();
    return response.ok() ? std::move(response).value() : http::Response{};
  }

  std::vector<Observation> observed() {
    std::lock_guard lock(mutex_);
    return observed_;
  }

  net::SimTransport transport_;  // instant link
  ServiceRegistry registry_;
  std::unique_ptr<SpiServer> server_;
  std::unique_ptr<proxy::PackingProxy> proxy_;
  std::mutex mutex_;
  std::vector<Observation> observed_;
};

TEST_P(TraceDeadlineAcrossCodecsTest, HandlerSeesClientTraceAndDeadline) {
  ClientOptions options;
  options.request_codec = codec();
  options.accept_codecs = {codec()};
  options.call_timeout = std::chrono::seconds(30);
  SpiClient client(transport_, entry(), std::move(options));

  const telemetry::TraceContext origin = telemetry::TraceContext::generate();
  telemetry::TraceScope scope(origin);
  auto outcomes = client.call_packed(observe_calls(3));
  ASSERT_EQ(outcomes.size(), 3u);
  for (const CallOutcome& outcome : outcomes) {
    ASSERT_TRUE(outcome.ok()) << outcome.error().to_string();
  }

  auto seen = observed();
  ASSERT_EQ(seen.size(), 3u);
  for (const Observation& observation : seen) {
    EXPECT_EQ(observation.trace_id, origin.trace_id);
    EXPECT_TRUE(observation.deadline_valid);
    EXPECT_GT(observation.remaining, Duration::zero());
    EXPECT_LE(observation.remaining, std::chrono::seconds(30));
  }
}

TEST_P(TraceDeadlineAcrossCodecsTest, ExpiredRequestIsShedWhereItAlwaysWas) {
  http::Response response = post_expired(2);
  if (hop() == Hop::kProxy) {
    // The proxy sheds dead-on-arrival messages before touching a backend,
    // whatever the codec.
    EXPECT_EQ(response.status, 504) << response.body;
    EXPECT_EQ(proxy_->stats().deadline_shed, 1u);
    EXPECT_NE(proxy_->metrics().expose().find(
                  "spi_proxy_deadline_shed_total 1"),
              std::string::npos);
    EXPECT_EQ(server_->stats().http_requests, 0u);
  } else if (codec() != "bxml") {
    // Text bodies are scanned for the deadline before the parse stage.
    EXPECT_EQ(response.status, 504) << response.body;
    EXPECT_NE(response.body.find("DeadlineExceeded"), std::string::npos);
    EXPECT_EQ(server_->stats().deadline_shed_pre_parse, 1u);
    EXPECT_EQ(server_->stats().dispatcher.deadline_shed, 0u);
  } else {
    // bxml never becomes text, so its deadline is enforced per call at
    // the execute-stage boundary instead.
    EXPECT_EQ(response.status, 200) << response.body;
    Dispatcher dispatcher;
    auto parsed = dispatcher.parse_response(response.body);
    ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
    auto routed = dispatcher.route(std::move(parsed).value(), 2);
    ASSERT_TRUE(routed.ok()) << routed.error().to_string();
    for (const CallOutcome& outcome : routed.value()) {
      ASSERT_FALSE(outcome.ok());
      EXPECT_EQ(resilience::fault_cause(outcome.error()),
                ErrorCode::kDeadlineExceeded);
    }
    EXPECT_EQ(server_->stats().deadline_shed_pre_parse, 0u);
    EXPECT_EQ(server_->stats().dispatcher.deadline_shed, 2u);
    EXPECT_NE(server_->metrics().expose().find(
                  "spi_server_deadline_shed_total{stage=\"execute\"} 2"),
              std::string::npos);
  }
  EXPECT_TRUE(observed().empty()) << "no handler runs for an expired request";
}

INSTANTIATE_TEST_SUITE_P(
    CodecsAndHops, TraceDeadlineAcrossCodecsTest,
    ::testing::Combine(::testing::Values("identity", "deflate", "bxml"),
                       ::testing::Values(Hop::kDirect, Hop::kProxy)),
    [](const auto& info) {
      return std::get<0>(info.param) + "_" + hop_name(std::get<1>(info.param));
    });

// --- pack cost at wire size -------------------------------------------------

TEST(PackCostAtWireSizeTest,
     DeflateExchangeChargesWireBytesAtAllFourPoints) {
  // One ns per byte and nothing per call: each clock's advance is exactly
  // the bytes its two handling points charged. Client: pack (request) and
  // unpack (response); server: unpack (request) and pack (response).
  ManualClock client_clock;
  ManualClock server_clock;
  PackCostModel client_cost;
  client_cost.ns_per_byte = 1.0;
  client_cost.clock = &client_clock;
  PackCostModel server_cost = client_cost;
  server_cost.clock = &server_clock;

  net::SimTransport transport;
  ServiceRegistry registry;
  services::register_echo_service(registry);
  ServerOptions server_options;
  server_options.pack_cost = server_cost;
  SpiServer server(transport, net::Endpoint{"server", 80}, registry,
                   server_options);
  ASSERT_TRUE(server.start().ok());

  ClientOptions client_options;
  client_options.pack_cost = client_cost;
  client_options.request_codec = "deflate";
  client_options.accept_codecs = {"deflate"};
  SpiClient client(transport, server.endpoint(), client_options);

  auto calls = bench::make_echo_calls_text(8, 1024, /*seed=*/21);
  auto outcomes = client.call_packed(calls);
  ASSERT_EQ(outcomes.size(), calls.size());
  ASSERT_EQ(bench::count_echo_errors(calls, outcomes), 0u);

  // Wire sizes as the server counted them at its codec boundary.
  telemetry::MetricsRegistry& metrics = server.metrics();
  const auto request_wire = static_cast<std::int64_t>(
      metrics.counter("spi_codec_decoded_bytes_total", "",
                      "codec=\"deflate\"")
          .value());
  const auto response_wire = static_cast<std::int64_t>(
      metrics.counter("spi_codec_encoded_bytes_total", "",
                      "codec=\"deflate\"")
          .value());
  ASSERT_GT(request_wire, 0);
  ASSERT_GT(response_wire, 0);
  const Duration wire_charge(request_wire + response_wire);
  EXPECT_EQ(server_clock.now().time_since_epoch(), wire_charge);
  EXPECT_EQ(client_clock.now().time_since_epoch(), wire_charge);

  // The text envelopes are several times larger: a charge at text size on
  // any one point would overshoot the wire total.
  const size_t request_text =
      Assembler().assemble_request(calls, PackMode::kAuto).size();
  EXPECT_GT(static_cast<std::int64_t>(request_text), 2 * request_wire);

  // A traditional (unpacked) exchange is charged nothing on either side.
  auto single = client.call(calls.front());
  ASSERT_TRUE(single.ok()) << single.error().to_string();
  EXPECT_EQ(server_clock.now().time_since_epoch(), wire_charge);
  EXPECT_EQ(client_clock.now().time_since_epoch(), wire_charge);
  server.stop();
}

}  // namespace
}  // namespace spi::core
