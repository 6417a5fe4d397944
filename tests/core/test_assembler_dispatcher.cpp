// Assembler + Dispatcher in isolation (no HTTP/transport): pack/unpack
// round trips, fan-out execution semantics, response routing validation,
// and the pack-cost hook.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "core/assembler.hpp"
#include "core/dispatcher.hpp"
#include "core/params.hpp"

namespace spi::core {
namespace {

using soap::Value;

std::vector<ServiceCall> echo_calls(size_t n) {
  std::vector<ServiceCall> calls;
  for (size_t i = 0; i < n; ++i) {
    calls.push_back(make_call("EchoService", "Echo",
                              {{"data", Value("payload-" + std::to_string(i))}}));
  }
  return calls;
}

void register_echo(ServiceRegistry& registry) {
  (void)registry.register_operation(
      "EchoService", "Echo",
      [](const soap::Struct& params) -> Result<Value> {
        const Value* data = find_param(params, "data");
        if (!data) return Error(ErrorCode::kInvalidArgument, "no data");
        return *data;
      });
}

TEST(AssemblerTest, AutoModePicksFramingBySize) {
  Assembler assembler;
  auto one = echo_calls(1);
  EXPECT_EQ(assembler.assemble_request(one, PackMode::kAuto)
                .find("Parallel_Method"),
            std::string::npos);
  auto three = echo_calls(3);
  EXPECT_NE(assembler.assemble_request(three, PackMode::kAuto)
                .find("Parallel_Method"),
            std::string::npos);
}

TEST(AssemblerTest, PackedModeForcesParallelMethodAtM1) {
  Assembler assembler;
  auto one = echo_calls(1);
  EXPECT_NE(assembler.assemble_request(one, PackMode::kPacked)
                .find("Parallel_Method"),
            std::string::npos);
}

TEST(AssemblerTest, InvalidBatchesThrow) {
  Assembler assembler;
  std::vector<ServiceCall> empty;
  EXPECT_THROW(assembler.assemble_request(empty, PackMode::kAuto), SpiError);
  auto two = echo_calls(2);
  EXPECT_THROW(assembler.assemble_request(two, PackMode::kSingle), SpiError);
  std::vector<IndexedOutcome> none;
  EXPECT_THROW(assembler.assemble_response(none, ServiceCall{}, true),
               SpiError);
}

TEST(AssemblerTest, StatsTrackEnvelopesAndCalls) {
  Assembler assembler;
  auto calls = echo_calls(4);
  (void)assembler.assemble_request(calls, PackMode::kPacked);
  auto one = echo_calls(1);
  (void)assembler.assemble_request(one, PackMode::kSingle);
  auto stats = assembler.stats();
  EXPECT_EQ(stats.envelopes, 2u);
  EXPECT_EQ(stats.packed_envelopes, 1u);
  EXPECT_EQ(stats.calls, 5u);
}

TEST(AssemblerTest, WsseFactoryAddsSecurityHeader) {
  soap::WsseTokenFactory factory({"u", "p"}, 1);
  Assembler assembler(&factory);
  auto calls = echo_calls(2);
  std::string envelope = assembler.assemble_request(calls, PackMode::kPacked);
  EXPECT_NE(envelope.find("wsse:Security"), std::string::npos);
  EXPECT_NE(envelope.find("SOAP-ENV:Header"), std::string::npos);
}

TEST(PackCostTest, ChargeAdvancesInjectedClock) {
  ManualClock clock;
  PackCostModel model;
  model.ns_per_byte = 10.0;
  model.us_per_call = 2.0;
  model.clock = &clock;
  ASSERT_TRUE(model.enabled());
  model.charge(1000, 5);  // 10us + 10us
  EXPECT_EQ(clock.now().time_since_epoch(),
            Duration(std::chrono::microseconds(20)));
}

TEST(PackCostTest, DisabledModelChargesNothing) {
  ManualClock clock;
  PackCostModel model;
  model.clock = &clock;
  EXPECT_FALSE(model.enabled());
  model.charge(1'000'000'000, 1'000'000);
  EXPECT_EQ(clock.now().time_since_epoch(), Duration::zero());
}

TEST(AssemblerTest, PackCostChargedOnlyForPackedEnvelopes) {
  // Assembly itself is free: the pack cost is charged once the envelope
  // has its wire size (charge_pack_cost), and callers charge only the
  // envelopes assemble_request frames as Parallel_Method (packs()).
  ManualClock clock;
  PackCostModel model;
  model.us_per_call = 100.0;
  model.clock = &clock;
  Assembler assembler(nullptr, model);

  auto one = echo_calls(1);
  (void)assembler.assemble_request(one, PackMode::kSingle);
  auto four = echo_calls(4);
  std::string packed = assembler.assemble_request(four, PackMode::kPacked);
  EXPECT_EQ(clock.now().time_since_epoch(), Duration::zero());

  EXPECT_FALSE(packs(PackMode::kSingle, 1));
  EXPECT_FALSE(packs(PackMode::kAuto, 1));
  EXPECT_TRUE(packs(PackMode::kAuto, 4));
  EXPECT_TRUE(packs(PackMode::kPacked, 1));

  assembler.charge_pack_cost(packed.size(), four.size());
  EXPECT_EQ(clock.now().time_since_epoch(),
            Duration(std::chrono::microseconds(400)));
}

// --- dispatcher -----------------------------------------------------------------

TEST(DispatcherTest, ParseRequestRoundTripsAssemblerOutput) {
  Assembler assembler;
  Dispatcher dispatcher;
  auto calls = echo_calls(3);
  auto parsed = dispatcher.parse_request(
      assembler.assemble_request(calls, PackMode::kPacked));
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed.value().packed);
  EXPECT_EQ(parsed.value().calls.size(), 3u);
  EXPECT_EQ(dispatcher.stats().packed_envelopes, 1u);
}

TEST(DispatcherTest, ParseRequestRejectsGarbage) {
  Dispatcher dispatcher;
  EXPECT_FALSE(dispatcher.parse_request("not xml at all").ok());
  EXPECT_FALSE(dispatcher.parse_request("<NotEnvelope/>").ok());
  EXPECT_EQ(dispatcher.stats().envelopes, 0u);
}

TEST(DispatcherTest, ExecuteInlineWithoutPool) {
  Dispatcher dispatcher;
  ServiceRegistry registry;
  register_echo(registry);
  Assembler assembler;
  auto calls = echo_calls(4);
  auto parsed = dispatcher.parse_request(
      assembler.assemble_request(calls, PackMode::kPacked));
  ASSERT_TRUE(parsed.ok());

  auto outcomes = dispatcher.execute(parsed.value(), registry, nullptr);
  ASSERT_EQ(outcomes.size(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(outcomes[i].id, i);
    ASSERT_TRUE(outcomes[i].outcome.ok());
    EXPECT_EQ(outcomes[i].outcome.value().as_string(),
              "payload-" + std::to_string(i));
  }
  EXPECT_EQ(dispatcher.stats().calls_dispatched, 4u);
}

TEST(DispatcherTest, ExecuteFansOutToPool) {
  Dispatcher dispatcher;
  ServiceRegistry registry;
  std::atomic<int> concurrent{0};
  std::atomic<int> max_concurrent{0};
  (void)registry.register_operation(
      "S", "Track", [&](const soap::Struct&) -> Result<Value> {
        int now = ++concurrent;
        int seen = max_concurrent.load();
        while (now > seen && !max_concurrent.compare_exchange_weak(seen, now)) {
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        --concurrent;
        return Value(true);
      });

  wire::ParsedRequest request;
  request.packed = true;
  for (std::uint32_t i = 0; i < 8; ++i) {
    request.calls.push_back({i, make_call("S", "Track")});
  }
  ThreadPool pool(8, "app");
  auto outcomes = dispatcher.execute(request, registry, &pool);
  ASSERT_EQ(outcomes.size(), 8u);
  EXPECT_GE(max_concurrent.load(), 4);  // genuinely parallel
}

TEST(DispatcherTest, ExecuteCountsFaults) {
  Dispatcher dispatcher;
  ServiceRegistry registry;
  register_echo(registry);
  wire::ParsedRequest request;
  request.packed = true;
  request.calls.push_back({0, make_call("EchoService", "Echo",
                                        {{"data", Value(1)}})});
  request.calls.push_back({1, make_call("Ghost", "Boo")});
  auto outcomes = dispatcher.execute(request, registry, nullptr);
  EXPECT_TRUE(outcomes[0].outcome.ok());
  EXPECT_FALSE(outcomes[1].outcome.ok());
  EXPECT_EQ(dispatcher.stats().faults_produced, 1u);
}

TEST(DispatcherTest, RouteOrdersById) {
  Dispatcher dispatcher;
  wire::ParsedResponse response;
  response.packed = true;
  response.outcomes.push_back({2, CallOutcome(Value("c"))});
  response.outcomes.push_back({0, CallOutcome(Value("a"))});
  response.outcomes.push_back({1, CallOutcome(Value("b"))});
  auto routed = dispatcher.route(std::move(response), 3);
  ASSERT_TRUE(routed.ok());
  EXPECT_EQ(routed.value()[0].value(), Value("a"));
  EXPECT_EQ(routed.value()[1].value(), Value("b"));
  EXPECT_EQ(routed.value()[2].value(), Value("c"));
}

TEST(DispatcherTest, RouteRejectsCountMismatch) {
  Dispatcher dispatcher;
  wire::ParsedResponse response;
  response.outcomes.push_back({0, CallOutcome(Value(1))});
  EXPECT_FALSE(dispatcher.route(std::move(response), 2).ok());
}

TEST(DispatcherTest, RouteRejectsOutOfRangeId) {
  Dispatcher dispatcher;
  wire::ParsedResponse response;
  response.outcomes.push_back({5, CallOutcome(Value(1))});
  auto routed = dispatcher.route(std::move(response), 1);
  ASSERT_FALSE(routed.ok());
  EXPECT_NE(routed.error().message().find("out of range"), std::string::npos);
}

TEST(DispatcherTest, RouteRejectsDuplicateId) {
  Dispatcher dispatcher;
  wire::ParsedResponse response;
  response.outcomes.push_back({0, CallOutcome(Value(1))});
  response.outcomes.push_back({0, CallOutcome(Value(2))});
  auto routed = dispatcher.route(std::move(response), 2);
  ASSERT_FALSE(routed.ok());
  EXPECT_NE(routed.error().message().find("duplicate"), std::string::npos);
}

TEST(DispatcherTest, WsseVerifierEnforced) {
  soap::WsseVerifier verifier({"u", "p"});
  Dispatcher dispatcher(&verifier);
  Assembler bare_assembler;
  auto calls = echo_calls(1);
  auto rejected = dispatcher.parse_request(
      bare_assembler.assemble_request(calls, PackMode::kPacked));
  ASSERT_FALSE(rejected.ok());
  EXPECT_NE(rejected.error().message().find("Security"), std::string::npos);

  soap::WsseTokenFactory factory({"u", "p"}, 3);
  Assembler secured_assembler(&factory);
  auto accepted = dispatcher.parse_request(
      secured_assembler.assemble_request(calls, PackMode::kPacked));
  EXPECT_TRUE(accepted.ok()) << accepted.error().to_string();
}

}  // namespace
}  // namespace spi::core
