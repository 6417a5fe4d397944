// The SPI wire format: serialization/parse round trips for both framings,
// the Figure 4 example, and malformed-message rejection.
#include <gtest/gtest.h>

#include "common/random.hpp"
#include "core/wire.hpp"
#include "soap/envelope.hpp"

namespace spi::core::wire {
namespace {

using soap::Value;

ServiceCall weather_call(std::string_view city) {
  return make_call("WeatherService", "GetWeather",
                   {{"city", Value(city)}});
}

Result<ParsedRequest> round_trip_request(std::span<const ServiceCall> calls,
                                         bool packed) {
  std::string body = packed ? serialize_packed_request(calls)
                            : serialize_single_request(calls.front());
  auto envelope = soap::Envelope::parse(soap::build_envelope(body));
  EXPECT_TRUE(envelope.ok()) << envelope.error().to_string();
  return parse_request(envelope.value());
}

TEST(WireRequestTest, SingleRequestRoundTrip) {
  ServiceCall call = weather_call("Beijing");
  auto parsed = round_trip_request(std::span(&call, 1), /*packed=*/false);
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  EXPECT_FALSE(parsed.value().packed);
  ASSERT_EQ(parsed.value().calls.size(), 1u);
  EXPECT_EQ(parsed.value().calls[0].id, 0u);
  EXPECT_EQ(parsed.value().calls[0].call, call);
}

TEST(WireRequestTest, PackedRequestRoundTripPreservesOrderAndIds) {
  std::vector<ServiceCall> calls = {weather_call("Beijing"),
                                    weather_call("Shanghai"),
                                    make_call("EchoService", "Echo",
                                              {{"data", Value(42)}})};
  auto parsed = round_trip_request(calls, /*packed=*/true);
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed.value().packed);
  ASSERT_EQ(parsed.value().calls.size(), 3u);
  for (size_t i = 0; i < calls.size(); ++i) {
    EXPECT_EQ(parsed.value().calls[i].id, i);
    EXPECT_EQ(parsed.value().calls[i].call, calls[i]);
  }
}

TEST(WireRequestTest, Figure4ShapeOnTheWire) {
  // The paper's Figure 4: two weather queries in one Parallel_Method.
  std::vector<ServiceCall> calls = {weather_call("Beijing"),
                                    weather_call("Shanghai")};
  std::string body = serialize_packed_request(calls);
  EXPECT_NE(body.find("<spi:Parallel_Method>"), std::string::npos);
  EXPECT_NE(body.find("service=\"WeatherService\""), std::string::npos);
  EXPECT_NE(body.find("operation=\"GetWeather\""), std::string::npos);
  EXPECT_NE(body.find(">Beijing<"), std::string::npos);
  EXPECT_NE(body.find(">Shanghai<"), std::string::npos);
  // Exactly two Call children.
  size_t count = 0;
  for (size_t pos = 0; (pos = body.find("<spi:Call ", pos)) != std::string::npos;
       ++count, ++pos) {
  }
  EXPECT_EQ(count, 2u);
}

TEST(WireRequestTest, EmptyParamsSerialize) {
  ServiceCall call = make_call("S", "Op");
  auto parsed = round_trip_request(std::span(&call, 1), /*packed=*/false);
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed.value().calls[0].call.params.empty());
}

TEST(WireRequestTest, RejectsEmptyBody) {
  auto envelope = soap::Envelope::parse(soap::build_envelope(""));
  ASSERT_TRUE(envelope.ok());
  EXPECT_FALSE(parse_request(envelope.value()).ok());
}

TEST(WireRequestTest, RejectsMissingServiceAttribute) {
  auto envelope = soap::Envelope::parse(
      soap::build_envelope("<spi:SomeOp><x>1</x></spi:SomeOp>"));
  ASSERT_TRUE(envelope.ok());
  auto parsed = parse_request(envelope.value());
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.error().message().find("spi:service"), std::string::npos);
}

TEST(WireRequestTest, RejectsEmptyParallelMethod) {
  auto envelope = soap::Envelope::parse(
      soap::build_envelope("<spi:Parallel_Method/>"));
  ASSERT_TRUE(envelope.ok());
  EXPECT_FALSE(parse_request(envelope.value()).ok());
}

TEST(WireRequestTest, RejectsCallWithoutId) {
  auto envelope = soap::Envelope::parse(soap::build_envelope(
      R"(<spi:Parallel_Method><spi:Call service="S" operation="O"/></spi:Parallel_Method>)"));
  ASSERT_TRUE(envelope.ok());
  auto parsed = parse_request(envelope.value());
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.error().message().find("id"), std::string::npos);
}

TEST(WireRequestTest, RejectsForeignElementInParallelMethod) {
  auto envelope = soap::Envelope::parse(soap::build_envelope(
      "<spi:Parallel_Method><spi:NotACall/></spi:Parallel_Method>"));
  ASSERT_TRUE(envelope.ok());
  EXPECT_FALSE(parse_request(envelope.value()).ok());
}

/// Raw text through both layers a request crosses: the envelope parse,
/// then parse_request.
Result<ParsedRequest> parse_text_request(std::string_view text) {
  auto envelope = soap::Envelope::parse(text);
  if (!envelope.ok()) return envelope.error();
  return parse_request(envelope.value());
}

TEST(WireRequestTest, RejectsMalformedShapes) {
  EXPECT_FALSE(parse_text_request("").ok());
  EXPECT_FALSE(parse_text_request("<NotEnvelope/>").ok());
  EXPECT_FALSE(parse_text_request("<Envelope><Header/></Envelope>").ok());
  EXPECT_FALSE(parse_text_request("<Envelope><Body/></Envelope>").ok());
  EXPECT_FALSE(parse_text_request("<Envelope><Body><spi:Parallel_Method>"
                                  "<wrong/></spi:Parallel_Method></Body>"
                                  "</Envelope>")
                   .ok());
  for (const char* call : {
           R"(<spi:Call id="x" service="S" operation="O"/>)",
           R"(<spi:Call id="4294967296" service="S" operation="O"/>)",
           R"(<spi:Call id="0" operation="O"/>)",
           R"(<spi:Call id="0" service="" operation="O"/>)",
           R"(<spi:Call id="0" service="S"/>)",
       }) {
    EXPECT_FALSE(parse_text_request(
                     soap::build_envelope("<spi:Parallel_Method>" +
                                          std::string(call) +
                                          "</spi:Parallel_Method>"))
                     .ok())
        << call;
  }
}

// --- responses ----------------------------------------------------------------

Result<ParsedResponse> round_trip_response(
    std::span<const IndexedOutcome> outcomes, const ServiceCall& call,
    bool packed) {
  std::string body =
      packed ? serialize_packed_response(outcomes)
             : serialize_single_response(call, outcomes.front().outcome);
  auto envelope = soap::Envelope::parse(soap::build_envelope(body));
  EXPECT_TRUE(envelope.ok());
  return parse_response(envelope.value());
}

TEST(WireResponseTest, SingleSuccessRoundTrip) {
  ServiceCall call = weather_call("Beijing");
  std::vector<IndexedOutcome> outcomes;
  outcomes.push_back({0, CallOutcome(Value("sunny"))});
  auto parsed = round_trip_response(outcomes, call, /*packed=*/false);
  ASSERT_TRUE(parsed.ok());
  EXPECT_FALSE(parsed.value().packed);
  ASSERT_EQ(parsed.value().outcomes.size(), 1u);
  EXPECT_EQ(parsed.value().outcomes[0].outcome.value(), Value("sunny"));
}

TEST(WireResponseTest, SingleResponseNamesOperation) {
  ServiceCall call = weather_call("Beijing");
  std::string body = serialize_single_response(call, CallOutcome(Value(1)));
  EXPECT_NE(body.find("<spi:GetWeatherResponse>"), std::string::npos);
}

TEST(WireResponseTest, SingleFaultRoundTrip) {
  ServiceCall call = weather_call("Atlantis");
  std::vector<IndexedOutcome> outcomes;
  outcomes.push_back(
      {0, CallOutcome(Error(ErrorCode::kNotFound, "no such city"))});
  auto parsed = round_trip_response(outcomes, call, /*packed=*/false);
  ASSERT_TRUE(parsed.ok());
  ASSERT_FALSE(parsed.value().outcomes[0].outcome.ok());
  const Error& error = parsed.value().outcomes[0].outcome.error();
  EXPECT_EQ(error.code(), ErrorCode::kFault);
  EXPECT_NE(error.message().find("no such city"), std::string::npos);
}

TEST(WireResponseTest, PackedMixedOutcomesRoundTrip) {
  std::vector<IndexedOutcome> outcomes;
  outcomes.push_back({0, CallOutcome(Value("ok"))});
  outcomes.push_back(
      {1, CallOutcome(Error(ErrorCode::kInternal, "worker died"))});
  outcomes.push_back({2, CallOutcome(Value(soap::Struct{{"k", Value(9)}}))});
  auto parsed = round_trip_response(outcomes, ServiceCall{}, /*packed=*/true);
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed.value().packed);
  ASSERT_EQ(parsed.value().outcomes.size(), 3u);
  EXPECT_TRUE(parsed.value().outcomes[0].outcome.ok());
  EXPECT_FALSE(parsed.value().outcomes[1].outcome.ok());
  EXPECT_TRUE(parsed.value().outcomes[2].outcome.ok());
  EXPECT_EQ(parsed.value().outcomes[2].outcome.value().field("k")->as_int(),
            9);
}

TEST(WireResponseTest, PackedPreservesArbitraryIds) {
  // The server may reorder; ids are authoritative.
  std::vector<IndexedOutcome> outcomes;
  outcomes.push_back({2, CallOutcome(Value("two"))});
  outcomes.push_back({0, CallOutcome(Value("zero"))});
  outcomes.push_back({1, CallOutcome(Value("one"))});
  auto parsed = round_trip_response(outcomes, ServiceCall{}, /*packed=*/true);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().outcomes[0].id, 2u);
  EXPECT_EQ(parsed.value().outcomes[1].id, 0u);
}

TEST(WireResponseTest, RejectsCallResponseWithoutId) {
  auto envelope = soap::Envelope::parse(soap::build_envelope(
      "<spi:Parallel_Response><spi:CallResponse><return "
      "xsi:type=\"xsd:int\">1</return></spi:CallResponse>"
      "</spi:Parallel_Response>"));
  ASSERT_TRUE(envelope.ok());
  EXPECT_FALSE(parse_response(envelope.value()).ok());
}

TEST(WireResponseTest, RejectsEntryWithoutReturnOrFault) {
  auto envelope = soap::Envelope::parse(soap::build_envelope(
      "<spi:Parallel_Response><spi:CallResponse id=\"0\"><junk/>"
      "</spi:CallResponse></spi:Parallel_Response>"));
  ASSERT_TRUE(envelope.ok());
  EXPECT_FALSE(parse_response(envelope.value()).ok());
}

TEST(WireResponseTest, BareFaultBodyParsesAsSingleFault) {
  soap::Fault fault;
  fault.faultstring = "top-level rejection";
  auto envelope = soap::Envelope::parse(soap::build_envelope(fault.to_xml()));
  ASSERT_TRUE(envelope.ok());
  auto parsed = parse_response(envelope.value());
  ASSERT_TRUE(parsed.ok());
  EXPECT_FALSE(parsed.value().packed);
  EXPECT_FALSE(parsed.value().outcomes[0].outcome.ok());
}

// Property: pack(unpack(x)) == x over randomized batches (DESIGN.md §5).
class WirePropertyTest : public ::testing::TestWithParam<size_t> {};

TEST_P(WirePropertyTest, PackedRequestRoundTripsAnyBatch) {
  SplitMix64 rng(0x31AE + GetParam());
  std::vector<ServiceCall> calls;
  for (size_t i = 0; i < GetParam(); ++i) {
    soap::Struct params;
    size_t n = rng.next_below(3);
    for (size_t p = 0; p < n; ++p) {
      params.emplace_back("p" + std::to_string(p),
                          Value(rng.ascii_string(rng.next_below(30))));
    }
    calls.push_back(make_call("Svc" + std::to_string(rng.next_below(4)),
                              "Op" + std::to_string(rng.next_below(4)),
                              std::move(params)));
  }
  auto parsed = round_trip_request(calls, /*packed=*/true);
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed.value().calls.size(), calls.size());
  for (size_t i = 0; i < calls.size(); ++i) {
    EXPECT_EQ(parsed.value().calls[i].call, calls[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(BatchSizes, WirePropertyTest,
                         ::testing::Values(1, 2, 3, 8, 32, 128));

}  // namespace
}  // namespace spi::core::wire
