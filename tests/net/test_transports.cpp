// Behavioural contract shared by SimTransport and TcpTransport, tested via
// a parameterized suite that reads both through blocking receive() and
// through the reactor path (try_receive on poller readiness), plus
// transport-specific cases.
#include <gtest/gtest.h>
#include <poll.h>

#include <atomic>
#include <thread>

#include "net/endpoint.hpp"
#include "net/poller.hpp"
#include "net/sim_transport.hpp"
#include "net/tcp_transport.hpp"

namespace spi::net {
namespace {

using namespace std::chrono_literals;

/// The reactor's way to read: wait for the connection's native_handle()
/// to poll readable, then drain with try_receive(). kTimeout if nothing
/// becomes readable within `patience`.
Result<std::string> receive_on_readiness(Connection& connection,
                                         size_t max_bytes,
                                         Duration patience = 10s) {
  auto poller = Poller::create();
  if (Status added = poller->add(connection.native_handle(), 1,
                                 Readiness::kRead);
      !added.ok()) {
    return added.error();
  }
  (void)connection.set_nonblocking(true);
  Result<std::string> out = Error(ErrorCode::kTimeout, "never readable");
  while (true) {
    out = connection.try_receive(max_bytes);
    if (out.ok() || out.error().code() != ErrorCode::kWouldBlock) break;
    PollEvent event;
    auto ready = poller->wait(&event, 1, patience);
    if (!ready.ok() || ready.value() == 0) {
      out = Error(ErrorCode::kTimeout, "never readable");
      break;
    }
  }
  (void)connection.set_nonblocking(false);
  (void)poller->remove(connection.native_handle());
  return out;
}

/// True when `fd` polls with any of `events` within `wait`.
bool polls(int fd, short events, Duration wait) {
  pollfd entry{fd, events, 0};
  const int ms = static_cast<int>(
      std::chrono::duration_cast<std::chrono::milliseconds>(wait).count());
  return ::poll(&entry, 1, ms) > 0 && (entry.revents & events) != 0;
}

// --- Endpoint ---------------------------------------------------------------

TEST(EndpointTest, ParsesHostPort) {
  auto endpoint = Endpoint::parse("example.org:8080");
  ASSERT_TRUE(endpoint.ok());
  EXPECT_EQ(endpoint.value().host, "example.org");
  EXPECT_EQ(endpoint.value().port, 8080);
  EXPECT_EQ(endpoint.value().to_string(), "example.org:8080");
}

TEST(EndpointTest, RejectsMalformed) {
  EXPECT_FALSE(Endpoint::parse("nohost").ok());
  EXPECT_FALSE(Endpoint::parse(":80").ok());
  EXPECT_FALSE(Endpoint::parse("h:").ok());
  EXPECT_FALSE(Endpoint::parse("h:99999").ok());
  EXPECT_FALSE(Endpoint::parse("h:abc").ok());
}

TEST(EndpointTest, Ordering) {
  EXPECT_EQ((Endpoint{"a", 1}), (Endpoint{"a", 1}));
  EXPECT_LT((Endpoint{"a", 1}), (Endpoint{"a", 2}));
  EXPECT_LT((Endpoint{"a", 9}), (Endpoint{"b", 1}));
}

// --- shared transport contract ----------------------------------------------

/// Factory abstraction so the same suite runs on both transports.
struct TransportFixture {
  virtual ~TransportFixture() = default;
  virtual Transport& transport() = 0;
  virtual Endpoint make_endpoint() = 0;
};

struct SimFixture : TransportFixture {
  SimTransport sim;
  int next_port = 1;
  Transport& transport() override { return sim; }
  Endpoint make_endpoint() override {
    return Endpoint{"host", static_cast<std::uint16_t>(next_port++)};
  }
};

struct TcpFixture : TransportFixture {
  TcpTransport tcp;
  Transport& transport() override { return tcp; }
  Endpoint make_endpoint() override { return Endpoint{"127.0.0.1", 0}; }
};

/// Param: "sim" / "tcp" read with blocking receive(); "sim_reactor" /
/// "tcp_reactor" read on poller readiness with try_receive().
class TransportContractTest
    : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    if (GetParam().starts_with("sim")) {
      fixture_ = std::make_unique<SimFixture>();
    } else {
      fixture_ = std::make_unique<TcpFixture>();
    }
    reactor_path_ = GetParam().ends_with("_reactor");
  }
  Transport& transport() { return fixture_->transport(); }
  Endpoint make_endpoint() { return fixture_->make_endpoint(); }
  bool sim() const { return GetParam().starts_with("sim"); }

  Result<std::string> receive(Connection& connection, size_t max_bytes) {
    return reactor_path_ ? receive_on_readiness(connection, max_bytes)
                         : connection.receive(max_bytes);
  }

  std::unique_ptr<TransportFixture> fixture_;
  bool reactor_path_ = false;
};

TEST_P(TransportContractTest, EchoRoundTrip) {
  auto listener = transport().listen(make_endpoint());
  ASSERT_TRUE(listener.ok()) << listener.error().to_string();
  Endpoint bound = listener.value()->endpoint();

  std::jthread server([&] {
    auto connection = listener.value()->accept();
    ASSERT_TRUE(connection.ok());
    auto data = receive(*connection.value(), 1024);
    ASSERT_TRUE(data.ok());
    ASSERT_TRUE(connection.value()->send("echo:" + data.value()).ok());
  });

  auto client = transport().connect(bound);
  ASSERT_TRUE(client.ok()) << client.error().to_string();
  ASSERT_TRUE(client.value()->send("ping").ok());
  std::string received;
  while (received.size() < 9) {
    auto chunk = receive(*client.value(), 1024);
    ASSERT_TRUE(chunk.ok()) << chunk.error().to_string();
    received += chunk.value();
  }
  EXPECT_EQ(received, "echo:ping");
}

TEST_P(TransportContractTest, LargeTransferArrivesIntact) {
  auto listener = transport().listen(make_endpoint());
  ASSERT_TRUE(listener.ok());
  const std::string payload(1'000'000, 'x');

  std::jthread server([&] {
    auto connection = listener.value()->accept();
    ASSERT_TRUE(connection.ok());
    std::string received;
    while (received.size() < payload.size()) {
      auto chunk = receive(*connection.value(), 64 * 1024);
      ASSERT_TRUE(chunk.ok());
      received += chunk.value();
    }
    EXPECT_EQ(received, payload);
    ASSERT_TRUE(connection.value()->send("done").ok());
  });

  auto client = transport().connect(listener.value()->endpoint());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client.value()->send(payload).ok());
  auto ack = receive(*client.value(), 16);
  ASSERT_TRUE(ack.ok());
  EXPECT_EQ(ack.value(), "done");
}

TEST_P(TransportContractTest, CloseSignalsPeer) {
  auto listener = transport().listen(make_endpoint());
  ASSERT_TRUE(listener.ok());

  std::jthread server([&] {
    auto connection = listener.value()->accept();
    ASSERT_TRUE(connection.ok());
    // Drain until close.
    while (true) {
      auto chunk = receive(*connection.value(), 1024);
      if (!chunk.ok()) {
        EXPECT_EQ(chunk.error().code(), ErrorCode::kConnectionClosed);
        break;
      }
    }
  });

  auto client = transport().connect(listener.value()->endpoint());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client.value()->send("bye").ok());
  client.value()->close();
}

TEST_P(TransportContractTest, ConnectToUnboundEndpointFails) {
  // For TCP, port 1 on loopback is assumed unbound (no root).
  Endpoint nowhere = sim() ? Endpoint{"ghost", 404}
                           : Endpoint{"127.0.0.1", 1};
  auto connection = transport().connect(nowhere);
  ASSERT_FALSE(connection.ok());
  EXPECT_EQ(connection.error().code(), ErrorCode::kConnectionFailed);
}

TEST_P(TransportContractTest, ListenerCloseUnblocksAccept) {
  auto listener = transport().listen(make_endpoint());
  ASSERT_TRUE(listener.ok());
  std::jthread closer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    listener.value()->close();
  });
  auto connection = listener.value()->accept();
  ASSERT_FALSE(connection.ok());
  EXPECT_EQ(connection.error().code(), ErrorCode::kShutdown);
}

TEST_P(TransportContractTest, StatsCountTraffic) {
  transport().reset_stats();
  auto listener = transport().listen(make_endpoint());
  ASSERT_TRUE(listener.ok());
  std::jthread server([&] {
    auto connection = listener.value()->accept();
    ASSERT_TRUE(connection.ok());
    (void)receive(*connection.value(), 1024);
  });
  auto client = transport().connect(listener.value()->endpoint());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client.value()->send("12345").ok());
  server.join();
  auto stats = transport().stats();
  EXPECT_EQ(stats.connections_opened, 1u);
  EXPECT_GE(stats.bytes_sent, 5u);
  EXPECT_GE(stats.bytes_received, 5u);
}

TEST_P(TransportContractTest, ReceiveZeroIsInvalid) {
  auto listener = transport().listen(make_endpoint());
  ASSERT_TRUE(listener.ok());
  std::jthread server([&] { (void)listener.value()->accept(); });
  auto client = transport().connect(listener.value()->endpoint());
  ASSERT_TRUE(client.ok());
  auto bad = reactor_path_ ? client.value()->try_receive(0)
                           : client.value()->receive(0);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().code(), ErrorCode::kInvalidArgument);
}

INSTANTIATE_TEST_SUITE_P(AllTransports, TransportContractTest,
                         ::testing::Values("sim", "tcp"),
                         [](const auto& info) { return info.param; });
INSTANTIATE_TEST_SUITE_P(ReadinessPath, TransportContractTest,
                         ::testing::Values("sim_reactor", "tcp_reactor"),
                         [](const auto& info) { return info.param; });

// --- sim-specific -------------------------------------------------------------

TEST(SimTransportTest, DoubleBindFails) {
  SimTransport transport;
  auto first = transport.listen(Endpoint{"h", 1});
  ASSERT_TRUE(first.ok());
  auto second = transport.listen(Endpoint{"h", 1});
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.error().code(), ErrorCode::kAlreadyExists);
}

TEST(SimTransportTest, EndpointReusableAfterListenerClose) {
  SimTransport transport;
  {
    auto listener = transport.listen(Endpoint{"h", 2});
    ASSERT_TRUE(listener.ok());
    listener.value()->close();
  }
  EXPECT_TRUE(transport.listen(Endpoint{"h", 2}).ok());
}

/// One echoed round trip of `payload` over a fresh SimTransport, timed
/// from before connect(); both ends read through blocking receive() or,
/// with `reactor_path`, on readiness. Returns the elapsed ms and the bytes
/// that came back.
std::pair<double, std::string> sim_round_trip(const LinkParams& params,
                                              const std::string& payload,
                                              bool reactor_path) {
  SimTransport transport(params);
  auto listener = transport.listen(Endpoint{"h", 3});
  EXPECT_TRUE(listener.ok());
  auto read_all = [&](Connection& connection) {
    std::string received;
    while (received.size() < payload.size()) {
      auto chunk = reactor_path ? receive_on_readiness(connection, 1 << 20)
                                : connection.receive(1 << 20);
      if (!chunk.ok()) break;
      received += chunk.value();
    }
    return received;
  };

  std::jthread server([&] {
    auto connection = listener.value()->accept();
    ASSERT_TRUE(connection.ok());
    std::string data = read_all(*connection.value());
    ASSERT_TRUE(connection.value()->send(data).ok());
  });

  Stopwatch stopwatch;
  auto client = transport.connect(listener.value()->endpoint());
  EXPECT_TRUE(client.ok());
  EXPECT_TRUE(client.value()->send(payload).ok());
  std::string reply = read_all(*client.value());
  return {stopwatch.elapsed_ms(), reply};
}

TEST(SimTransportTest, LinkDelaysApplyToTransfers) {
  LinkParams params = LinkParams::instant();
  params.rtt = std::chrono::milliseconds(10);
  // One full round trip: >= 2 * rtt/2 = 10 ms of modeled propagation.
  EXPECT_GE(sim_round_trip(params, "x", /*reactor_path=*/false).first, 9.0);
}

TEST(SimTransportTest, LinkDelaysApplyToTransfersOnReadinessPath) {
  LinkParams params = LinkParams::instant();
  params.rtt = std::chrono::milliseconds(10);
  EXPECT_GE(sim_round_trip(params, "x", /*reactor_path=*/true).first, 9.0);
}

TEST(SimTransportTest, BlockingAndReadinessPathsShowTheSameModel) {
  // Every SimLink term in play: handshake, sender CPU + per-message cost,
  // transmission, propagation, receiver CPU — in both directions.
  LinkParams params;
  params.connect_cost = 2ms;
  params.rtt = 4ms;
  params.bandwidth_bytes_per_sec = 12.5e6;
  params.endpoint_ns_per_byte = 50.0;
  params.per_message_overhead = 1ms;
  const std::string payload(10'000, 'p');
  // Per direction: 0.5 ms sender CPU + 1 ms per message + 0.8 ms on the
  // wire + 2 ms propagation + 0.5 ms receiver CPU = 4.8 ms; plus 2 ms of
  // handshake before the first byte leaves.
  const double modeled_ms = 2.0 + 2 * 4.8;

  auto [blocking_ms, blocking_bytes] =
      sim_round_trip(params, payload, /*reactor_path=*/false);
  auto [readiness_ms, readiness_bytes] =
      sim_round_trip(params, payload, /*reactor_path=*/true);
  EXPECT_EQ(blocking_bytes, payload);
  EXPECT_EQ(readiness_bytes, payload);
  // Delivery times are absolute timer deadlines, so neither path can beat
  // the model; both only add scheduling slack on top of it.
  EXPECT_GE(blocking_ms, modeled_ms - 0.05);
  EXPECT_GE(readiness_ms, modeled_ms - 0.05);
  EXPECT_LT(blocking_ms, modeled_ms + 25.0);
  EXPECT_LT(readiness_ms, modeled_ms + 25.0);
}

TEST(SimTransportTest, TrySendTakesEverythingWithoutWaiting) {
  // 1 MB at 1 MB/s is a one-second transmission — folded into the
  // delivery time, never into the sender. A short count or kWouldBlock
  // would strand the caller: a timerfd never polls writable.
  LinkParams params = LinkParams::instant();
  params.bandwidth_bytes_per_sec = 1e6;
  SimTransport transport(params);
  auto listener = transport.listen(Endpoint{"h", 5});
  ASSERT_TRUE(listener.ok());
  auto client = transport.connect(listener.value()->endpoint());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client.value()->set_nonblocking(true).ok());

  const std::string payload(1'000'000, 'w');
  Stopwatch stopwatch;
  for (int i = 0; i < 3; ++i) {
    auto sent = client.value()->try_send(payload);
    ASSERT_TRUE(sent.ok()) << sent.error().to_string();
    EXPECT_EQ(sent.value(), payload.size());
  }
  EXPECT_LT(stopwatch.elapsed_ms(), 500.0);
  EXPECT_FALSE(polls(client.value()->native_handle(), POLLOUT, 0ms));

  // The server end sees nothing before the modeled delivery time.
  auto server_end = listener.value()->try_accept();
  ASSERT_TRUE(server_end.ok());
  EXPECT_FALSE(polls(server_end.value()->native_handle(), POLLIN, 0ms));
  auto early = server_end.value()->try_receive(64);
  ASSERT_FALSE(early.ok());
  EXPECT_EQ(early.error().code(), ErrorCode::kWouldBlock);
}

TEST(SimTransportTest, ClosedPipePollsReadableAndReportsClosed) {
  SimTransport transport;
  auto listener = transport.listen(Endpoint{"h", 6});
  ASSERT_TRUE(listener.ok());
  // The listener's handle polls readable exactly while a dial is queued.
  EXPECT_FALSE(polls(listener.value()->native_handle(), POLLIN, 0ms));
  auto client = transport.connect(listener.value()->endpoint());
  ASSERT_TRUE(client.ok());
  EXPECT_TRUE(polls(listener.value()->native_handle(), POLLIN, 1s));
  auto server_end = listener.value()->try_accept();
  ASSERT_TRUE(server_end.ok());
  EXPECT_FALSE(polls(listener.value()->native_handle(), POLLIN, 0ms));

  Connection& server = *server_end.value();
  EXPECT_FALSE(polls(server.native_handle(), POLLIN, 0ms));
  auto idle = server.try_receive(64);
  ASSERT_FALSE(idle.ok());
  EXPECT_EQ(idle.error().code(), ErrorCode::kWouldBlock);

  // Bytes then FIN: the bytes drain first, then the pipe stays readable
  // and reports the close.
  ASSERT_TRUE(client.value()->send("last").ok());
  client.value()->close();
  ASSERT_TRUE(polls(server.native_handle(), POLLIN, 1s));
  auto data = server.try_receive(64);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data.value(), "last");
  for (int i = 0; i < 2; ++i) {
    EXPECT_TRUE(polls(server.native_handle(), POLLIN, 0ms));
    auto closed = server.try_receive(64);
    ASSERT_FALSE(closed.ok());
    EXPECT_EQ(closed.error().code(), ErrorCode::kConnectionClosed);
  }
}

TEST(SimTransportTest, SendOnClosedConnectionFails) {
  SimTransport transport;
  auto listener = transport.listen(Endpoint{"h", 4});
  ASSERT_TRUE(listener.ok());
  auto client = transport.connect(listener.value()->endpoint());
  ASSERT_TRUE(client.ok());
  client.value()->close();
  auto sent = client.value()->send("late");
  ASSERT_FALSE(sent.ok());
  EXPECT_EQ(sent.error().code(), ErrorCode::kConnectionClosed);
}

// --- tcp-specific --------------------------------------------------------------

TEST(TcpTransportTest, EphemeralPortResolved) {
  TcpTransport transport;
  auto listener = transport.listen(Endpoint{"127.0.0.1", 0});
  ASSERT_TRUE(listener.ok());
  EXPECT_NE(listener.value()->endpoint().port, 0);
}

TEST(TcpTransportTest, RejectsNonIpv4Host) {
  TcpTransport transport;
  auto listener = transport.listen(Endpoint{"not-an-ip", 0});
  ASSERT_FALSE(listener.ok());
  EXPECT_EQ(listener.error().code(), ErrorCode::kInvalidArgument);
}

TEST(TcpTransportTest, TrySendvGathersSegmentsInOrder) {
  TcpTransport transport;
  EXPECT_TRUE(transport.supports_reuse_port());
  auto listener = transport.listen(Endpoint{"127.0.0.1", 0});
  ASSERT_TRUE(listener.ok());

  std::jthread server([&] {
    auto accepted = listener.value()->accept();
    ASSERT_TRUE(accepted.ok());
    std::string received;
    while (received.size() < 11) {
      auto chunk = accepted.value()->receive(64);
      if (!chunk.ok()) break;
      received += chunk.value();
    }
    // Segments land concatenated in order, empties skipped.
    EXPECT_EQ(received, "HEAD|body|!");
    ASSERT_TRUE(accepted.value()->send("k").ok());
  });

  auto client = transport.connect(listener.value()->endpoint());
  ASSERT_TRUE(client.ok());
  EXPECT_TRUE(client.value()->supports_sendv());
  const std::string head = "HEAD|";
  const std::string body = "body|";
  ConstBuffer segments[4] = {{head.data(), head.size()},
                             {nullptr, 0},  // empty segments are skipped
                             {body.data(), body.size()},
                             {"!", 1}};
  // An idle loopback socket accepts 11 bytes whole; a short return here
  // would mean the gather itself is broken.
  auto sent = client.value()->try_sendv(segments, 4);
  ASSERT_TRUE(sent.ok()) << sent.error().to_string();
  ASSERT_EQ(sent.value(), 11u);
  auto ack = client.value()->receive(1);
  ASSERT_TRUE(ack.ok());

  // The gather is counted once in the wire stats, not per segment.
  EXPECT_EQ(transport.stats().bytes_sent, 12u);  // 11 + the server's "k"
}

TEST(TcpTransportTest, ReusePortListenersShareOneEndpoint) {
  TcpTransport transport;
  ListenOptions options;
  options.reuse_port = true;
  auto first = transport.listen(Endpoint{"127.0.0.1", 0}, options);
  ASSERT_TRUE(first.ok()) << first.error().to_string();
  const Endpoint endpoint = first.value()->endpoint();

  // Second listener binds the SAME resolved port: kernel accept sharding.
  auto second = transport.listen(endpoint, options);
  ASSERT_TRUE(second.ok()) << second.error().to_string();
  EXPECT_EQ(second.value()->endpoint().port, endpoint.port);

  // Connections land on exactly one of the two accept queues; with both
  // listeners drained by one thread each, every connect is served.
  std::atomic<int> accepted{0};
  auto drain = [&](Listener& listener) {
    while (true) {
      auto connection = listener.accept();
      if (!connection.ok()) return;  // kShutdown after close()
      accepted.fetch_add(1);
      ASSERT_TRUE(connection.value()->send("hi").ok());
    }
  };
  std::jthread a([&] { drain(*first.value()); });
  std::jthread b([&] { drain(*second.value()); });

  constexpr int kClients = 8;
  for (int i = 0; i < kClients; ++i) {
    auto client = transport.connect(endpoint);
    ASSERT_TRUE(client.ok());
    auto greeting = client.value()->receive(2);
    ASSERT_TRUE(greeting.ok()) << greeting.error().to_string();
  }
  EXPECT_EQ(accepted.load(), kClients);
  first.value()->close();
  second.value()->close();
}

TEST(TcpTransportTest, PlainListenRejectsSecondBind) {
  // Without reuse_port the second bind must still fail — the sharding
  // flag is opt-in, not ambient.
  TcpTransport transport;
  auto first = transport.listen(Endpoint{"127.0.0.1", 0});
  ASSERT_TRUE(first.ok());
  auto second = transport.listen(first.value()->endpoint());
  EXPECT_FALSE(second.ok());
}

}  // namespace
}  // namespace spi::net
