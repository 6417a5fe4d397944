// In-process transport whose timing is governed by a SimLink (see
// simlink.hpp). Byte-accurate: everything the HTTP layer writes crosses a
// queue as real bytes, so parsers and assemblers do their real work — only
// the *waiting* is synthetic. One SimTransport instance = one network
// segment; all connections share its duplex link, like hosts on one
// Ethernet.
//
// Readiness model (DESIGN.md §2): nothing sleeps. A send reserves the
// link (SimLink::plan_send) and stamps its chunk with a delivery time;
// each pipe direction owns a timerfd on CLOCK_MONOTONIC (the clock
// steady_clock reads) armed for its head chunk's delivery time, so the
// connection's native_handle() polls readable exactly when bytes are due —
// the reactor drives simulated connections like sockets. Blocking
// receive() is poll-then-try_receive on the same fd. Listeners signal an
// eventfd per queued connection.
#pragma once

#include <map>
#include <memory>
#include <mutex>

#include "net/simlink.hpp"
#include "net/transport.hpp"

namespace spi::net {

namespace detail {
class SimListener;
struct SimListenerState;
}  // namespace detail

class SimTransport final : public Transport {
 public:
  explicit SimTransport(LinkParams params = LinkParams::instant());
  ~SimTransport() override;

  Result<std::unique_ptr<Listener>> listen(const Endpoint& at) override;

  /// Never blocks: the modeled handshake (LinkParams::connect_cost) becomes
  /// the connection's earliest send time instead of a sleep.
  Result<std::unique_ptr<Connection>> connect(const Endpoint& to) override;

  WireStats stats() const override { return stats_.snapshot(); }
  void reset_stats() override { stats_.reset(); }

  SimLink& link() { return link_; }

 private:
  friend class detail::SimListener;
  void unregister(const Endpoint& endpoint);

  SimLink link_;
  WireStatsCollector stats_;
  std::mutex registry_mutex_;
  std::map<Endpoint, std::shared_ptr<detail::SimListenerState>> listeners_;
};

}  // namespace spi::net
