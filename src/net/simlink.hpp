// SimLink — deterministic model of the paper's testbed
// (client and server hosts joined by a 100 Mbit Ethernet link).
//
// This is the documented substitution for the physical testbed (DESIGN.md
// §2). It models exactly the costs the paper's experiments exercise:
//
//   * per-connection setup  — TCP three-way handshake plus server-side
//     accept/dispatch, paid once per HTTP connection. Eliminating M-1 of
//     these is one of the two savings of the pack interface.
//   * per-message round trip — one propagation RTT per request/response.
//   * transmission time — bytes / bandwidth on a *shared* full-duplex
//     link: concurrent senders in the same direction serialize, exactly
//     like frames on one Ethernet segment. This is why "Multiple Threads"
//     overlaps latency but cannot exceed link bandwidth.
//   * endpoint processing — per-byte and per-message costs modeling the
//     2006 Java (Tomcat + Axis) serialization/deserialization stack, which
//     processed SOAP at tens of MB/s and burned milliseconds of CPU per
//     message. Crucially these are charged against CORE-LIMITED CPU pools
//     (client: 1 core — the P4; server: 2 cores — the dual Xeon), so 128
//     concurrent client threads cannot overlap 128 messages' worth of
//     serialization work, just as they could not on the testbed. Our C++
//     XML engine is 1-2 orders of magnitude faster than the Java stack,
//     so without this calibration the CPU/network cost ratio — and with it
//     the figures' crossovers — would be wrong.
//
// SimLink is a pure calculator: plan_send()/receive_wait() return
// durations and never sleep, so unit tests verify the arithmetic without
// waiting. SimTransport turns plans into delivery times that a per-pipe
// timerfd reports as readiness; nothing in the stack sleeps on them.
#pragma once

#include <cstdint>
#include <mutex>
#include <vector>

#include "common/clock.hpp"

namespace spi::net {

struct LinkParams {
  /// TCP connect handshake + server accept/connection dispatch (paid in
  /// connect()). Calibrated to the testbed's observed per-connection cost
  /// (Tomcat accept + socket setup), not raw LAN SYN/ACK latency.
  Duration connect_cost = std::chrono::microseconds(3000);

  /// Propagation round-trip time; each send contributes rtt/2.
  Duration rtt = std::chrono::microseconds(400);

  /// Link rate. 100 Mbit/s = 12.5e6 bytes/s, the paper's Ethernet.
  double bandwidth_bytes_per_sec = 12.5e6;

  /// Endpoint (Java-stack) processing cost per byte, charged to the
  /// sending/receiving host's CPU pool. 50 ns/byte ~= 20 MB/s per core.
  double endpoint_ns_per_byte = 50.0;

  /// Fixed per-message endpoint cost (HTTP parse, handler chain, SOAP
  /// envelope processing) — the dominant term that packing amortizes.
  /// Charged to the sender's CPU pool before transmission.
  Duration per_message_overhead = std::chrono::microseconds(2000);

  /// CPU pool widths: the testbed client was a single-core P4, the server
  /// a dual-processor Xeon.
  unsigned client_cores = 1;
  unsigned server_cores = 2;

  /// The paper's testbed parameters (defaults above).
  static LinkParams ethernet_100mbit() { return LinkParams{}; }

  /// Near-zero-cost link for functional tests (no artificial delays).
  static LinkParams instant();
};

/// Direction index on the duplex link.
enum class LinkDirection { kClientToServer = 0, kServerToClient = 1 };

/// Host side of the link.
enum class LinkSide { kClient = 0, kServer = 1 };

inline LinkSide sender_of(LinkDirection d) {
  return d == LinkDirection::kClientToServer ? LinkSide::kClient
                                             : LinkSide::kServer;
}
inline LinkSide receiver_of(LinkDirection d) {
  return d == LinkDirection::kClientToServer ? LinkSide::kServer
                                             : LinkSide::kClient;
}

class SimLink {
 public:
  explicit SimLink(LinkParams params);

  const LinkParams& params() const { return params_; }

  struct SendPlan {
    /// How long the send occupies the sender: CPU-pool queueing for
    /// serialization, then wire queueing + transmission (already part of
    /// deliver_after).
    Duration sender_block{0};
    /// When (relative to `now`) the bytes become readable at the receiver:
    /// transmission end + one-way propagation.
    Duration deliver_after{0};
  };

  /// Reserves CPU (sender side) and the wire (direction) for a message of
  /// `bytes`, starting no earlier than `now`. Thread-safe; same-direction
  /// wire reservations serialize (shared medium), same-side CPU
  /// reservations serialize beyond the core count.
  SendPlan plan_send(std::uint64_t bytes, TimePoint now,
                     LinkDirection direction);

  /// Reserves receiver-side CPU for deserializing `bytes` that arrived at
  /// `now`; returns how long after `now` the bytes become readable.
  Duration receive_wait(std::uint64_t bytes, TimePoint now,
                        LinkDirection direction);

  /// Connection-establishment delay (the client's first send waits it).
  Duration connect_delay() const { return params_.connect_cost; }

  /// Pure transmission time of `bytes` at link bandwidth (no queueing).
  Duration transmission_time(std::uint64_t bytes) const;

  /// Pure endpoint CPU cost for `bytes` (no queueing).
  Duration endpoint_cost(std::uint64_t bytes) const;

 private:
  /// Earliest-available-core reservation; returns completion time.
  TimePoint reserve_cpu_locked(LinkSide side, Duration cost, TimePoint now);

  LinkParams params_;
  std::mutex mutex_;
  TimePoint wire_busy_until_[2] = {};
  std::vector<TimePoint> cpu_busy_until_[2];  // [side][core]
};

}  // namespace spi::net
