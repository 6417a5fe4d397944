// Fault-injecting transport decorator — promoted from the test-support
// tree into a product component so benches, examples, and chaos CI can
// inject deterministic faults against release builds (DESIGN.md §10).
// Wraps any inner Transport and perturbs its connections two ways:
//
//   * counted, exactly-placed faults (the original failure-injection
//     suite's knobs): refuse the next N connects, sever a connection's
//     outbound stream after exactly B bytes, flip one bit at absolute
//     offset O;
//   * seeded probabilistic faults for chaos runs: per-connection draws
//     from a SplitMix64 stream decide refusal, a sever point and a corrupt
//     point. Equal seeds give equal fault schedules, so a chaos bench or
//     CI shard reproduces bit-for-bit.
//
// Faults are injected on the DECORATED side only (the side that built the
// FaultyTransport — conventionally the client); listen() passes through.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>

#include "common/random.hpp"
#include "net/transport.hpp"
#include "telemetry/metrics.hpp"

namespace spi::net {

struct FaultPlan {
  static constexpr size_t npos = static_cast<size_t>(-1);

  // --- counted / exactly-placed faults ---------------------------------
  /// Fail the next `refuse_connects` connect() calls.
  int refuse_connects = 0;
  /// Sever each connection's outbound stream after this many bytes
  /// (0 = never). The peer sees a clean close mid-message.
  size_t sever_after_bytes = 0;
  /// Flip the lowest bit of the byte at this absolute outbound offset
  /// (npos = never). Corrupts exactly one byte of one connection.
  size_t corrupt_at = npos;

  // --- seeded probabilistic faults (chaos mode) ------------------------
  /// Per-connection probability of a refused connect.
  double refuse_rate = 0.0;
  /// Per-connection probability that the outbound stream is severed at a
  /// uniformly random offset in [1, fault_window_bytes].
  double sever_rate = 0.0;
  /// Per-connection probability of a single corrupted byte, offset
  /// uniform in [0, fault_window_bytes).
  double corrupt_rate = 0.0;
  /// Offset window the probabilistic sever/corrupt points are drawn from;
  /// sized to land inside a typical request (headers + small body).
  size_t fault_window_bytes = 2048;
  /// Seed for the per-connection fault stream.
  std::uint64_t seed = 0x5eed;

  /// Any probabilistic fault configured?
  bool chaotic() const {
    return refuse_rate > 0 || sever_rate > 0 || corrupt_rate > 0;
  }
};

/// What the plan actually injected (chaos benches report these alongside
/// goodput; CI asserts the run exercised what it claims to).
struct FaultStats {
  std::uint64_t connects = 0;   // connect() calls seen
  std::uint64_t refusals = 0;   // injected connect failures
  std::uint64_t severs = 0;     // connections severed mid-stream
  std::uint64_t corruptions = 0;
};

class FaultyTransport final : public Transport {
 public:
  /// `inner` is borrowed and must outlive this decorator.
  FaultyTransport(Transport& inner, FaultPlan plan);

  Result<std::unique_ptr<Listener>> listen(const Endpoint& at) override;
  Result<std::unique_ptr<Connection>> connect(const Endpoint& to) override;

  /// Non-blocking dials get the same refusal draw and per-connection fault
  /// schedule; the decorated connection passes readiness I/O through with
  /// sever/corrupt applied in try_send.
  Result<AsyncConnect> connect_nonblocking(const Endpoint& to) override;

  WireStats stats() const override { return inner_.stats(); }
  void reset_stats() override { inner_.reset_stats(); }

  FaultStats fault_stats() const;

  /// Registers scrape-time views (spi_fault_injected_total{kind=...}) so
  /// chaos deployments can see injected faults next to server metrics.
  void bind_metrics(telemetry::MetricsRegistry& registry);

 private:
  /// Faults decided for one connection at connect() time.
  struct ConnectionFaults {
    size_t sever_at = 0;            // 0 = never
    size_t corrupt_at = FaultPlan::npos;
  };

  class FaultyConnection;

  bool draw_refusal();
  ConnectionFaults draw_connection_faults();

  Transport& inner_;
  FaultPlan plan_;
  std::atomic<int> refused_{0};
  std::mutex rng_mutex_;
  SplitMix64 rng_;

  std::atomic<std::uint64_t> connects_{0};
  std::atomic<std::uint64_t> refusals_{0};
  std::atomic<std::uint64_t> severs_{0};
  std::atomic<std::uint64_t> corruptions_{0};
};

}  // namespace spi::net
