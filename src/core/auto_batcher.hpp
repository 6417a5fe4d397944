// AutoBatcher — the paper's §5 future work, implemented: "we will develop
// automatic communication techniques in order not to modify the code on
// client side."
//
// Callers issue ordinary single calls (call_async); the batcher
// transparently coalesces calls that arrive close together into packed
// Parallel_Method messages. A background flusher ships a batch when it
// reaches `max_batch` calls or when the oldest pending call has waited
// `max_delay` — the classic batching latency/throughput dial. Application
// code never mentions packing.
#pragma once

#include <condition_variable>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "core/client.hpp"
#include "telemetry/metrics.hpp"

namespace spi::core {

class AutoBatcher {
 public:
  struct Options {
    /// Flush as soon as this many calls are pending.
    size_t max_batch = 16;
    /// Flush at latest this long after the oldest pending call arrived.
    Duration max_delay = std::chrono::milliseconds(1);
  };

  struct Stats {
    std::uint64_t calls = 0;
    std::uint64_t batches = 0;
    std::uint64_t full_flushes = 0;   // triggered by max_batch
    std::uint64_t timer_flushes = 0;  // triggered by max_delay / flush()
    size_t largest_batch = 0;
  };

  /// The client is borrowed and must outlive the batcher.
  AutoBatcher(SpiClient& client, Options options);

  /// Flushes pending calls and joins the flusher thread.
  ~AutoBatcher();

  AutoBatcher(const AutoBatcher&) = delete;
  AutoBatcher& operator=(const AutoBatcher&) = delete;

  /// Issues one call; it will travel in whatever packed message the
  /// batcher forms. Throws SpiError(kShutdown) after shutdown().
  std::future<CallOutcome> call_async(ServiceCall call);
  std::future<CallOutcome> call_async(std::string service,
                                      std::string operation,
                                      soap::Struct params = {});

  /// Ships everything pending now (blocks until the wire exchange done).
  void flush();

  /// Stops accepting calls, flushes, joins. Idempotent (destructor calls
  /// it too).
  void shutdown();

  Stats stats() const;
  size_t pending() const;

  /// Registers scrape-time views (spi_batcher_*) into `registry`. The
  /// batcher must outlive the registry's last scrape.
  void bind_metrics(telemetry::MetricsRegistry& registry);

 private:
  struct PendingCall {
    ServiceCall call;
    std::promise<CallOutcome> promise;
  };

  void flusher_loop();
  /// Ships one batch on execute_packed_async — the flusher thread is free
  /// to form the NEXT batch while this one is on the wire, instead of
  /// blocking for the round trip; completion lands on the client
  /// runtime's loop thread.
  void send_batch(std::vector<PendingCall> batch, bool timer_triggered);
  /// Fulfils one shipped batch's promises (values, per-call faults, or a
  /// message-level error replicated into every slot) and counts it.
  void complete_batch(std::vector<PendingCall>& batch, bool timer_triggered,
                      Result<std::vector<CallOutcome>> result);

  SpiClient& client_;
  Options options_;

  mutable std::mutex mutex_;
  std::condition_variable wake_;
  std::vector<PendingCall> pending_;
  TimePoint oldest_enqueue_time_{};
  bool shutdown_ = false;
  std::uint64_t flush_generation_ = 0;  // flush() rendezvous
  std::uint64_t flushed_generation_ = 0;
  std::condition_variable flush_done_;
  /// Async batches on the wire (issued, completion not yet fired).
  /// flush()/shutdown() wait for zero so "flushed" keeps meaning "the
  /// exchange finished", not "the exchange was started".
  size_t outstanding_async_ = 0;

  Stats stats_;
  std::jthread flusher_;
};

}  // namespace spi::core
