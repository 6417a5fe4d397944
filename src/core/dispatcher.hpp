// Dispatcher (paper §3.5): the inverse of the Assembler. On the server it
// extracts the M request payloads from one SOAP message and triggers M
// worker threads from the application stage pool; on the client it
// extracts the M response payloads and routes each back to the caller that
// issued it (by call id, tolerant of server-side reordering).
#pragma once

#include <atomic>
#include <optional>

#include "codec/wire_codec.hpp"
#include "concurrency/thread_pool.hpp"
#include "core/pack_cost.hpp"
#include "core/registry.hpp"
#include "core/wire.hpp"
#include "soap/wsse.hpp"
#include "telemetry/metrics.hpp"

namespace spi::core {

class Dispatcher {
 public:
  struct Stats {
    std::uint64_t envelopes = 0;
    std::uint64_t packed_envelopes = 0;
    std::uint64_t calls_dispatched = 0;
    std::uint64_t faults_produced = 0;
    /// Calls answered with a DeadlineExceeded fault at the execute-stage
    /// boundary instead of being invoked (resilience/deadline.hpp).
    std::uint64_t deadline_shed = 0;
    /// Calls answered with a CapacityExceeded fault because their index
    /// exceeded EnvelopeLimits::max_fanout — siblings under the cap still
    /// ran (DESIGN.md §11).
    std::uint64_t limit_rejected_calls = 0;
    /// Calls answered with a retryable CapacityExceeded fault because the
    /// application stage's bounded queue was full at submit time
    /// (shed-don't-block).
    std::uint64_t queue_full_shed = 0;
  };

  /// `verifier` (optional, unowned): when set, every inbound request
  /// envelope must carry a valid wsse:Security header. `pack_cost` models
  /// the testbed's packed-envelope parse overhead (pack_cost.hpp).
  explicit Dispatcher(soap::WsseVerifier* verifier = nullptr,
                      PackCostModel pack_cost = {})
      : verifier_(verifier), pack_cost_(pack_cost) {}

  /// Installs the resource-governance bounds (DESIGN.md §11). Parse limits
  /// bound the tokenizer on every parse path; envelope limits bound message
  /// shape. max_fanout is enforced per call in execute() — over-cap slots
  /// get a CapacityExceeded fault while siblings under the cap still run.
  void set_limits(const xml::ParseLimits& parse_limits,
                  const soap::EnvelopeLimits& envelope_limits) {
    parse_limits_ = parse_limits;
    envelope_limits_ = envelope_limits;
  }

  /// Server side, step 1: the inbound codec boundary. Turns a request body
  /// as it came off the wire, in `codec`'s encoding, into the validated
  /// request — the one place the codec decision is made:
  ///   * identity parses `wire` in place;
  ///   * a text codec (deflate) inflates it under `decoded_budget`, then
  ///     parses the text;
  ///   * a document codec (bxml) decodes straight to a DOM.
  /// Text bodies are first scanned for an spi:Deadline that has already
  /// passed: such a request fails with kDeadlineExceeded before the parse
  /// stage pays for it (bxml's deadline is enforced at the execute stage).
  /// A packed request is charged the pack cost once, at wire.size().
  Result<wire::ParsedRequest> parse_request(const codec::WireCodec& codec,
                                            std::string_view wire,
                                            size_t decoded_budget);

  /// Identity shorthand: a text envelope parsed in place.
  Result<wire::ParsedRequest> parse_request(std::string_view envelope_xml) {
    return parse_request(codec::identity_codec(), envelope_xml, 0);
  }

  /// Server side, step 2: fan the calls out to `pool` worker threads, wait
  /// for all of them (WaitGroup fan-in), and return outcomes in request
  /// order. When `pool` is null the calls run inline on the calling
  /// (protocol) thread — the paper's Figure 1 coupled architecture, kept
  /// for the staged-pool ablation bench.
  std::vector<IndexedOutcome> execute(const wire::ParsedRequest& request,
                                      const ServiceRegistry& registry,
                                      ThreadPool* pool);

  /// Client side, step 1: the response twin of the codec entry above
  /// (same three codec paths and wire-size pack-cost charge; responses
  /// carry no deadline to scan).
  Result<wire::ParsedResponse> parse_response(const codec::WireCodec& codec,
                                              std::string_view wire,
                                              size_t decoded_budget);

  /// Identity shorthand: a text envelope parsed in place.
  Result<wire::ParsedResponse> parse_response(std::string_view envelope_xml) {
    return parse_response(codec::identity_codec(), envelope_xml, 0);
  }

  /// Client side, step 2: route outcomes back into request order.
  /// Validates that ids form exactly {0..expected_calls-1}; a missing or
  /// duplicated id is a protocol error (a caller must never wait forever
  /// on a response the server dropped).
  Result<std::vector<CallOutcome>> route(wire::ParsedResponse response,
                                         size_t expected_calls);

  Stats stats() const;

  /// Registers scrape-time views of this dispatcher's counters into
  /// `registry` (spi_dispatcher_*_total{side=...}). The dispatcher must
  /// outlive the registry's last scrape.
  void bind_metrics(telemetry::MetricsRegistry& registry,
                    std::string_view side);

 private:
  std::vector<IndexedOutcome> execute_plan_request(
      const wire::ParsedRequest& request, const ServiceRegistry& registry,
      ThreadPool* pool);

  /// Decodes `wire` per `codec` into an envelope under this dispatcher's
  /// limits; `request` selects the pre-parse deadline scan and the
  /// direction named in decode errors.
  Result<soap::Envelope> decode_envelope(const codec::WireCodec& codec,
                                         std::string_view wire,
                                         size_t decoded_budget, bool request);

  soap::WsseVerifier* verifier_;
  PackCostModel pack_cost_;
  xml::ParseLimits parse_limits_;
  soap::EnvelopeLimits envelope_limits_;
  std::atomic<std::uint64_t> envelopes_{0};
  std::atomic<std::uint64_t> packed_envelopes_{0};
  std::atomic<std::uint64_t> calls_dispatched_{0};
  std::atomic<std::uint64_t> faults_produced_{0};
  std::atomic<std::uint64_t> deadline_shed_{0};
  std::atomic<std::uint64_t> limit_rejected_calls_{0};
  std::atomic<std::uint64_t> queue_full_shed_{0};
};

}  // namespace spi::core
