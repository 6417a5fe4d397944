#include "core/assembler.hpp"

#include "resilience/deadline.hpp"
#include "telemetry/trace.hpp"

namespace spi::core {

namespace {

/// One Writer per thread, reused across messages: after the first few
/// envelopes its buffers reach high-water capacity and the pack path does
/// no per-message allocation beyond the returned envelope string.
/// thread_local because an Assembler is shared across client threads.
xml::Writer& scratch_writer(size_t capacity_hint) {
  thread_local xml::Writer writer;
  writer.reset();
  writer.reserve(capacity_hint);
  return writer;
}

}  // namespace

std::string Assembler::finish_envelope(std::string_view body_inner) {
  envelopes_.fetch_add(1, std::memory_order_relaxed);
  // The thread's active trace (telemetry/trace.hpp) rides along as a
  // spi:Trace header block: clients inject it, servers echo it.
  const telemetry::TraceContext* trace = telemetry::current_trace();
  if (trace && !trace->valid()) trace = nullptr;
  // Likewise the thread's active deadline (resilience/deadline.hpp): the
  // remaining budget travels as a spi:Deadline header block so the server
  // can shed work nobody is waiting for. to_header_block() is empty when
  // there is no deadline to ship.
  std::string deadline_header;
  if (const resilience::Deadline* deadline = resilience::current_deadline()) {
    deadline_header =
        deadline->to_header_block(RealClock::instance().now());
  }
  if (wsse_ || trace || !deadline_header.empty()) {
    std::vector<std::string> headers;
    if (wsse_) {
      headers.push_back(wsse_->make_header_block(soap::iso8601_now()));
    }
    if (trace) headers.push_back(trace->to_header_block());
    if (!deadline_header.empty()) {
      headers.push_back(std::move(deadline_header));
    }
    return soap::build_envelope(body_inner, headers);
  }
  return soap::build_envelope(body_inner);
}

std::string Assembler::assemble_request(std::span<const ServiceCall> calls,
                                        PackMode mode) {
  if (calls.empty()) {
    throw SpiError(ErrorCode::kInvalidArgument, "empty call batch");
  }
  if (mode == PackMode::kSingle && calls.size() > 1) {
    throw SpiError(ErrorCode::kInvalidArgument,
                   "PackMode::kSingle with a multi-call batch");
  }

  calls_.fetch_add(calls.size(), std::memory_order_relaxed);
  if (packs(mode, calls.size())) {
    packed_envelopes_.fetch_add(1, std::memory_order_relaxed);
    xml::Writer& writer = scratch_writer(wire::estimate_request_bytes(calls));
    wire::write_packed_request(writer, calls);
    return finish_envelope(writer.str());
  }
  xml::Writer& writer =
      scratch_writer(wire::estimate_request_bytes(calls.subspan(0, 1)));
  wire::write_single_request(writer, calls.front());
  return finish_envelope(writer.str());
}

std::string Assembler::assemble_plan(const RemotePlan& plan) {
  if (Status valid = plan.validate(); !valid.ok()) {
    throw SpiError(valid.error());
  }
  calls_.fetch_add(plan.steps.size(), std::memory_order_relaxed);
  packed_envelopes_.fetch_add(1, std::memory_order_relaxed);
  return finish_envelope(wire::serialize_plan_request(plan));
}

std::string Assembler::assemble_response(
    std::span<const IndexedOutcome> outcomes, const ServiceCall& single_call,
    bool packed) {
  if (outcomes.empty()) {
    throw SpiError(ErrorCode::kInvalidArgument, "empty outcome batch");
  }
  calls_.fetch_add(outcomes.size(), std::memory_order_relaxed);
  if (packed) {
    packed_envelopes_.fetch_add(1, std::memory_order_relaxed);
    xml::Writer& writer =
        scratch_writer(wire::estimate_response_bytes(outcomes));
    wire::write_packed_response(writer, outcomes);
    return finish_envelope(writer.str());
  }
  if (outcomes.size() != 1) {
    throw SpiError(ErrorCode::kInvalidArgument,
                   "traditional response with multiple outcomes");
  }
  xml::Writer& writer =
      scratch_writer(wire::estimate_response_bytes(outcomes.subspan(0, 1)));
  wire::write_single_response(writer, single_call, outcomes.front().outcome);
  return finish_envelope(writer.str());
}

Assembler::Stats Assembler::stats() const {
  Stats s;
  s.envelopes = envelopes_.load(std::memory_order_relaxed);
  s.packed_envelopes = packed_envelopes_.load(std::memory_order_relaxed);
  s.calls = calls_.load(std::memory_order_relaxed);
  return s;
}

void Assembler::bind_metrics(telemetry::MetricsRegistry& registry,
                             std::string_view side) {
  std::string labels = "side=\"" + std::string(side) + "\"";
  auto view = [](const std::atomic<std::uint64_t>& counter) {
    return [&counter]() -> double {
      return static_cast<double>(counter.load(std::memory_order_relaxed));
    };
  };
  registry.add_callback("spi_assembler_envelopes_total",
                        "Envelopes assembled",
                        telemetry::CallbackKind::kCounter, labels,
                        view(envelopes_));
  registry.add_callback("spi_assembler_packed_envelopes_total",
                        "Of which packed (Parallel_Method/Response)",
                        telemetry::CallbackKind::kCounter, labels,
                        view(packed_envelopes_));
  registry.add_callback("spi_assembler_calls_total",
                        "Call payloads carried in assembled envelopes",
                        telemetry::CallbackKind::kCounter, labels,
                        view(calls_));
}

}  // namespace spi::core
