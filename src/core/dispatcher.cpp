#include "core/dispatcher.hpp"

#include <algorithm>

#include "concurrency/wait_group.hpp"
#include "core/call_context.hpp"

namespace spi::core {

Result<soap::Envelope> Dispatcher::decode_envelope(
    const codec::WireCodec& codec, std::string_view wire,
    size_t decoded_budget, bool request) {
  const char* what = request ? "decode request" : "decode response";
  if (codec.decodes_to_document()) {
    auto document = codec.decode_document(wire, decoded_budget, parse_limits_);
    if (!document.ok()) return document.wrap_error(what);
    return soap::Envelope::from_document(std::move(document).value(),
                                         envelope_limits_);
  }
  // Identity parses the HTTP body where it lies: no copy on the path every
  // uncompressed exchange takes.
  std::string inflated;
  std::string_view text = wire;
  if (codec.name() != "identity") {
    auto plain = codec.decode(wire, decoded_budget);
    if (!plain.ok()) return plain.wrap_error(what);
    inflated = std::move(plain).value();
    text = inflated;
  }
  if (request) {
    // Pre-parse deadline shed (SEDA stage boundary 1): a bounded substring
    // scan over the text — if the client's budget is already spent,
    // answering DeadlineExceeded now beats paying the parse stage for an
    // answer nobody is waiting for.
    const TimePoint now = RealClock::instance().now();
    if (auto scanned = resilience::Deadline::scan(text, now);
        scanned && scanned->expired(now)) {
      return Error(ErrorCode::kDeadlineExceeded,
                   "deadline expired before parse stage");
    }
  }
  return soap::Envelope::parse(text, parse_limits_, envelope_limits_);
}

Result<wire::ParsedRequest> Dispatcher::parse_request(
    const codec::WireCodec& codec, std::string_view wire,
    size_t decoded_budget) {
  auto decoded = decode_envelope(codec, wire, decoded_budget, true);
  if (!decoded.ok()) return decoded.error();
  const soap::Envelope& envelope = decoded.value();
  if (verifier_) {
    const xml::Element* security = nullptr;
    for (const xml::Element* block : envelope.header_blocks) {
      if (block->local_name() == "Security") {
        security = block;
        break;
      }
    }
    if (!security) {
      return Error(ErrorCode::kInvalidArgument,
                   "wsse: request has no Security header");
    }
    if (Status verified = verifier_->verify(*security, soap::iso8601_now());
        !verified.ok()) {
      return verified.error();
    }
  }

  auto parsed = wire::parse_request(envelope);
  if (parsed.ok()) {
    envelopes_.fetch_add(1, std::memory_order_relaxed);
    if (parsed.value().packed) {
      packed_envelopes_.fetch_add(1, std::memory_order_relaxed);
      pack_cost_.charge(wire.size(), parsed.value().calls.size());
    }
    if (auto trace = telemetry::TraceContext::from_header_blocks(
            envelope.header_blocks)) {
      parsed.value().trace = std::move(*trace);
    }
    if (auto deadline = resilience::Deadline::from_header_blocks(
            envelope.header_blocks, RealClock::instance().now())) {
      parsed.value().deadline = *deadline;
    }
  }
  return parsed;
}

std::vector<IndexedOutcome> Dispatcher::execute(
    const wire::ParsedRequest& request, const ServiceRegistry& registry,
    ThreadPool* pool) {
  if (request.kind == wire::ParsedRequest::Kind::kPlan) {
    return execute_plan_request(request, registry, pool);
  }
  const size_t n = request.calls.size();
  // Only calls under the fan-out cap are ever handed to the application
  // stage; rejected ones show up in limit_rejected_calls instead.
  calls_dispatched_.fetch_add(std::min(n, envelope_limits_.max_fanout),
                              std::memory_order_relaxed);

  // Execute-stage deadline shed: checked per call at the moment a worker
  // picks it up, so a batch whose budget drains while earlier calls run
  // (or while queued behind a saturated pool) stops burning handler time.
  // The fault names the stage; RetryPolicy treats it as not-executed.
  auto shed_outcome = [&request]() -> std::optional<CallOutcome> {
    if (!request.deadline.expired(RealClock::instance().now())) {
      return std::nullopt;
    }
    return CallOutcome(Error(ErrorCode::kDeadlineExceeded,
                             "deadline expired before execute stage"));
  };

  // Fan-out cap (DESIGN.md §11): calls past max_fanout are answered with a
  // per-call CapacityExceeded fault — retryable-not-executed, so the client
  // re-packs just those — while siblings under the cap execute normally.
  // A whole-message rejection would punish the healthy calls too.
  const size_t fanout_cap = envelope_limits_.max_fanout;
  auto fanout_rejection = [this, n, fanout_cap]() -> CallOutcome {
    limit_rejected_calls_.fetch_add(1, std::memory_order_relaxed);
    return CallOutcome(Error(
        ErrorCode::kCapacityExceeded,
        "envelope limit exceeded: fan-out (" + std::to_string(n) + " > " +
            std::to_string(fanout_cap) + " calls)"));
  };

  std::vector<std::optional<CallOutcome>> slots(n);

  if (pool == nullptr) {
    // Coupled mode (Figure 1): everything runs on the protocol thread, so
    // one stack CallContext (and one scope install) serves every call —
    // handlers reach it through current_call_context().
    CallContext context;
    context.trace = request.trace;
    context.deadline = request.deadline;
    context.fanout = n;
    CallContextScope scope(context);
    for (size_t i = 0; i < n; ++i) {
      context.call_id = request.calls[i].id;
      context.service = request.calls[i].call.service;
      context.operation = request.calls[i].call.operation;
      if (i >= fanout_cap) {
        slots[i] = fanout_rejection();
        continue;
      }
      if (auto shed = shed_outcome()) {
        deadline_shed_.fetch_add(1, std::memory_order_relaxed);
        slots[i] = std::move(*shed);
        continue;
      }
      slots[i] = registry.invoke(request.calls[i].call);
    }
  } else {
    // Staged mode (Figure 2): one application-stage worker per call; the
    // protocol thread sleeps on the WaitGroup until the last one lands.
    // Each worker needs its own stable CallContext to install.
    std::vector<CallContext> contexts(n);
    for (size_t i = 0; i < n; ++i) {
      contexts[i].trace = request.trace;
      contexts[i].deadline = request.deadline;
      contexts[i].call_id = request.calls[i].id;
      contexts[i].fanout = n;
      contexts[i].service = request.calls[i].call.service;
      contexts[i].operation = request.calls[i].call.operation;
    }
    WaitGroup pending;
    pending.add(n);
    for (size_t i = 0; i < n; ++i) {
      if (i >= fanout_cap) {
        slots[i] = fanout_rejection();
        pending.done();
        continue;
      }
      const ServiceCall& call = request.calls[i].call;
      // try_submit, not submit: when the application queue is full the
      // protocol thread must not block on its sibling stage (SEDA
      // shed-don't-block) — the call is answered with a retryable
      // CapacityExceeded fault instead.
      bool accepted = pool->try_submit(
          [this, &registry, &call, &slots, &pending, &contexts, &shed_outcome,
           i] {
            CallContextScope scope(contexts[i]);
            if (auto shed = shed_outcome()) {
              deadline_shed_.fetch_add(1, std::memory_order_relaxed);
              slots[i] = std::move(*shed);
            } else {
              slots[i] = registry.invoke(call);
            }
            pending.done();
          });
      if (!accepted) {
        if (pool->accepting()) {
          queue_full_shed_.fetch_add(1, std::memory_order_relaxed);
          slots[i] = CallOutcome(Error(ErrorCode::kCapacityExceeded,
                                       "application stage queue is full"));
        } else {
          slots[i] = CallOutcome(
              Error(ErrorCode::kShutdown, "application stage is shut down"));
        }
        pending.done();
      }
    }
    pending.wait();
  }

  std::vector<IndexedOutcome> outcomes;
  outcomes.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    CallOutcome outcome = std::move(slots[i]).value_or(
        CallOutcome(Error(ErrorCode::kInternal, "call produced no outcome")));
    if (!outcome.ok()) {
      faults_produced_.fetch_add(1, std::memory_order_relaxed);
    }
    outcomes.push_back(IndexedOutcome{request.calls[i].id, std::move(outcome)});
  }
  return outcomes;
}

std::vector<IndexedOutcome> Dispatcher::execute_plan_request(
    const wire::ParsedRequest& request, const ServiceRegistry& registry,
    ThreadPool* pool) {
  const size_t n = request.plan.steps.size();

  // A plan is a dependency chain, so a step past the fan-out cap poisons
  // everything after it anyway — reject the whole plan with per-step
  // CapacityExceeded faults rather than running a prefix whose results
  // would be discarded.
  if (n > envelope_limits_.max_fanout) {
    limit_rejected_calls_.fetch_add(n, std::memory_order_relaxed);
    faults_produced_.fetch_add(n, std::memory_order_relaxed);
    std::vector<IndexedOutcome> rejected;
    rejected.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      rejected.push_back(IndexedOutcome{
          static_cast<std::uint32_t>(i),
          CallOutcome(Error(
              ErrorCode::kCapacityExceeded,
              "envelope limit exceeded: fan-out (" + std::to_string(n) +
                  " > " + std::to_string(envelope_limits_.max_fanout) +
                  " plan steps)"))});
    }
    return rejected;
  }
  calls_dispatched_.fetch_add(n, std::memory_order_relaxed);

  CallContext context;
  context.trace = request.trace;
  context.fanout = n;

  std::vector<IndexedOutcome> outcomes;
  if (pool == nullptr) {
    // Coupled mode: the chain runs on the protocol thread.
    CallContextScope scope(context);
    outcomes = execute_plan(request.plan, registry);
  } else {
    // Staged mode: a plan is inherently sequential, so it occupies ONE
    // application-stage worker; the protocol thread sleeps meanwhile.
    WaitGroup pending;
    pending.add(1);
    bool accepted = pool->try_submit([&] {
      CallContextScope scope(context);
      outcomes = execute_plan(request.plan, registry);
      pending.done();
    });
    if (!accepted) {
      Error refusal =
          pool->accepting()
              ? Error(ErrorCode::kCapacityExceeded,
                      "application stage queue is full")
              : Error(ErrorCode::kShutdown, "application stage is shut down");
      if (pool->accepting()) {
        queue_full_shed_.fetch_add(1, std::memory_order_relaxed);
      }
      for (size_t i = 0; i < n; ++i) {
        outcomes.push_back(IndexedOutcome{static_cast<std::uint32_t>(i),
                                          CallOutcome(refusal)});
      }
      pending.done();
    }
    pending.wait();
  }

  for (const IndexedOutcome& outcome : outcomes) {
    if (!outcome.outcome.ok()) {
      faults_produced_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return outcomes;
}

Result<wire::ParsedResponse> Dispatcher::parse_response(
    const codec::WireCodec& codec, std::string_view wire,
    size_t decoded_budget) {
  auto decoded = decode_envelope(codec, wire, decoded_budget, false);
  if (!decoded.ok()) return decoded.error();
  const soap::Envelope& envelope = decoded.value();
  auto parsed = wire::parse_response(envelope);
  if (parsed.ok()) {
    envelopes_.fetch_add(1, std::memory_order_relaxed);
    if (parsed.value().packed) {
      packed_envelopes_.fetch_add(1, std::memory_order_relaxed);
      pack_cost_.charge(wire.size(), parsed.value().outcomes.size());
    }
    if (auto trace = telemetry::TraceContext::from_header_blocks(
            envelope.header_blocks)) {
      parsed.value().trace = std::move(*trace);
    }
  }
  return parsed;
}

Result<std::vector<CallOutcome>> Dispatcher::route(
    wire::ParsedResponse response, size_t expected_calls) {
  // A message-level Fault (traditional single-Fault body answering a
  // packed request — e.g. a handler-chain veto or admission rejection)
  // applies to every call in the batch.
  if (!response.packed && response.outcomes.size() == 1 &&
      !response.outcomes.front().outcome.ok() && expected_calls != 1) {
    std::vector<CallOutcome> replicated;
    replicated.reserve(expected_calls);
    for (size_t i = 0; i < expected_calls; ++i) {
      replicated.push_back(response.outcomes.front().outcome);
    }
    return replicated;
  }
  if (response.outcomes.size() != expected_calls) {
    return Error(ErrorCode::kProtocolError,
                 "expected " + std::to_string(expected_calls) +
                     " responses, got " +
                     std::to_string(response.outcomes.size()));
  }
  std::vector<std::optional<CallOutcome>> slots(expected_calls);
  for (IndexedOutcome& indexed : response.outcomes) {
    if (indexed.id >= expected_calls) {
      return Error(ErrorCode::kProtocolError,
                   "response id " + std::to_string(indexed.id) +
                       " out of range");
    }
    if (slots[indexed.id].has_value()) {
      return Error(ErrorCode::kProtocolError,
                   "duplicate response id " + std::to_string(indexed.id));
    }
    slots[indexed.id] = std::move(indexed.outcome);
  }
  std::vector<CallOutcome> ordered;
  ordered.reserve(expected_calls);
  for (auto& slot : slots) {
    ordered.push_back(std::move(*slot));  // all present: counts matched
  }
  return ordered;
}

Dispatcher::Stats Dispatcher::stats() const {
  Stats s;
  s.envelopes = envelopes_.load(std::memory_order_relaxed);
  s.packed_envelopes = packed_envelopes_.load(std::memory_order_relaxed);
  s.calls_dispatched = calls_dispatched_.load(std::memory_order_relaxed);
  s.faults_produced = faults_produced_.load(std::memory_order_relaxed);
  s.deadline_shed = deadline_shed_.load(std::memory_order_relaxed);
  s.limit_rejected_calls =
      limit_rejected_calls_.load(std::memory_order_relaxed);
  s.queue_full_shed = queue_full_shed_.load(std::memory_order_relaxed);
  return s;
}

void Dispatcher::bind_metrics(telemetry::MetricsRegistry& registry,
                              std::string_view side) {
  std::string labels = "side=\"" + std::string(side) + "\"";
  auto view = [](const std::atomic<std::uint64_t>& counter) {
    return [&counter]() -> double {
      return static_cast<double>(counter.load(std::memory_order_relaxed));
    };
  };
  registry.add_callback("spi_dispatcher_envelopes_total",
                        "Envelopes parsed by the dispatcher",
                        telemetry::CallbackKind::kCounter, labels,
                        view(envelopes_));
  registry.add_callback("spi_dispatcher_packed_envelopes_total",
                        "Of which packed (Parallel_Method/Response)",
                        telemetry::CallbackKind::kCounter, labels,
                        view(packed_envelopes_));
  registry.add_callback("spi_dispatcher_calls_total",
                        "Calls fanned out to the application stage",
                        telemetry::CallbackKind::kCounter, labels,
                        view(calls_dispatched_));
  registry.add_callback("spi_dispatcher_faults_total",
                        "Per-call faults produced by handler execution",
                        telemetry::CallbackKind::kCounter, labels,
                        view(faults_produced_));
  registry.add_callback(
      "spi_dispatcher_fanout_rejected_calls_total",
      "Calls rejected with CapacityExceeded by the fan-out cap",
      telemetry::CallbackKind::kCounter, labels, view(limit_rejected_calls_));
  registry.add_callback(
      "spi_dispatcher_queue_full_shed_total",
      "Calls shed with CapacityExceeded because the application queue was "
      "full",
      telemetry::CallbackKind::kCounter, labels, view(queue_full_shed_));
}

}  // namespace spi::core
