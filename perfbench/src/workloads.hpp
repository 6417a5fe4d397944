// The four closed-loop TCP workloads (README.md in this directory says why
// each exists) and the run that measures one of them: repeated set-up,
// a warm-up, then either the untraced end-to-end window or the traced
// per-layer ledger.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "ledger.hpp"

namespace perfbench {

struct WorkloadSpec {
  std::string_view name;
  std::size_t calls_per_exchange;  ///< M calls packed in one message
  std::size_t payload_bytes;       ///< per call
  bool text_payload;               ///< make_echo_calls_text, else random ASCII
  bool blocking;                   ///< Batch API on threads, no async runtime
  bool proxy;                      ///< client -> PackingProxy -> 2 backends
  std::string_view codec;          ///< request codec (and accepted coding)
};

std::span<const WorkloadSpec> all_workloads();
/// Null for an unknown name.
const WorkloadSpec* find_workload(std::string_view name);

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Complete deployments an untraced run builds (and, but for the last,
  /// tears down) to time set-up; setup_s is their median. Tests lower it.
  int setups = 61;
  /// Where a traced run writes one CSV row of spans per exchange; empty
  /// keeps them in memory only.
  std::string spans_path;
};

struct RunResult {
  std::uint64_t attempted_calls = 0;
  std::uint64_t failed_calls = 0;      ///< faulted, or echoed wrong data
  std::uint64_t mismatched_calls = 0;  ///< of those, echoed wrong data
  std::uint64_t exchanges = 0;         ///< in the measured window(s)
  MetricSet metrics;        ///< end-to-end, or per-layer when traced
  std::string environment;  ///< JSON object: the run's context
};

/// Runs `spec` over TCP loopback. Throws std::runtime_error when a server
/// or the proxy fails to start, the first exchange fails, or no exchange
/// completes in the measured window.
RunResult run_workload(const WorkloadSpec& spec, const RunOptions& options);

}  // namespace perfbench
