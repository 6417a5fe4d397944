// Async SPI client study (DESIGN.md §16): what one shared reactor runtime
// buys over a thread per caller, measured over real TCP loopback. Three
// cells:
//
//  * open-loop capacity — ONE submitting thread pushes 10,000 packed
//    calls into execute_packed_async without waiting; the reactor loop
//    thread carries every outstanding exchange. Blocking callers would
//    need one parked OS thread per outstanding call.
//  * closed-loop tail — 64 concurrent packed streams, async (one loop
//    thread, 64 logical streams) vs blocking (64 caller threads, each
//    client on its private runtime): p99 of the shared runtime must stay
//    within 2x of blocking — the capacity win may not cost the tail.
//  * hedged tail — a backend whose handler stalls on a small fraction of
//    calls (the "one slow server moment" tail). Hedging at p95 fires a
//    second idempotent attempt once the primary outlives the learned
//    quantile; the cell compares p99 hedged vs unhedged and reports the
//    hedge spend against the shared retry token budget.
//
// Environment overrides:
//   SPI_BENCH_outstanding  open-loop packed calls in flight (default 12000)
//   SPI_BENCH_messages     closed-loop packs per cell (default 3000)
//   SPI_BENCH_concurrency  closed-loop streams (default 64)
//   SPI_BENCH_tail_pct     percent of stalled handler calls (default 2)
//   SPI_BENCH_tail_ms      stall length, milliseconds (default 20)
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "benchsupport/harness.hpp"
#include "benchsupport/histogram.hpp"
#include "benchsupport/json_report.hpp"
#include "benchsupport/workload.hpp"
#include "core/server.hpp"
#include "http/async_client.hpp"
#include "net/tcp_transport.hpp"
#include "services/echo.hpp"

using namespace spi;
using namespace spi::bench;

namespace {

/// Echo + TailService deployment on TCP loopback. TailService/Get is
/// idempotent and sleeps `tail_ms` on every (100/tail_pct)-th invocation:
/// a deterministic tail, the same every run.
struct Deployment {
  net::TcpTransport transport;
  core::ServiceRegistry registry;
  std::unique_ptr<core::SpiServer> server;
  std::atomic<std::uint64_t> tail_calls{0};

  Deployment(std::int64_t tail_pct, std::int64_t tail_ms) {
    services::register_echo_service(registry);
    const std::uint64_t period =
        tail_pct > 0 ? static_cast<std::uint64_t>(100 / tail_pct) : 0;
    core::ServiceBinder(registry, "TailService")
        .bind_idempotent("Get", [this, period, tail_ms](const soap::Struct&)
                                    -> Result<soap::Value> {
          std::uint64_t n =
              tail_calls.fetch_add(1, std::memory_order_relaxed) + 1;
          if (period != 0 && n % period == 0) {
            std::this_thread::sleep_for(std::chrono::milliseconds(tail_ms));
            return soap::Value("slow");
          }
          return soap::Value("fast");
        });
    core::ServerOptions options;
    options.application_threads = 16;  // stalls must not starve the stage
    server = std::make_unique<core::SpiServer>(
        transport, net::Endpoint{"127.0.0.1", 0}, registry, options);
    if (!server->start().ok()) std::abort();
  }
  ~Deployment() { server->stop(); }
};

/// One async runtime: a reactor loop plus the shared AsyncHttpClient.
struct AsyncRuntime {
  Reactor reactor;
  std::unique_ptr<http::AsyncHttpClient> http;

  explicit AsyncRuntime(net::Transport& transport,
                        http::AsyncClientOptions options = {}) {
    reactor.start();
    http = std::make_unique<http::AsyncHttpClient>(reactor, transport,
                                                   std::move(options));
  }
};

core::ServiceCall echo_call(std::uint64_t seed) {
  return core::make_call(
      "EchoService", "Echo",
      {{"data", soap::Value("payload-" + std::to_string(seed))}});
}

// --- cell 1: open-loop capacity -------------------------------------------

struct OpenLoopResult {
  double wall_ms = 0;
  double throughput_cps = 0;
  std::uint64_t peak_outstanding = 0;
  std::uint64_t errors = 0;
};

OpenLoopResult run_open_loop(size_t outstanding) {
  Deployment deployment(/*tail_pct=*/0, /*tail_ms=*/0);
  http::AsyncClientOptions http_options;
  http_options.max_connections_per_endpoint = 64;
  http_options.max_pipeline_depth = 8;
  AsyncRuntime runtime(deployment.transport, http_options);

  core::ClientOptions options;
  options.async_client = runtime.http.get();
  core::SpiClient client(deployment.transport, deployment.server->endpoint(),
                         options);

  std::atomic<std::uint64_t> done{0}, errors{0}, peak{0};
  std::mutex mutex;
  std::condition_variable cv;

  Stopwatch wall;
  // ONE thread submits everything; nothing blocks until the final wait.
  for (size_t i = 0; i < outstanding; ++i) {
    std::vector<core::ServiceCall> calls;
    calls.push_back(echo_call(i));
    client.execute_packed_async(
        std::move(calls), core::PackMode::kPacked,
        [&](core::SpiClient::PackedResult result) {
          if (!result.ok() || !result.value()[0].ok()) {
            errors.fetch_add(1, std::memory_order_relaxed);
          }
          if (done.fetch_add(1, std::memory_order_relaxed) + 1 ==
              outstanding) {
            std::lock_guard lock(mutex);
            cv.notify_all();
          }
        });
    std::uint64_t inflight = client.stats().async_inflight;
    std::uint64_t seen = peak.load(std::memory_order_relaxed);
    while (inflight > seen &&
           !peak.compare_exchange_weak(seen, inflight)) {
    }
  }
  {
    std::unique_lock lock(mutex);
    cv.wait(lock, [&] { return done.load() == outstanding; });
  }

  OpenLoopResult result;
  result.wall_ms = wall.elapsed_ms();
  result.throughput_cps =
      static_cast<double>(outstanding) / (result.wall_ms / 1e3);
  result.peak_outstanding = peak.load();
  result.errors = errors.load();
  return result;
}

// --- cell 2: closed-loop tail, async vs blocking --------------------------

struct TailResult {
  double p50_ms = 0;
  double p99_ms = 0;
  double throughput_cps = 0;
  std::uint64_t errors = 0;
};

/// 64 blocking streams: the thread-per-caller baseline, one OS thread and
/// one client (its private runtime and keep-alive connection) per stream.
TailResult run_blocking_closed_loop(Deployment& deployment, size_t streams,
                                    size_t messages) {
  LatencyHistogram latency;
  std::mutex latency_mutex;
  std::atomic<std::uint64_t> errors{0};
  const size_t per_stream = messages / streams;

  Stopwatch wall;
  std::vector<std::thread> threads;
  threads.reserve(streams);
  for (size_t s = 0; s < streams; ++s) {
    threads.emplace_back([&, s] {
      core::ClientOptions options;
      options.keep_alive = true;
      core::SpiClient client(deployment.transport,
                             deployment.server->endpoint(), options);
      for (size_t i = 0; i < per_stream; ++i) {
        std::vector<core::ServiceCall> calls;
        calls.push_back(echo_call(s * 1000003 + i));
        Stopwatch watch;
        auto result = client.execute_packed(calls);
        double ms = watch.elapsed_ms();
        if (!result.ok() || !result.value()[0].ok()) {
          errors.fetch_add(1, std::memory_order_relaxed);
        }
        std::lock_guard lock(latency_mutex);
        latency.record_ms(ms);
      }
    });
  }
  for (auto& thread : threads) thread.join();

  TailResult result;
  double seconds = wall.elapsed_ms() / 1e3;
  result.p50_ms = latency.p50_us() / 1e3;
  result.p99_ms = latency.p99_us() / 1e3;
  result.throughput_cps = static_cast<double>(per_stream * streams) / seconds;
  result.errors = errors.load();
  return result;
}

/// The same 64 streams as LOGICAL streams on one async client: each
/// completion immediately issues the stream's next pack from the loop
/// thread. No thread ever parks on a response.
TailResult run_async_closed_loop(Deployment& deployment, size_t streams,
                                 size_t messages,
                                 const core::ClientOptions& base_options,
                                 core::SpiClient::Stats* stats_out = nullptr) {
  http::AsyncClientOptions http_options;
  http_options.max_connections_per_endpoint = streams;
  AsyncRuntime runtime(deployment.transport, http_options);
  core::ClientOptions client_options = base_options;
  client_options.keep_alive = true;
  client_options.async_client = runtime.http.get();
  core::SpiClient client(deployment.transport, deployment.server->endpoint(),
                         client_options);

  LatencyHistogram latency;
  std::mutex latency_mutex;
  std::atomic<std::uint64_t> errors{0}, completed{0};
  const size_t per_stream = messages / streams;
  const size_t total = per_stream * streams;
  std::mutex done_mutex;
  std::condition_variable done_cv;

  // Per-stream issue chain: completion of pack i issues pack i+1.
  struct Stream {
    size_t id = 0;
    size_t sent = 0;
  };
  auto issue = [&](auto&& self, std::shared_ptr<Stream> stream) -> void {
    std::vector<core::ServiceCall> calls;
    calls.push_back(echo_call(stream->id * 1000003 + stream->sent));
    ++stream->sent;
    auto watch = std::make_shared<Stopwatch>();
    client.execute_packed_async(
        std::move(calls), core::PackMode::kPacked,
        [&, self, stream, watch](core::SpiClient::PackedResult result) {
          double ms = watch->elapsed_ms();
          if (!result.ok() || !result.value()[0].ok()) {
            errors.fetch_add(1, std::memory_order_relaxed);
          }
          {
            std::lock_guard lock(latency_mutex);
            latency.record_ms(ms);
          }
          if (stream->sent < per_stream) {
            self(self, stream);
          }
          if (completed.fetch_add(1, std::memory_order_relaxed) + 1 ==
              total) {
            std::lock_guard lock(done_mutex);
            done_cv.notify_all();
          }
        });
  };

  Stopwatch wall;
  for (size_t s = 0; s < streams; ++s) {
    auto stream = std::make_shared<Stream>();
    stream->id = s;
    issue(issue, std::move(stream));
  }
  {
    std::unique_lock lock(done_mutex);
    done_cv.wait(lock, [&] { return completed.load() == total; });
  }

  TailResult result;
  double seconds = wall.elapsed_ms() / 1e3;
  result.p50_ms = latency.p50_us() / 1e3;
  result.p99_ms = latency.p99_us() / 1e3;
  result.throughput_cps = static_cast<double>(total) / seconds;
  result.errors = errors.load();
  if (stats_out != nullptr) *stats_out = client.stats();
  return result;
}

core::ServiceCall tail_call(std::uint64_t seed) {
  return core::make_call("TailService", "Get",
                         {{"key", soap::Value(std::to_string(seed))}});
}

/// Hedged-tail cell: same closed loop, TailService workload, hedging on
/// or off. Returns latency plus the client's hedge counters.
TailResult run_tail_cell(Deployment& deployment, size_t streams,
                         size_t messages, bool hedged,
                         core::SpiClient::Stats* stats_out) {
  core::ClientOptions options;
  options.retry.idempotent = [](std::string_view, std::string_view) {
    return true;  // TailService/Get is registered idempotent
  };
  if (hedged) {
    options.hedge.enabled = true;
    options.hedge.quantile = 0.95;
    options.hedge.min_delay = std::chrono::milliseconds(1);
    options.hedge.warmup = 50;
  }

  http::AsyncClientOptions http_options;
  http_options.max_connections_per_endpoint = streams * 2;  // hedge legs
  AsyncRuntime runtime(deployment.transport, http_options);
  options.keep_alive = true;
  options.async_client = runtime.http.get();
  core::SpiClient client(deployment.transport, deployment.server->endpoint(),
                         options);

  LatencyHistogram latency;
  std::mutex latency_mutex;
  std::atomic<std::uint64_t> errors{0}, completed{0};
  const size_t per_stream = messages / streams;
  const size_t total = per_stream * streams;
  std::mutex done_mutex;
  std::condition_variable done_cv;

  struct Stream {
    size_t id = 0;
    size_t sent = 0;
  };
  auto issue = [&](auto&& self, std::shared_ptr<Stream> stream) -> void {
    std::vector<core::ServiceCall> calls;
    calls.push_back(tail_call(stream->id * 1000003 + stream->sent));
    ++stream->sent;
    auto watch = std::make_shared<Stopwatch>();
    client.execute_packed_async(
        std::move(calls), core::PackMode::kPacked,
        [&, self, stream, watch](core::SpiClient::PackedResult result) {
          double ms = watch->elapsed_ms();
          if (!result.ok() || !result.value()[0].ok()) {
            errors.fetch_add(1, std::memory_order_relaxed);
          }
          {
            std::lock_guard lock(latency_mutex);
            latency.record_ms(ms);
          }
          if (stream->sent < per_stream) self(self, stream);
          if (completed.fetch_add(1, std::memory_order_relaxed) + 1 ==
              total) {
            std::lock_guard lock(done_mutex);
            done_cv.notify_all();
          }
        });
  };

  Stopwatch wall;
  for (size_t s = 0; s < streams; ++s) {
    auto stream = std::make_shared<Stream>();
    stream->id = s;
    issue(issue, std::move(stream));
  }
  {
    std::unique_lock lock(done_mutex);
    done_cv.wait(lock, [&] { return completed.load() == total; });
  }

  TailResult result;
  double seconds = wall.elapsed_ms() / 1e3;
  result.p50_ms = latency.p50_us() / 1e3;
  result.p99_ms = latency.p99_us() / 1e3;
  result.throughput_cps = static_cast<double>(total) / seconds;
  result.errors = errors.load();
  *stats_out = client.stats();
  return result;
}

}  // namespace

int main() {
  Config env = Config::from_env("SPI_BENCH_");
  const size_t outstanding =
      static_cast<size_t>(env.get_int_or("outstanding", 12000));
  const size_t messages =
      static_cast<size_t>(env.get_int_or("messages", 3000));
  const size_t concurrency =
      static_cast<size_t>(env.get_int_or("concurrency", 64));
  const std::int64_t tail_pct = env.get_int_or("tail_pct", 2);
  const std::int64_t tail_ms = env.get_int_or("tail_ms", 20);

  JsonReport report("async_client");
  report.set("outstanding", outstanding);
  report.set("messages", messages);
  report.set("concurrency", concurrency);
  report.set("tail_pct", tail_pct);
  report.set("tail_ms", tail_ms);

  // --- cell 1 --------------------------------------------------------------
  std::printf("=== Open loop: one submitting thread, %zu packed calls ===\n",
              outstanding);
  OpenLoopResult open = run_open_loop(outstanding);
  std::printf(
      "wall %.1f ms, %.0f calls/s, peak outstanding %llu, errors %llu\n\n",
      open.wall_ms, open.throughput_cps,
      static_cast<unsigned long long>(open.peak_outstanding),
      static_cast<unsigned long long>(open.errors));
  {
    JsonObject& row = report.add_row();
    row.set("cell", std::string("open-loop"));
    row.set("calls", outstanding);
    row.set("wall_ms", open.wall_ms);
    row.set("throughput_cps", open.throughput_cps);
    row.set("peak_outstanding", open.peak_outstanding);
    row.set("errors", open.errors);
  }

  // --- cell 2 --------------------------------------------------------------
  std::printf("=== Closed loop at concurrency %zu: async vs blocking ===\n",
              concurrency);
  Table table({"client", "streams", "p50 (ms)", "p99 (ms)", "calls/s",
               "errors"});
  Deployment echo_deployment(/*tail_pct=*/0, /*tail_ms=*/0);
  TailResult blocking = run_blocking_closed_loop(echo_deployment, concurrency,
                                                 messages);
  core::ClientOptions plain_options;
  TailResult async = run_async_closed_loop(echo_deployment, concurrency,
                                           messages, plain_options);
  table.add_row({"blocking", std::to_string(concurrency),
                 fmt_ms(blocking.p50_ms), fmt_ms(blocking.p99_ms),
                 fmt_ms(blocking.throughput_cps),
                 std::to_string(blocking.errors)});
  table.add_row({"async", std::to_string(concurrency), fmt_ms(async.p50_ms),
                 fmt_ms(async.p99_ms), fmt_ms(async.throughput_cps),
                 std::to_string(async.errors)});
  table.print();
  double p99_ratio =
      blocking.p99_ms > 0 ? async.p99_ms / blocking.p99_ms : 0.0;
  std::printf("async p99 / blocking p99 = %.2fx (target <= 2x)\n\n",
              p99_ratio);
  for (const auto& [label, cell] :
       {std::pair<const char*, TailResult&>{"blocking", blocking},
        std::pair<const char*, TailResult&>{"async", async}}) {
    JsonObject& row = report.add_row();
    row.set("cell", std::string("closed-loop"));
    row.set("client", std::string(label));
    row.set("streams", concurrency);
    row.set("p50_ms", cell.p50_ms);
    row.set("p99_ms", cell.p99_ms);
    row.set("throughput_cps", cell.throughput_cps);
    row.set("errors", cell.errors);
  }
  {
    JsonObject& row = report.add_row();
    row.set("cell", std::string("closed-loop-summary"));
    row.set("p99_ratio_async_vs_blocking", p99_ratio);
  }

  // --- cell 3 --------------------------------------------------------------
  std::printf(
      "=== Hedged tail: %lld%% of calls stall %lld ms; hedge at p95 ===\n",
      static_cast<long long>(tail_pct), static_cast<long long>(tail_ms));
  const size_t tail_streams = 8;
  core::SpiClient::Stats unhedged_stats, hedged_stats;
  Deployment tail_a(tail_pct, tail_ms);
  TailResult unhedged = run_tail_cell(tail_a, tail_streams, messages, false,
                                      &unhedged_stats);
  Deployment tail_b(tail_pct, tail_ms);
  TailResult hedged = run_tail_cell(tail_b, tail_streams, messages, true,
                                    &hedged_stats);
  Table tail_table({"mode", "p50 (ms)", "p99 (ms)", "hedges sent",
                    "hedges won", "errors"});
  tail_table.add_row({"unhedged", fmt_ms(unhedged.p50_ms),
                      fmt_ms(unhedged.p99_ms),
                      std::to_string(unhedged_stats.hedges_sent),
                      std::to_string(unhedged_stats.hedges_won),
                      std::to_string(unhedged.errors)});
  tail_table.add_row({"hedged", fmt_ms(hedged.p50_ms), fmt_ms(hedged.p99_ms),
                      std::to_string(hedged_stats.hedges_sent),
                      std::to_string(hedged_stats.hedges_won),
                      std::to_string(hedged.errors)});
  tail_table.print();
  std::printf(
      "hedging cut p99 %.2f ms -> %.2f ms; %llu hedges over %zu packs "
      "(budget-bounded), %llu won\n",
      unhedged.p99_ms, hedged.p99_ms,
      static_cast<unsigned long long>(hedged_stats.hedges_sent),
      (messages / tail_streams) * tail_streams,
      static_cast<unsigned long long>(hedged_stats.hedges_won));
  for (const auto& [label, cell, stats] :
       {std::tuple<const char*, TailResult&, core::SpiClient::Stats&>{
            "unhedged", unhedged, unhedged_stats},
        std::tuple<const char*, TailResult&, core::SpiClient::Stats&>{
            "hedged", hedged, hedged_stats}}) {
    JsonObject& row = report.add_row();
    row.set("cell", std::string("hedged-tail"));
    row.set("mode", std::string(label));
    row.set("p50_ms", cell.p50_ms);
    row.set("p99_ms", cell.p99_ms);
    row.set("throughput_cps", cell.throughput_cps);
    row.set("hedges_sent", stats.hedges_sent);
    row.set("hedges_won", stats.hedges_won);
    row.set("hedges_cancelled", stats.hedges_cancelled);
    row.set("retry_budget_left", stats.retry_budget);
    row.set("errors", cell.errors);
  }

  std::string path = report.write();
  if (!path.empty()) std::printf("\nJSON written to %s\n", path.c_str());
  return 0;
}
