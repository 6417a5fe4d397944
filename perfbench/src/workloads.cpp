#include "workloads.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <future>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "benchsupport/workload.hpp"
#include "codec/registry.hpp"
#include "common/random.hpp"
#include "concurrency/reactor.hpp"
#include "core/client.hpp"
#include "core/server.hpp"
#include "http/async_client.hpp"
#include "http/client.hpp"
#include "net/tcp_transport.hpp"
#include "proxy/proxy.hpp"
#include "services/echo.hpp"
#include "telemetry/trace.hpp"

namespace perfbench {
namespace {

using namespace spi;
using SteadyClock = std::chrono::steady_clock;
using Pack = std::vector<core::ServiceCall>;
using PackedResult = core::SpiClient::PackedResult;

constexpr WorkloadSpec kWorkloads[] = {
    {"pack16_async", 16, 100, false, false, false, "identity"},
    {"batch4_blocking", 4, 100, false, true, false, "identity"},
    {"pack4_text_deflate", 4, 4096, true, false, false, "deflate"},
    {"proxy_scatter_k2", 16, 100, false, false, true, "identity"},
};

// Load shape, the same on every workload: two closed-loop streams, one
// client reactor loop (async workloads), small server and proxy pools.
constexpr std::size_t kStreams = 2;
constexpr std::size_t kPacksPerStream = 32;
constexpr std::size_t kReactorThreads = 1;
constexpr std::size_t kProtocolThreads = 2;
constexpr std::size_t kApplicationThreads = 2;
constexpr std::size_t kProxyBackends = 2;
constexpr auto kReceiveTimeout = std::chrono::seconds(10);
// The end-to-end window is cut into slices. On a virtual machine shared
// with other tenants, when the hypervisor runs them instead of us (steal
// time), a closed loop of hand-offs between threads slows two- to
// three-fold for seconds at a time. The timings are therefore taken over
// the slices with the least steal (choose_quiet_slices). When those hold
// too few exchanges for p99, the window grows slice by slice, by at most
// kMaxExtraSeconds, and the run fails if they still do.
constexpr double kSliceSeconds = 0.5;
constexpr double kWarmupSeconds = 0.5;
constexpr double kMaxExtraSeconds = 30;
// Each timed set-up starts from a process that has been idle for a moment,
// as a real start does, rather than straight after the previous teardown.
constexpr auto kSetupGap = std::chrono::milliseconds(20);

double seconds_between(SteadyClock::time_point from,
                       SteadyClock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

/// Host-wide CPU time in clock ticks, from /proc/stat (zero where absent).
struct HostCpu {
  std::uint64_t steal = 0;
  std::uint64_t busy = 0;  ///< every tick but idle and iowait
};

HostCpu read_host_cpu() {
  std::ifstream stat("/proc/stat");
  std::string label;
  stat >> label;
  HostCpu cpu;
  if (label != "cpu") return cpu;
  // user nice system idle iowait irq softirq steal
  for (int field = 0; field < 8; ++field) {
    std::uint64_t ticks = 0;
    if (!(stat >> ticks)) return HostCpu{};
    if (field != 3 && field != 4) cpu.busy += ticks;
    if (field == 7) cpu.steal = ticks;
  }
  return cpu;
}

/// Share of the ticks the guest wanted to run that the host gave to other
/// tenants. Normalised by busy rather than all ticks, so a slice in which
/// the program itself wanted more CPU does not for that alone read as
/// noisier.
double steal_share(const HostCpu& before, const HostCpu& after) {
  const std::uint64_t busy = after.busy - before.busy;
  return busy == 0 ? 0.0
                   : static_cast<double>(after.steal - before.steal) /
                         static_cast<double>(busy);
}

/// Inputs of one stream: distinct packs drawn from the workload seed and
/// cycled, so generating payloads costs nothing inside the window.
std::vector<Pack> make_packs(const WorkloadSpec& spec, std::uint64_t seed,
                             std::size_t stream) {
  SplitMix64 rng(seed ^ (0x9e3779b97f4a7c15ULL * (stream + 1)));
  std::vector<Pack> packs;
  for (std::size_t i = 0; i < kPacksPerStream; ++i) {
    const std::uint64_t pack_seed = rng.next();
    packs.push_back(
        spec.text_payload
            ? bench::make_echo_calls_text(spec.calls_per_exchange,
                                          spec.payload_bytes, pack_seed)
            : bench::make_echo_calls(spec.calls_per_exchange,
                                     spec.payload_bytes, pack_seed));
  }
  return packs;
}

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t mismatched = 0;
};

/// Compares every echoed payload with its request; returns the calls that
/// came back intact.
std::size_t check_echoes(const Pack& pack, const PackedResult& result,
                         Tally& tally) {
  tally.attempted += pack.size();
  if (!result.ok()) {
    tally.failed += pack.size();
    return 0;
  }
  const std::vector<core::CallOutcome>& outcomes = result.value();
  std::size_t faulted = 0;
  if (outcomes.size() == pack.size()) {
    faulted = static_cast<std::size_t>(std::count_if(
        outcomes.begin(), outcomes.end(),
        [](const core::CallOutcome& outcome) { return !outcome.ok(); }));
  }
  const std::size_t errors = bench::count_echo_errors(pack, outcomes);
  tally.failed += errors;
  tally.mismatched += errors - std::min(errors, faulted);
  return pack.size() - errors;
}

/// The README Batch API: one future per call, one packed message.
PackedResult batch_exchange(core::SpiClient& client, const Pack& pack) {
  auto batch = client.create_batch();
  std::vector<std::future<core::CallOutcome>> futures;
  futures.reserve(pack.size());
  for (const core::ServiceCall& call : pack) futures.push_back(batch.add(call));
  batch.execute();
  std::vector<core::CallOutcome> outcomes;
  outcomes.reserve(futures.size());
  for (auto& future : futures) outcomes.push_back(future.get());
  return outcomes;
}

/// Client-step spans of one traced exchange, microseconds.
struct SpanRow {
  double start_s = 0;
  double assemble_us = 0;
  double encode_us = 0;
  double http_us = 0;
  double decode_us = 0;
  double parse_us = 0;
  double route_us = 0;
  double exchange_us = 0;
  std::uint64_t plain_bytes = 0;  ///< request + response XML before coding
};

/// SpiClient's client step rebuilt from the same public calls, one span
/// around each: assemble_request, codec encode (+ headers), [the HTTP
/// exchange, timed by the caller], codec decode, parse_response, route.
/// It skips SpiClient's retry/hedge/breaker state machine.
class ClientStep {
 public:
  explicit ClientStep(const WorkloadSpec& spec) {
    if (spec.codec != "identity") {
      codec_ = codec::CodecRegistry::builtin().find(spec.codec);
      accept_ = std::string(spec.codec);
    }
  }

  struct Built {
    std::string body;
    http::Headers headers;
  };

  Result<Built> build(const Pack& pack, SpanRow& row) {
    const telemetry::TraceContext trace = telemetry::TraceContext::generate();
    telemetry::TraceScope trace_scope(trace);
    const auto t0 = SteadyClock::now();
    std::string envelope =
        assembler_.assemble_request(pack, core::PackMode::kPacked);
    const auto t1 = SteadyClock::now();
    Built built;
    built.headers.set("SOAPAction", "\"\"");
    row.plain_bytes += envelope.size();
    if (codec_) {
      built.headers.set("Accept-Encoding", accept_);
      auto encoded = codec_->encode(envelope);
      if (!encoded.ok()) return encoded.wrap_error("encode request");
      built.body = std::move(encoded).value();
      built.headers.set("Content-Encoding", std::string(codec_->name()));
    } else {
      built.body = std::move(envelope);
    }
    const auto t2 = SteadyClock::now();
    row.assemble_us = seconds_between(t0, t1) * 1e6;
    row.encode_us = seconds_between(t1, t2) * 1e6;
    return built;
  }

  PackedResult finish(const http::Response& response, std::size_t expected,
                      SpanRow& row) {
    const auto t0 = SteadyClock::now();
    std::string plain;
    std::string_view text = response.body;
    const std::string_view coding =
        response.headers.get("Content-Encoding").value_or("identity");
    if (coding != "identity") {
      const codec::WireCodec* codec =
          codec::CodecRegistry::builtin().find(coding);
      if (!codec) {
        return Error(ErrorCode::kProtocolError, "unsupported response coding");
      }
      auto decoded =
          codec->decode(response.body, http::ParserLimits{}.max_body_bytes);
      if (!decoded.ok()) return decoded.wrap_error("decode response");
      plain = std::move(decoded).value();
      text = plain;
    }
    const auto t1 = SteadyClock::now();
    row.plain_bytes += text.size();
    auto parsed = dispatcher_.parse_response(text);
    const auto t2 = SteadyClock::now();
    if (!parsed.ok()) return parsed.error();
    auto routed = dispatcher_.route(std::move(parsed).value(), expected);
    const auto t3 = SteadyClock::now();
    row.decode_us = seconds_between(t0, t1) * 1e6;
    row.parse_us = seconds_between(t1, t2) * 1e6;
    row.route_us = seconds_between(t2, t3) * 1e6;
    return routed;
  }

 private:
  core::Assembler assembler_;
  core::Dispatcher dispatcher_;
  const codec::WireCodec* codec_ = nullptr;  // null: bypassed, as in SpiClient
  std::string accept_;
};

/// Running totals of every counter and histogram the ledger reads.
struct Marks {
  double t = 0;  ///< seconds since the run began
  double cpu_s = 0;
  HostCpu host;
  net::WireStats wire;
  http::AsyncHttpClient::Stats async;
  std::uint64_t retries = 0;
  std::uint64_t hedges = 0;
  std::uint64_t server_messages = 0;
  std::uint64_t app_tasks = 0;
  std::uint64_t loop_iterations = 0;
  std::uint64_t sendv_segments = 0;
  std::uint64_t sheds = 0;
  std::uint64_t codec_wire_bytes = 0;
  /// Per server: http-read, parse, execute, assemble.
  std::vector<std::array<HistogramMark, 4>> stages;
  HistogramMark app_wait;
  proxy::PackingProxy::Stats proxy;
};

/// Servers (one, or two behind the proxy), the proxy, the async runtime
/// and the clients of one workload, all on one TCP transport so its byte
/// counters cover every hop. Members are declared in start order and so
/// torn down clients first, servers last.
class Deployment {
 public:
  explicit Deployment(const WorkloadSpec& spec) {
    services::register_echo_service(registry_);
    const std::size_t servers = spec.proxy ? kProxyBackends : 1;
    std::vector<net::Endpoint> endpoints;
    for (std::size_t i = 0; i < servers; ++i) {
      auto& metrics = *metrics_.emplace_back(
          std::make_unique<telemetry::MetricsRegistry>());
      core::ServerOptions options;
      options.reactor_threads = kReactorThreads;
      options.protocol_threads = kProtocolThreads;
      options.application_threads = kApplicationThreads;
      options.metrics = &metrics;
      auto& server = *servers_.emplace_back(std::make_unique<core::SpiServer>(
          transport_, net::Endpoint{"127.0.0.1", 0}, registry_, options));
      if (Status started = server.start(); !started.ok()) {
        throw std::runtime_error("server failed to start: " +
                                 started.error().message());
      }
      endpoints.push_back(server.endpoint());
      const std::string codec_label =
          "codec=\"" + std::string(spec.codec) + "\"";
      auto stage = [&metrics](std::string_view label) {
        return &metrics.histogram("spi_server_stage_seconds", "", label);
      };
      probes_.push_back(Probe{
          &server,
          {&metrics.histogram("spi_http_read_seconds", ""),
           stage("stage=\"parse\""), stage("stage=\"execute\""),
           stage("stage=\"assemble\"")},
          &metrics.histogram("spi_pool_task_wait_seconds", "",
                             "pool=\"application\""),
          &metrics.counter("spi_codec_decoded_bytes_total", "", codec_label),
          &metrics.counter("spi_codec_encoded_bytes_total", "", codec_label)});
    }
    target_ = endpoints.front();

    if (spec.proxy) {
      proxy::ProxyOptions options;
      options.backends = endpoints;
      options.shard_param = "data";
      options.protocol_threads = kProtocolThreads;
      options.reactor_threads = kReactorThreads;
      options.scatter_threads = 0;
      proxy_ = std::make_unique<proxy::PackingProxy>(
          transport_, net::Endpoint{"127.0.0.1", 0}, options);
      if (Status started = proxy_->start(); !started.ok()) {
        throw std::runtime_error("proxy failed to start: " +
                                 started.error().message());
      }
      target_ = proxy_->endpoint();
    }

    if (!spec.blocking) {
      reactor_ = std::make_unique<Reactor>();
      reactor_->start();
      http_ = std::make_unique<http::AsyncHttpClient>(*reactor_, transport_);
    }

    core::ClientOptions options;
    options.keep_alive = true;
    options.receive_timeout = kReceiveTimeout;
    options.async_client = http_.get();
    if (spec.codec != "identity") {
      options.request_codec = std::string(spec.codec);
      options.accept_codecs = {std::string(spec.codec)};
    }
    // Blocking callers each own a client; async streams share one.
    const std::size_t clients = spec.blocking ? kStreams : 1;
    for (std::size_t i = 0; i < clients; ++i) {
      clients_.push_back(
          std::make_unique<core::SpiClient>(transport_, target_, options));
    }
  }

  ~Deployment() {
    // An async SpiClient exchange signals its client's destructor after
    // its completion callback has run, from the loop thread. Let the loop
    // thread finish that before the clients are destroyed.
    if (reactor_) reactor_->run_sync([] {});
  }

  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  core::SpiClient& client(std::size_t stream) {
    return *clients_[std::min(stream, clients_.size() - 1)];
  }
  http::AsyncHttpClient* async_http() { return http_.get(); }
  net::Transport& transport() { return transport_; }
  const net::Endpoint& target() const { return target_; }

  Marks mark(double t) const {
    Marks m;
    m.t = t;
    m.cpu_s = process_cpu_seconds();
    m.host = read_host_cpu();
    m.wire = transport_.stats();
    if (http_) m.async = http_->stats();
    for (const auto& client : clients_) {
      const core::SpiClient::Stats stats = client->stats();
      m.retries += stats.retries;
      m.hedges += stats.hedges_sent;
    }
    for (const Probe& probe : probes_) {
      const core::SpiServer::Stats stats = probe.server->stats();
      m.server_messages += stats.http_requests;
      m.app_tasks += stats.application_tasks;
      m.sheds += stats.admission_rejections + stats.adaptive_shed +
                 stats.deadline_shed_pre_parse +
                 stats.dispatcher.deadline_shed +
                 stats.dispatcher.queue_full_shed;
      const http::HttpServer& http_server = probe.server->http_server();
      m.loop_iterations += http_server.reactor_loop_iterations();
      m.sendv_segments += http_server.sendv_segments();
      m.codec_wire_bytes +=
          probe.decoded_bytes->value() + probe.encoded_bytes->value();
      auto& stages = m.stages.emplace_back();
      for (std::size_t i = 0; i < stages.size(); ++i) {
        stages[i] = HistogramMark::of(*probe.stages[i]);
      }
      m.app_wait += HistogramMark::of(*probe.app_wait);
    }
    if (proxy_) m.proxy = proxy_->stats();
    return m;
  }

 private:
  struct Probe {
    core::SpiServer* server;
    std::array<const LatencyHistogram*, 4> stages;
    const LatencyHistogram* app_wait;
    const telemetry::Counter* decoded_bytes;
    const telemetry::Counter* encoded_bytes;
  };

  net::TcpTransport transport_;
  core::ServiceRegistry registry_;
  std::vector<std::unique_ptr<telemetry::MetricsRegistry>> metrics_;
  std::vector<std::unique_ptr<core::SpiServer>> servers_;
  std::vector<Probe> probes_;
  std::unique_ptr<proxy::PackingProxy> proxy_;
  net::Endpoint target_;
  std::unique_ptr<Reactor> reactor_;
  std::unique_ptr<http::AsyncHttpClient> http_;
  std::vector<std::unique_ptr<core::SpiClient>> clients_;
};

/// One completed exchange, kept small: the logs are the only benchmark
/// memory that grows with the run, and peak RSS should track the program.
struct Sample {
  float end_s;
  float latency_us;
  std::uint32_t verified_calls;
};

struct StreamLog {
  std::deque<Sample> samples;  // grows without doubling copies
  std::vector<SpanRow> spans;
  Tally tally;
};

/// kStreams closed-loop callers: each sends its next message only after
/// the previous one completed and was checked. Async workloads drive the
/// streams from the client reactor loop thread; blocking workloads give
/// each stream its own thread and client.
class ClosedLoop {
 public:
  ClosedLoop(Deployment& deployment, const WorkloadSpec& spec,
             const std::vector<std::vector<Pack>>& packs, bool traced,
             SteadyClock::time_point origin)
      : deployment_(deployment),
        spec_(spec),
        packs_(packs),
        traced_(traced),
        origin_(origin),
        step_(spec),
        logs_(kStreams),
        next_(kStreams, 0) {}

  ~ClosedLoop() { stop(); }

  ClosedLoop(const ClosedLoop&) = delete;
  ClosedLoop& operator=(const ClosedLoop&) = delete;

  void start() {
    for (std::size_t s = 0; s < kStreams; ++s) {
      if (spec_.blocking) {
        threads_.emplace_back([this, s] { run_blocking(s); });
      } else {
        submit_async(s);
      }
    }
  }

  /// Lets every stream finish the exchange it has in flight, then returns.
  void stop() {
    stopping_.store(true, std::memory_order_release);
    for (std::thread& thread : threads_) thread.join();
    threads_.clear();
    if (!spec_.blocking) {
      std::unique_lock lock(mutex_);
      idle_cv_.wait(lock, [this] { return idle_streams_ == kStreams; });
    }
  }

  const std::vector<StreamLog>& logs() const { return logs_; }
  /// Exchanges recorded so far; safe to read while the streams run.
  std::uint64_t completed() const {
    return completed_.load(std::memory_order_relaxed);
  }

 private:
  double now_s() const { return seconds_between(origin_, SteadyClock::now()); }

  const Pack& next_pack(std::size_t s) {
    const std::vector<Pack>& packs = packs_[s];
    return packs[next_[s]++ % packs.size()];
  }

  void run_blocking(std::size_t s) {
    while (!stopping_.load(std::memory_order_acquire)) {
      const Pack& pack = next_pack(s);
      const double start = now_s();
      if (!traced_) {
        record(s, pack, batch_exchange(deployment_.client(s), pack), start,
               nullptr);
        continue;
      }
      SpanRow row;
      row.start_s = start;
      auto built = step_.build(pack, row);
      if (!built.ok()) {
        record(s, pack, built.error(), start, nullptr);
        continue;
      }
      // A fresh keep-alive HttpClient per message, exactly what the
      // blocking execute_packed does: the dial is inside this span.
      const auto http_start = SteadyClock::now();
      Result<http::Response> response = [&] {
        http::ClientOptions options;
        options.keep_alive = true;
        options.receive_timeout = kReceiveTimeout;
        http::HttpClient http(deployment_.transport(), deployment_.target(),
                              options);
        return http.post("/spi", std::move(built.value().body), "text/xml",
                         &built.value().headers);
      }();
      row.http_us = seconds_between(http_start, SteadyClock::now()) * 1e6;
      record(s, pack,
             response.ok() ? step_.finish(response.value(), pack.size(), row)
                           : PackedResult(response.error()),
             start, &row);
    }
  }

  void submit_async(std::size_t s) {
    const Pack& pack = next_pack(s);
    const double start = now_s();
    if (!traced_) {
      deployment_.client(s).execute_packed_async(
          pack, core::PackMode::kPacked,
          [this, s, &pack, start](PackedResult result) {
            complete_async(s, pack, std::move(result), start, nullptr);
          });
      return;
    }
    SpanRow row;
    row.start_s = start;
    auto built = step_.build(pack, row);
    if (!built.ok()) {
      // Encoding failed before anything was sent: count it and retire the
      // stream rather than resubmit from inside this call.
      record(s, pack, built.error(), start, nullptr);
      mark_idle();
      return;
    }
    http::Request request;
    request.target = "/spi";
    request.headers = std::move(built.value().headers);
    request.headers.set("Content-Type", "text/xml");
    request.body = std::move(built.value().body);
    const auto http_start = SteadyClock::now();
    deployment_.async_http()->send(
        deployment_.target(), std::move(request), kReceiveTimeout,
        [this, s, &pack, start, row, http_start](
            Result<http::Response> response) mutable {
          row.http_us = seconds_between(http_start, SteadyClock::now()) * 1e6;
          complete_async(
              s, pack,
              response.ok() ? step_.finish(response.value(), pack.size(), row)
                            : PackedResult(response.error()),
              start, &row);
        });
  }

  void complete_async(std::size_t s, const Pack& pack, PackedResult result,
                      double start, SpanRow* row) {
    record(s, pack, result, start, row);
    if (!stopping_.load(std::memory_order_acquire)) {
      submit_async(s);
      return;
    }
    mark_idle();
  }

  void mark_idle() {
    std::lock_guard lock(mutex_);
    ++idle_streams_;
    idle_cv_.notify_all();
  }

  void record(std::size_t s, const Pack& pack, const PackedResult& result,
              double start, SpanRow* row) {
    const double end = now_s();
    StreamLog& log = logs_[s];
    const std::size_t verified = check_echoes(pack, result, log.tally);
    log.samples.push_back(Sample{static_cast<float>(end),
                                 static_cast<float>((end - start) * 1e6),
                                 static_cast<std::uint32_t>(verified)});
    if (row) {
      row->exchange_us = (end - start) * 1e6;
      log.spans.push_back(*row);
    }
    completed_.fetch_add(1, std::memory_order_relaxed);
  }

  Deployment& deployment_;
  const WorkloadSpec& spec_;
  const std::vector<std::vector<Pack>>& packs_;
  const bool traced_;
  const SteadyClock::time_point origin_;
  ClientStep step_;
  std::vector<StreamLog> logs_;   // logs_[s] touched only by stream s
  std::vector<std::size_t> next_;
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> completed_{0};
  std::mutex mutex_;
  std::condition_variable idle_cv_;
  std::size_t idle_streams_ = 0;  // guarded by mutex_
  std::vector<std::thread> threads_;
};

/// Builds a whole deployment and completes one verified exchange on it.
std::unique_ptr<Deployment> set_up(const WorkloadSpec& spec,
                                   const Pack& first) {
  auto deployment = std::make_unique<Deployment>(spec);
  core::SpiClient& client = deployment->client(0);
  PackedResult result = spec.blocking
                            ? batch_exchange(client, first)
                            : client.execute_packed_future(first).get();
  Tally tally;
  check_echoes(first, result, tally);
  if (tally.failed != 0) {
    throw std::runtime_error(
        result.ok() ? "first exchange echoed wrong data"
                    : "first exchange failed: " + result.error().message());
  }
  return deployment;
}

void sleep_until_s(SteadyClock::time_point origin, double t) {
  std::this_thread::sleep_until(
      origin + std::chrono::duration_cast<SteadyClock::duration>(
                   std::chrono::duration<double>(t)));
}

/// Index of the slice [bounds[i], bounds[i+1]) holding `t`; npos outside.
std::size_t slice_of(const std::vector<double>& bounds, double t) {
  auto it = std::upper_bound(bounds.begin(), bounds.end(), t);
  if (it == bounds.begin() || it == bounds.end()) return std::string::npos;
  return static_cast<std::size_t>(it - bounds.begin()) - 1;
}

/// Verified calls and exchanges of every stream that completed in each
/// slice.
struct SliceCounts {
  std::vector<std::size_t> calls;
  std::vector<std::size_t> exchanges;
};

SliceCounts count_slices(const std::vector<StreamLog>& logs,
                         const std::vector<double>& bounds) {
  SliceCounts counts{std::vector<std::size_t>(bounds.size() - 1),
                     std::vector<std::size_t>(bounds.size() - 1)};
  for (const StreamLog& log : logs) {
    for (const Sample& sample : log.samples) {
      const std::size_t i = slice_of(bounds, sample.end_s);
      if (i == std::string::npos) continue;
      counts.calls[i] += sample.verified_calls;
      ++counts.exchanges[i];
    }
  }
  return counts;
}

std::vector<double> steal_per_slice(const std::vector<Marks>& marks) {
  std::vector<double> steals;
  for (std::size_t i = 1; i < marks.size(); ++i) {
    steals.push_back(steal_share(marks[i - 1].host, marks[i].host));
  }
  return steals;
}

/// Latencies, microseconds, of the exchanges that completed in a kept slice.
std::vector<double> latencies_in(const std::vector<StreamLog>& logs,
                                 const std::vector<double>& bounds,
                                 const std::vector<bool>& keep) {
  std::vector<double> out;
  for (const StreamLog& log : logs) {
    for (const Sample& sample : log.samples) {
      const std::size_t i = slice_of(bounds, sample.end_s);
      if (i != std::string::npos && keep[i]) out.push_back(sample.latency_us);
    }
  }
  return out;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024;  // kB on Linux
}

void add_tallies(const ClosedLoop& loop, RunResult& result) {
  for (const StreamLog& log : loop.logs()) {
    result.attempted_calls += log.tally.attempted;
    result.failed_calls += log.tally.failed;
    result.mismatched_calls += log.tally.mismatched;
  }
}

struct EndToEnd {
  std::size_t exchanges = 0;  ///< in the slices the timings come from
  double supported_percentile = 0;
  std::size_t slices_used = 0;
  std::size_t slices = 0;
  double window_s = 0;
  double steal_share = 0;  ///< over the whole window
  double cpu_us_per_call_all_slices = 0;
  double peak_rss_mb = 0;
};

EndToEnd measure_end_to_end(Deployment& deployment, const WorkloadSpec& spec,
                            const std::vector<std::vector<Pack>>& packs,
                            const RunOptions& options,
                            SteadyClock::time_point origin, RunResult& result) {
  ClosedLoop loop(deployment, spec, packs, /*traced=*/false, origin);
  auto now_s = [origin] { return seconds_between(origin, SteadyClock::now()); };
  const double begin = now_s() + kWarmupSeconds;
  const auto slice_count = static_cast<std::size_t>(
      std::max(1.0, std::round(options.seconds / kSliceSeconds)));
  const double slice_s = options.seconds / static_cast<double>(slice_count);
  loop.start();
  std::vector<Marks> marks;
  std::vector<std::size_t> completed;  // loop.completed() at each mark
  auto add_mark = [&] {
    sleep_until_s(origin,
                  begin + slice_s * static_cast<double>(marks.size()));
    marks.push_back(deployment.mark(now_s()));
    completed.push_back(loop.completed());
  };
  // The running count of quiet exchanges, from the loop's counter. It can
  // put an exchange that ends at a mark in the next slice, hence the margin.
  constexpr std::size_t kTarget = kTailExchanges + kTailExchanges / 10;
  auto quiet_exchanges_so_far = [&] {
    std::vector<std::size_t> exchanges;
    for (std::size_t i = 1; i < completed.size(); ++i) {
      exchanges.push_back(completed[i] - completed[i - 1]);
    }
    const std::vector<bool> keep =
        choose_quiet_slices(steal_per_slice(marks), exchanges, kTarget);
    std::size_t quiet = 0;
    for (std::size_t i = 0; i < keep.size(); ++i) {
      if (keep[i]) quiet += exchanges[i];
    }
    return quiet;
  };
  for (std::size_t i = 0; i <= slice_count; ++i) add_mark();
  const auto max_slices =
      slice_count + static_cast<std::size_t>(kMaxExtraSeconds / slice_s);
  while (marks.size() <= max_slices &&
         quiet_exchanges_so_far() < kTarget) {
    add_mark();
  }
  loop.stop();
  const double rss_mb = peak_rss_mb();  // before the arithmetic allocates
  add_tallies(loop, result);

  std::vector<double> bounds;
  for (const Marks& mark : marks) bounds.push_back(mark.t);
  const SliceCounts counts = count_slices(loop.logs(), bounds);
  const std::vector<bool> keep = choose_quiet_slices(
      steal_per_slice(marks), counts.exchanges, kTailExchanges);

  std::vector<double> calls_per_s;
  std::size_t calls = 0, quiet_calls = 0;
  double quiet_cpu_s = 0;
  for (std::size_t i = 0; i < keep.size(); ++i) {
    calls += counts.calls[i];
    if (!keep[i]) continue;
    calls_per_s.push_back(static_cast<double>(counts.calls[i]) /
                          (bounds[i + 1] - bounds[i]));
    quiet_calls += counts.calls[i];
    quiet_cpu_s += marks[i + 1].cpu_s - marks[i].cpu_s;
  }
  if (calls == 0 || quiet_calls == 0) {
    throw std::runtime_error("no exchange completed in the measured window");
  }
  std::vector<double> latencies = latencies_in(loop.logs(), bounds, keep);
  require_p99_support(latencies.size());
  const double wire_bytes = static_cast<double>(marks.back().wire.bytes_sent -
                                                marks.front().wire.bytes_sent);
  const double all_cpu_s = marks.back().cpu_s - marks.front().cpu_s;

  result.metrics.add("calls_per_s", median(calls_per_s), "calls/s");
  result.metrics.add("exchange_p50_ms", percentile(latencies, 50) / 1e3, "ms");
  result.metrics.add("exchange_p99_ms", percentile(latencies, 99) / 1e3, "ms");
  result.metrics.add("cpu_us_per_call",
                     quiet_cpu_s * 1e6 / static_cast<double>(quiet_calls),
                     "us");
  result.metrics.add("wire_bytes_per_call",
                     wire_bytes / static_cast<double>(calls), "B");
  return EndToEnd{latencies.size(),
                  highest_supported_percentile(latencies.size()),
                  calls_per_s.size(),
                  keep.size(),
                  bounds.back() - bounds.front(),
                  steal_share(marks.front().host, marks.back().host),
                  all_cpu_s * 1e6 / static_cast<double>(calls),
                  rss_mb};
}

struct Ledger {
  std::size_t untraced_exchanges = 0;
  std::size_t traced_exchanges = 0;
  double untraced_steal_share = 0;  ///< host steal in each half
  double traced_steal_share = 0;
};

Ledger measure_layers(Deployment& deployment, const WorkloadSpec& spec,
                      const std::vector<std::vector<Pack>>& packs,
                      const RunOptions& options,
                      SteadyClock::time_point origin, RunResult& result) {
  const double half = options.seconds / 2;
  auto now_s = [origin] { return seconds_between(origin, SteadyClock::now()); };

  // Phase A, untraced through SpiClient: the program's own counters.
  Marks a0, a1;
  double untraced_p50_us = 0;
  std::size_t exchanges_a = 0;
  {
    ClosedLoop loop(deployment, spec, packs, /*traced=*/false, origin);
    loop.start();
    sleep_until_s(origin, now_s() + kWarmupSeconds);
    a0 = deployment.mark(now_s());
    sleep_until_s(origin, a0.t + half);
    a1 = deployment.mark(now_s());
    loop.stop();
    add_tallies(loop, result);
    std::vector<double> latencies =
        latencies_in(loop.logs(), {a0.t, a1.t}, {true});
    exchanges_a = latencies.size();
    untraced_p50_us = percentile(latencies, 50);
  }

  // Phase B, traced: the client step rebuilt with a span per layer call,
  // and the server's stage histograms over the same interval.
  Marks b0, b1;
  std::vector<SpanRow> rows;
  {
    ClosedLoop loop(deployment, spec, packs, /*traced=*/true, origin);
    loop.start();
    sleep_until_s(origin, now_s() + kWarmupSeconds);
    b0 = deployment.mark(now_s());
    sleep_until_s(origin, b0.t + half);
    b1 = deployment.mark(now_s());
    loop.stop();
    add_tallies(loop, result);
    for (const StreamLog& log : loop.logs()) {
      for (const SpanRow& row : log.spans) {
        const double end = row.start_s + row.exchange_us / 1e6;
        if (end >= b0.t && end < b1.t) rows.push_back(row);
      }
    }
  }
  if (exchanges_a == 0 || rows.empty()) {
    throw std::runtime_error("no exchange completed in the measured window");
  }

  if (!options.spans_path.empty()) {
    std::ofstream out(options.spans_path);
    out << "exchange,start_s,assemble_us,encode_us,http_us,decode_us,"
           "parse_us,route_us,exchange_us,plain_bytes\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const SpanRow& r = rows[i];
      out << i << ',' << json_number(r.start_s) << ','
          << json_number(r.assemble_us) << ',' << json_number(r.encode_us)
          << ',' << json_number(r.http_us) << ',' << json_number(r.decode_us)
          << ',' << json_number(r.parse_us) << ',' << json_number(r.route_us)
          << ',' << json_number(r.exchange_us) << ',' << r.plain_bytes << '\n';
    }
  }

  auto mean_of = [&rows](double SpanRow::*field) {
    double sum = 0;
    for (const SpanRow& row : rows) sum += row.*field;
    return sum / static_cast<double>(rows.size());
  };
  const double exchange_us = mean_of(&SpanRow::http_us);

  // Server stages, combined over servers, and the stage sum of the slowest
  // server (the one a scattered exchange waits for).
  std::array<HistogramMark, 4> before{}, after{};
  double slowest_stage_sum_us = 0;
  for (std::size_t s = 0; s < b0.stages.size(); ++s) {
    double sum = 0;
    for (std::size_t i = 0; i < 4; ++i) {
      before[i] += b0.stages[s][i];
      after[i] += b1.stages[s][i];
      sum += mean_us_between(b0.stages[s][i], b1.stages[s][i]);
    }
    slowest_stage_sum_us = std::max(slowest_stage_sum_us, sum);
  }
  const double residual_us = exchange_us - slowest_stage_sum_us;

  std::uint64_t plain_bytes = 0;
  for (const SpanRow& row : rows) plain_bytes += row.plain_bytes;
  const std::uint64_t codec_wire = b1.codec_wire_bytes - b0.codec_wire_bytes;
  std::vector<double> traced_latencies;
  for (const SpanRow& row : rows) traced_latencies.push_back(row.exchange_us);
  const double traced_p50_us = percentile(traced_latencies, 50);

  const auto n = static_cast<std::uint64_t>(exchanges_a);
  MetricSet& m = result.metrics;
  m.add("core.assembler.request_us", mean_of(&SpanRow::assemble_us), "us");
  m.add("codec.encode_us", mean_of(&SpanRow::encode_us), "us");
  m.add("codec.decode_us", mean_of(&SpanRow::decode_us), "us");
  m.add("core.dispatcher.parse_response_us", mean_of(&SpanRow::parse_us), "us");
  m.add("core.dispatcher.route_us", mean_of(&SpanRow::route_us), "us");
  m.add("http.exchange_us", exchange_us, "us");
  m.add("server.http_read_us", mean_us_between(before[0], after[0]), "us");
  m.add("server.parse_us", mean_us_between(before[1], after[1]), "us");
  m.add("server.execute_us", mean_us_between(before[2], after[2]), "us");
  m.add("server.assemble_us", mean_us_between(before[3], after[3]), "us");
  m.add("concurrency.app_wait_us", mean_us_between(b0.app_wait, b1.app_wait),
        "us");
  m.add("concurrency.app_tasks_per_exchange",
        per_exchange(a0.app_tasks, a1.app_tasks, n), "count");
  m.add("net.residual_us", residual_us, "us");
  m.add("net.connections_per_exchange",
        per_exchange(a0.wire.connections_opened, a1.wire.connections_opened, n),
        "count");
  m.add("http.async.reuse_ratio",
        per_exchange(a0.async.reused, a1.async.reused,
                     a1.async.requests - a0.async.requests),
        "ratio");
  m.add("http.async.pipelined_per_exchange",
        per_exchange(a0.async.pipelined, a1.async.pipelined, n), "count");
  m.add("http.server.loop_iterations_per_exchange",
        per_exchange(a0.loop_iterations, a1.loop_iterations, n), "count");
  m.add("http.server.sendv_segments_per_response",
        per_exchange(a0.sendv_segments, a1.sendv_segments,
                     a1.server_messages - a0.server_messages),
        "count");
  m.add("codec.compression_ratio",
        codec_wire == 0 ? 1.0
                        : static_cast<double>(plain_bytes) /
                              static_cast<double>(codec_wire),
        "ratio");
  m.add("proxy.self_us", spec.proxy ? residual_us : 0.0, "us");
  m.add("proxy.subpacks_per_request",
        per_exchange(a0.proxy.scattered_subpacks, a1.proxy.scattered_subpacks,
                     a1.proxy.requests - a0.proxy.requests),
        "count");
  m.add("proxy.rebalanced_calls_per_request",
        per_exchange(a0.proxy.rebalanced_calls, a1.proxy.rebalanced_calls,
                     a1.proxy.requests - a0.proxy.requests),
        "count");
  m.add("proxy.reroutes_per_request",
        per_exchange(a0.proxy.reroutes, a1.proxy.reroutes,
                     a1.proxy.requests - a0.proxy.requests),
        "count");
  m.add("core.client.retries_per_exchange",
        per_exchange(a0.retries, a1.retries, n), "count");
  m.add("resilience.hedges_per_exchange", per_exchange(a0.hedges, a1.hedges, n),
        "count");
  m.add("server.sheds_per_exchange", per_exchange(a0.sheds, a1.sheds, n),
        "count");
  m.add("trace.overhead_ratio",
        untraced_p50_us > 0 ? traced_p50_us / untraced_p50_us : 0.0, "ratio");
  m.add("trace.residual_share",
        exchange_us > 0 ? residual_us / exchange_us : 0.0, "ratio");
  return Ledger{exchanges_a, rows.size(), steal_share(a0.host, a1.host),
                steal_share(b0.host, b1.host)};
}

std::string load_average_json() {
  double load[3] = {0, 0, 0};
  if (getloadavg(load, 3) != 3) return "null";
  return "[" + json_number(load[0]) + ", " + json_number(load[1]) + ", " +
         json_number(load[2]) + "]";
}

}  // namespace

std::span<const WorkloadSpec> all_workloads() { return kWorkloads; }

const WorkloadSpec* find_workload(std::string_view name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

RunResult run_workload(const WorkloadSpec& spec, const RunOptions& options) {
  const auto origin = SteadyClock::now();
  const std::string load_start = load_average_json();
  RunResult result;

  std::vector<std::vector<Pack>> packs;
  for (std::size_t s = 0; s < kStreams; ++s) {
    packs.push_back(make_packs(spec, options.seed, s));
  }

  // Set-up, timed from nothing to the first verified exchange; every
  // deployment but the last is torn down (untimed) before the next. A
  // traced run reports no setup_s, so it sets up once.
  std::vector<double> setup_s;
  std::unique_ptr<Deployment> deployment;
  const int setup_count = options.trace ? 1 : std::max(1, options.setups);
  for (int i = 0; i < setup_count; ++i) {
    deployment.reset();
    if (setup_count > 1) std::this_thread::sleep_for(kSetupGap);
    const auto t0 = SteadyClock::now();
    deployment = set_up(spec, packs[0][0]);
    setup_s.push_back(seconds_between(t0, SteadyClock::now()));
  }

  JsonObject env;
  env.text("workload", spec.name)
      .integer("seed", options.seed)
      .number("seconds", options.seconds)
      .raw("trace", options.trace ? "true" : "false")
      .integer("nproc",
               static_cast<std::uint64_t>(sysconf(_SC_NPROCESSORS_ONLN)))
      .text("build_type", PERFBENCH_BUILD_TYPE)
      .text("compiler", PERFBENCH_COMPILER)
      .raw("load_average_start", load_start)
      .integer("streams", kStreams)
      .integer("calls_per_exchange", spec.calls_per_exchange)
      .integer("payload_bytes", spec.payload_bytes)
      .text("codec", spec.codec)
      .raw("server_pools",
           JsonObject()
               .integer("servers", spec.proxy ? kProxyBackends : 1)
               .integer("reactor_threads", kReactorThreads)
               .integer("protocol_threads", kProtocolThreads)
               .integer("application_threads", kApplicationThreads)
               .str())
      .raw("proxy_pools",
           spec.proxy ? JsonObject()
                            .integer("reactor_threads", kReactorThreads)
                            .integer("protocol_threads", kProtocolThreads)
                            .integer("scatter_threads", 0)
                            .str()
                      : "null");

  double peak_rss = 0;
  if (options.trace) {
    const Ledger ledger =
        measure_layers(*deployment, spec, packs, options, origin, result);
    result.exchanges = ledger.untraced_exchanges + ledger.traced_exchanges;
    env.integer("untraced_exchanges", ledger.untraced_exchanges)
        .integer("traced_exchanges", ledger.traced_exchanges)
        .number("untraced_host_steal_share", ledger.untraced_steal_share)
        .number("traced_host_steal_share", ledger.traced_steal_share)
        .text("trace_note",
              "the traced client step skips SpiClient's retry/hedge/breaker "
              "state machine, so trace.overhead_ratio bounds the tracing cost "
              "and that state machine's cost together");
  } else {
    const EndToEnd e2e =
        measure_end_to_end(*deployment, spec, packs, options, origin, result);
    result.exchanges = e2e.exchanges;
    peak_rss = e2e.peak_rss_mb;
    env.integer("exchanges", e2e.exchanges)
        .number("highest_supported_percentile", e2e.supported_percentile)
        .integer("slices_used", e2e.slices_used)
        .integer("slices", e2e.slices)
        .number("window_s", e2e.window_s)
        .number("host_steal_share", e2e.steal_share)
        .number("cpu_us_per_call_all_slices", e2e.cpu_us_per_call_all_slices);
  }
  deployment.reset();

  const double error_ratio =
      result.attempted_calls == 0
          ? 1.0
          : static_cast<double>(result.failed_calls) /
                static_cast<double>(result.attempted_calls);
  if (!options.trace) {
    result.metrics.add("success_ratio", 1.0 - error_ratio, "ratio");
    result.metrics.add("setup_s", median(setup_s), "s");
    result.metrics.add("peak_rss_mb", peak_rss, "MB");
  }

  std::string setups = "[";
  for (double s : setup_s) {
    setups += (setups.size() > 1 ? ", " : "") + json_number(s);
  }
  env.raw("setup_s", setups + "]")
      .integer("attempted_calls", result.attempted_calls)
      .integer("failed_calls", result.failed_calls)
      .integer("mismatched_calls", result.mismatched_calls)
      .number("error_ratio", error_ratio)
      .raw("load_average_end", load_average_json())
      .text("traffic", "TCP over the host loopback interface, not a real link");
  result.environment = env.str();
  return result;
}

}  // namespace perfbench
