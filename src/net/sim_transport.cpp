#include "net/sim_transport.hpp"

#include <poll.h>
#include <sys/eventfd.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <cerrno>
#include <deque>
#include <optional>

#include "common/logging.hpp"

namespace spi::net {

namespace {

TimePoint steady_now() { return std::chrono::steady_clock::now(); }

timespec to_timespec(Duration d) {
  const auto ns = std::max<Duration::rep>(d.count(), 0);
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(ns / 1'000'000'000);
  ts.tv_nsec = static_cast<long>(ns % 1'000'000'000);
  return ts;
}

/// Blocks until `fd` polls readable or `deadline` passes (nullopt = no
/// deadline). False on timeout.
bool wait_readable(int fd, std::optional<TimePoint> deadline) {
  while (true) {
    timespec ts{};
    timespec* timeout = nullptr;
    if (deadline) {
      const Duration left = *deadline - steady_now();
      if (left <= Duration::zero()) return false;
      ts = to_timespec(left);
      timeout = &ts;
    }
    pollfd entry{fd, POLLIN, 0};
    const int n = ::ppoll(&entry, 1, timeout, nullptr);
    // Readable, or a poll error the caller's next try_* call will surface.
    if (n > 0 || (n < 0 && errno != EINTR)) return true;
  }
}

}  // namespace

namespace detail {

/// One direction of a simulated connection: chunks in send order plus the
/// timerfd that makes them pollable. The timer is armed for the head
/// chunk's delivery time — first its arrival off the link (available_at),
/// then, once it has arrived and the receiving host's modeled CPU pool has
/// been reserved for it (SimLink::receive_wait), the end of that receive
/// processing. A closed, drained pipe keeps the timer expired so readers
/// observe EOF. Invariant (under mutex_): the fd polls readable iff
/// try_pop() has something to report.
class SimPipe {
 public:
  SimPipe(SimLink& link, LinkDirection direction)
      : link_(link),
        direction_(direction),
        timer_fd_(::timerfd_create(CLOCK_MONOTONIC,
                                   TFD_CLOEXEC | TFD_NONBLOCK)) {
    if (timer_fd_ < 0) {
      throw SpiError(ErrorCode::kInternal, "timerfd_create failed");
    }
  }
  ~SimPipe() { ::close(timer_fd_); }

  SimPipe(const SimPipe&) = delete;
  SimPipe& operator=(const SimPipe&) = delete;

  int fd() const { return timer_fd_; }

  /// Returns false if the pipe has been closed.
  bool push(std::string bytes, TimePoint available_at) {
    std::lock_guard lock(mutex_);
    if (closed_) return false;
    chunks_.push_back(Chunk{std::move(bytes), available_at, std::nullopt, 0});
    if (chunks_.size() == 1) arm_locked();
    return true;
  }

  void close() {
    std::lock_guard lock(mutex_);
    if (closed_) return;
    closed_ = true;
    arm_locked();
  }

  Result<std::string> try_pop(size_t max_bytes) {
    std::lock_guard lock(mutex_);
    if (chunks_.empty()) {
      if (closed_) {
        return Error(ErrorCode::kConnectionClosed, "peer closed connection");
      }
      return Error(ErrorCode::kWouldBlock, "no bytes due");
    }
    Chunk& head = chunks_.front();
    const TimePoint now = steady_now();
    if (!head.ready_at) {
      if (now < head.available_at) {
        return Error(ErrorCode::kWouldBlock, "no bytes due");
      }
      // Arrived: the receiver's endpoint processing (deserialization
      // stack share) queues on its host's CPU pool from the arrival on.
      head.ready_at =
          head.available_at +
          link_.receive_wait(head.bytes.size(), head.available_at, direction_);
      arm_locked();
    }
    if (now < *head.ready_at) {
      return Error(ErrorCode::kWouldBlock, "no bytes due");
    }
    std::string out;
    if (head.offset == 0 && max_bytes >= head.bytes.size()) {
      out = std::move(head.bytes);
    } else {
      const size_t take = std::min(max_bytes, head.bytes.size() - head.offset);
      out = head.bytes.substr(head.offset, take);
      head.offset += take;
      if (head.offset < head.bytes.size()) return out;
    }
    chunks_.pop_front();
    arm_locked();
    return out;
  }

 private:
  struct Chunk {
    std::string bytes;
    TimePoint available_at;
    std::optional<TimePoint> ready_at;  // set once receive CPU is reserved
    size_t offset = 0;                  // bytes of a partially read chunk
  };

  /// Points the timer at what the head needs next: its arrival, the end
  /// of its receive processing, "now" for a closed drained pipe, or
  /// nothing. Re-arming also clears an expiry, so readability tracks the
  /// head exactly; an unchanged target leaves the timer (and any expiry)
  /// alone.
  void arm_locked() {
    std::optional<TimePoint> target;
    if (!chunks_.empty()) {
      const Chunk& head = chunks_.front();
      target = head.ready_at.value_or(head.available_at);
    } else if (closed_) {
      target = TimePoint{};  // any past instant: expires at once
    }
    if (target == armed_) return;
    armed_ = target;
    itimerspec spec{};
    if (target) {
      // it_value 0 would disarm; the monotonic epoch + 1 ns is as past.
      spec.it_value = to_timespec(
          std::max(target->time_since_epoch(), Duration(1)));
    }
    ::timerfd_settime(timer_fd_, TFD_TIMER_ABSTIME, &spec, nullptr);
  }

  SimLink& link_;
  const LinkDirection direction_;
  const int timer_fd_;
  std::mutex mutex_;
  std::deque<Chunk> chunks_;
  bool closed_ = false;
  std::optional<TimePoint> armed_;  // nullopt = disarmed
};

class SimConnection final : public Connection {
 public:
  SimConnection(std::shared_ptr<SimPipe> out, std::shared_ptr<SimPipe> in,
                LinkDirection out_direction, SimLink* link,
                WireStatsCollector* stats, TimePoint earliest_send)
      : out_(std::move(out)),
        in_(std::move(in)),
        out_direction_(out_direction),
        link_(link),
        stats_(stats),
        earliest_send_(earliest_send) {}

  ~SimConnection() override { close(); }

  Status send(std::string_view bytes) override {
    if (bytes.empty()) return Status();
    // Nothing sleeps: a send starts no earlier than the modeled handshake
    // completed, and the sender's CPU reservation, wire queueing and
    // transmission are all folded into the chunk's delivery time.
    const TimePoint now = std::max(steady_now(), earliest_send_);
    SimLink::SendPlan plan =
        link_->plan_send(bytes.size(), now, out_direction_);
    if (!out_->push(std::string(bytes), now + plan.deliver_after)) {
      return Error(ErrorCode::kConnectionClosed, "send on closed connection");
    }
    stats_->on_send(bytes.size());
    return Status();
  }

  /// Always accepts the whole buffer: a timerfd never polls writable, so
  /// a short count or kWouldBlock would leave the caller waiting forever.
  Result<size_t> try_send(std::string_view bytes) override {
    if (Status sent = send(bytes); !sent.ok()) return sent.error();
    return bytes.size();
  }

  Result<std::string> try_receive(size_t max_bytes) override {
    if (max_bytes == 0) {
      return Error(ErrorCode::kInvalidArgument, "receive(0)");
    }
    auto data = in_->try_pop(max_bytes);
    if (data.ok()) stats_->on_receive(data.value().size());
    return data;
  }

  Result<std::string> receive(size_t max_bytes) override {
    std::optional<TimePoint> deadline;
    if (!is_unbounded(receive_timeout_)) {
      deadline = steady_now() + receive_timeout_;
    }
    while (true) {
      auto data = try_receive(max_bytes);
      if (data.ok() || data.error().code() != ErrorCode::kWouldBlock) {
        return data;
      }
      if (!wait_readable(in_->fd(), deadline)) {
        return Error(ErrorCode::kTimeout, "receive timed out");
      }
    }
  }

  int native_handle() const override { return in_->fd(); }

  /// Both modes are always available: receive() waits, try_receive()
  /// does not.
  Status set_nonblocking(bool /*enabled*/) override { return Status(); }

  void close() override {
    // Half-close our outbound direction; the peer drains buffered chunks
    // and then observes kConnectionClosed, like TCP FIN semantics.
    out_->close();
  }

  void abort() override {
    // Hard close: both directions die, waking a blocked receive().
    out_->close();
    in_->close();
  }

  Status set_receive_timeout(Duration timeout) override {
    if (timeout < Duration::zero()) {
      return Error(ErrorCode::kInvalidArgument, "negative timeout");
    }
    receive_timeout_ = timeout;
    return Status();
  }

 private:
  std::shared_ptr<SimPipe> out_;
  std::shared_ptr<SimPipe> in_;
  LinkDirection out_direction_;
  SimLink* link_;
  WireStatsCollector* stats_;
  const TimePoint earliest_send_;
  Duration receive_timeout_ = kNoTimeout;
};

/// Accept backlog shared by a listener and the transport's registry. The
/// eventfd polls readable iff a connection is queued or the listener has
/// closed.
struct SimListenerState {
  explicit SimListenerState(Endpoint ep)
      : endpoint(std::move(ep)),
        event_fd(::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK)) {
    if (event_fd < 0) {
      throw SpiError(ErrorCode::kInternal, "eventfd failed");
    }
  }
  ~SimListenerState() { ::close(event_fd); }

  /// Returns false (dropping the connection) once the listener closed.
  bool push(std::unique_ptr<Connection> connection) {
    std::lock_guard lock(mutex);
    if (closed) return false;
    backlog.push_back(std::move(connection));
    if (backlog.size() == 1) signal();
    return true;
  }

  void close() {
    std::lock_guard lock(mutex);
    if (closed) return;
    closed = true;
    if (backlog.empty()) signal();
  }

  Result<std::unique_ptr<Connection>> try_pop() {
    std::lock_guard lock(mutex);
    if (backlog.empty()) {
      if (closed) return Error(ErrorCode::kShutdown, "listener closed");
      return Error(ErrorCode::kWouldBlock, "no pending connection");
    }
    std::unique_ptr<Connection> connection = std::move(backlog.front());
    backlog.pop_front();
    if (backlog.empty() && !closed) {
      std::uint64_t count = 0;
      (void)::read(event_fd, &count, sizeof(count));
    }
    return connection;
  }

  void signal() {
    const std::uint64_t one = 1;
    (void)::write(event_fd, &one, sizeof(one));
  }

  const Endpoint endpoint;
  const int event_fd;
  std::mutex mutex;
  std::deque<std::unique_ptr<Connection>> backlog;
  bool closed = false;
};

/// Listener handle returned to the server; closing it unregisters the
/// endpoint so later connect() calls fail fast.
class SimListener final : public Listener {
 public:
  SimListener(std::shared_ptr<SimListenerState> state, SimTransport* owner)
      : state_(std::move(state)), owner_(owner) {}

  ~SimListener() override { close(); }

  Result<std::unique_ptr<Connection>> accept() override {
    while (true) {
      auto connection = state_->try_pop();
      if (connection.ok() ||
          connection.error().code() != ErrorCode::kWouldBlock) {
        return connection;
      }
      wait_readable(state_->event_fd, std::nullopt);
    }
  }

  Result<std::unique_ptr<Connection>> try_accept() override {
    return state_->try_pop();
  }

  int native_handle() const override { return state_->event_fd; }
  Status set_nonblocking(bool /*enabled*/) override { return Status(); }

  void close() override {
    if (!closed_.exchange(true)) {
      owner_->unregister(state_->endpoint);
      state_->close();
    }
  }

  Endpoint endpoint() const override { return state_->endpoint; }

 private:
  std::shared_ptr<SimListenerState> state_;
  SimTransport* owner_;
  std::atomic<bool> closed_{false};
};

}  // namespace detail

SimTransport::SimTransport(LinkParams params) : link_(params) {}

SimTransport::~SimTransport() = default;

Result<std::unique_ptr<Listener>> SimTransport::listen(const Endpoint& at) {
  std::lock_guard lock(registry_mutex_);
  if (listeners_.contains(at)) {
    return Error(ErrorCode::kAlreadyExists,
                 "endpoint " + at.to_string() + " already bound");
  }
  auto state = std::make_shared<detail::SimListenerState>(at);
  listeners_[at] = state;
  SPI_LOG(kDebug, "net.sim") << "listening on " << at.to_string();
  return std::unique_ptr<Listener>(
      std::make_unique<detail::SimListener>(std::move(state), this));
}

Result<std::unique_ptr<Connection>> SimTransport::connect(const Endpoint& to) {
  std::shared_ptr<detail::SimListenerState> state;
  {
    std::lock_guard lock(registry_mutex_);
    auto it = listeners_.find(to);
    if (it == listeners_.end()) {
      return Error(ErrorCode::kConnectionFailed,
                   "no listener at " + to.to_string());
    }
    state = it->second;
  }

  // TCP handshake + server accept dispatch: the client's first byte
  // cannot leave before it completes.
  const TimePoint earliest_send = steady_now() + link_.connect_delay();

  auto client_to_server =
      std::make_shared<detail::SimPipe>(link_, LinkDirection::kClientToServer);
  auto server_to_client =
      std::make_shared<detail::SimPipe>(link_, LinkDirection::kServerToClient);

  auto server_end = std::make_unique<detail::SimConnection>(
      server_to_client, client_to_server, LinkDirection::kServerToClient,
      &link_, &stats_, TimePoint{});
  auto client_end = std::make_unique<detail::SimConnection>(
      client_to_server, server_to_client, LinkDirection::kClientToServer,
      &link_, &stats_, earliest_send);

  if (!state->push(std::move(server_end))) {
    return Error(ErrorCode::kConnectionFailed,
                 "listener at " + to.to_string() + " is closing");
  }
  stats_.on_connect();
  return std::unique_ptr<Connection>(std::move(client_end));
}

void SimTransport::unregister(const Endpoint& endpoint) {
  std::lock_guard lock(registry_mutex_);
  listeners_.erase(endpoint);
}

}  // namespace spi::net
