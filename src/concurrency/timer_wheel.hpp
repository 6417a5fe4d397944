// Hashed timer wheel: O(1) schedule/cancel for the huge population of
// almost-always-cancelled timers a connection layer creates (every request
// arms a header-read deadline, every idle keep-alive arms an idle reaper —
// and nearly all of them are cancelled when the connection makes
// progress). A heap would pay O(log n) per churn; the wheel pays a vector
// index.
//
// Layout: `slots` buckets, each `tick` wide. A timer due at tick T lives
// in bucket T % slots; advance() walks the buckets the clock has crossed
// and fires entries whose tick has arrived, leaving entries hashed into
// the same bucket for a later revolution in place (the classic hashed
// wheel; there is no cascade copy).
//
// TimerWheel is single-threaded — the Reactor drives one from its loop
// thread.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/clock.hpp"
#include "common/error.hpp"

namespace spi {

class TimerWheel {
 public:
  using TimerId = std::uint64_t;
  using Callback = std::function<void()>;

  /// No timer ever gets this id; cancel(kInvalidTimer) is a no-op.
  static constexpr TimerId kInvalidTimer = 0;

  explicit TimerWheel(Duration tick = std::chrono::milliseconds(5),
                      size_t slots = 512);

  TimerWheel(const TimerWheel&) = delete;
  TimerWheel& operator=(const TimerWheel&) = delete;

  /// Schedules `callback` to fire at the first advance() whose time is >=
  /// now + delay. Delays round UP to the next tick boundary: a timer
  /// never fires early, and may fire up to one tick late.
  TimerId schedule(TimePoint now, Duration delay, Callback callback);

  /// True if the timer was pending (it will not fire); false if it
  /// already fired, was cancelled, or never existed.
  bool cancel(TimerId id);

  /// Fires every timer due at `now`, in tick order. Callbacks may
  /// schedule and cancel timers reentrantly. Returns the count fired.
  size_t advance(TimePoint now);

  /// Removes every timer due at `now` without firing, returning their
  /// callbacks — lets a caller drop its locks before running them.
  std::vector<Callback> collect_due(TimePoint now);

  /// Time until the earliest pending timer could fire, or nullopt when
  /// the wheel is empty. An event loop sleeps exactly this long.
  std::optional<Duration> until_next(TimePoint now) const;

  /// Pending timers (the timer-wheel depth gauge).
  size_t size() const { return entries_.size(); }

  size_t slot_count() const { return slots_.size(); }
  Duration tick() const { return tick_; }

 private:
  struct Entry {
    TimerId id = kInvalidTimer;
    std::uint64_t due_tick = 0;
    Callback callback;
  };
  using Slot = std::vector<Entry>;

  std::uint64_t tick_index(TimePoint at) const;
  void anchor(TimePoint at);

  Duration tick_;
  /// Tick 0 is anchored to the first timestamp the wheel sees, so clocks
  /// far from their epoch (steady_clock) and test clocks near zero both
  /// start the cursor at 0.
  TimePoint origin_;
  bool anchored_ = false;
  std::uint64_t cursor_ = 0;  // last tick advance() fully processed
  std::vector<Slot> slots_;
  /// id -> slot index (entries within a slot are found by id scan; slots
  /// stay short because ids hash across `slots` buckets).
  std::unordered_map<TimerId, size_t> entries_;
  /// due_tick -> pending count; keeps until_next() O(log n) instead of a
  /// full wheel scan, which matters at c10k timer populations.
  std::map<std::uint64_t, size_t> due_counts_;
  TimerId next_id_ = 1;
};

}  // namespace spi
