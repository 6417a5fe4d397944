#include "concurrency/timer_wheel.hpp"

#include <algorithm>

namespace spi {

TimerWheel::TimerWheel(Duration tick, size_t slots)
    : tick_(tick > Duration::zero() ? tick : std::chrono::milliseconds(1)),
      slots_(std::max<size_t>(slots, 2)) {}

std::uint64_t TimerWheel::tick_index(TimePoint at) const {
  if (at <= origin_) return 0;
  return static_cast<std::uint64_t>((at - origin_) / tick_);
}

void TimerWheel::anchor(TimePoint at) {
  if (anchored_) return;
  anchored_ = true;
  origin_ = at;
}

TimerWheel::TimerId TimerWheel::schedule(TimePoint now, Duration delay,
                                         Callback callback) {
  if (!callback) {
    throw SpiError(ErrorCode::kInvalidArgument, "TimerWheel: null callback");
  }
  anchor(now);
  if (delay < Duration::zero()) delay = Duration::zero();
  // Round up so the timer never fires before its full delay has passed;
  // +1 tick because `now` sits mid-tick.
  const std::uint64_t delay_ticks =
      static_cast<std::uint64_t>((delay + tick_ - Duration{1}) / tick_);
  std::uint64_t due = tick_index(now) + std::max<std::uint64_t>(delay_ticks, 1);
  // Never schedule into a tick advance() has already processed.
  due = std::max(due, cursor_ + 1);

  const TimerId id = next_id_++;
  const size_t slot = static_cast<size_t>(due % slots_.size());
  slots_[slot].push_back(Entry{id, due, std::move(callback)});
  entries_.emplace(id, slot);
  ++due_counts_[due];
  return id;
}

bool TimerWheel::cancel(TimerId id) {
  auto found = entries_.find(id);
  if (found == entries_.end()) return false;
  Slot& slot = slots_[found->second];
  for (Entry& entry : slot) {
    if (entry.id != id) continue;
    auto count = due_counts_.find(entry.due_tick);
    if (count != due_counts_.end() && --count->second == 0) {
      due_counts_.erase(count);
    }
    entry = std::move(slot.back());
    slot.pop_back();
    entries_.erase(found);
    return true;
  }
  entries_.erase(found);  // unreachable unless internal state drifted
  return false;
}

std::vector<TimerWheel::Callback> TimerWheel::collect_due(TimePoint now) {
  std::vector<Callback> due;
  anchor(now);
  const std::uint64_t target = tick_index(now);
  while (cursor_ < target && !entries_.empty()) {
    // Jump over the span with nothing due (cheap thanks to due_counts_);
    // without this a long sleep or test-clock leap walks empty ticks one
    // by one.
    const std::uint64_t next_due = due_counts_.begin()->first;
    if (next_due > target) {
      cursor_ = target;
      break;
    }
    if (cursor_ + 1 < next_due) cursor_ = next_due - 1;
    ++cursor_;
    Slot& slot = slots_[static_cast<size_t>(cursor_ % slots_.size())];
    for (size_t i = 0; i < slot.size();) {
      Entry& entry = slot[i];
      if (entry.due_tick > cursor_) {
        // Hashed collision from a later wheel revolution; stays put.
        ++i;
        continue;
      }
      due.push_back(std::move(entry.callback));
      entries_.erase(entry.id);
      auto count = due_counts_.find(entry.due_tick);
      if (count != due_counts_.end() && --count->second == 0) {
        due_counts_.erase(count);
      }
      entry = std::move(slot.back());
      slot.pop_back();
    }
  }
  // With nothing pending the cursor can jump straight to `target`.
  if (cursor_ < target) cursor_ = target;
  return due;
}

size_t TimerWheel::advance(TimePoint now) {
  // Collect-then-fire: callbacks may schedule into (or cancel from) the
  // wheel without invalidating any iteration state.
  std::vector<Callback> due = collect_due(now);
  for (Callback& callback : due) callback();
  return due.size();
}

std::optional<Duration> TimerWheel::until_next(TimePoint now) const {
  if (due_counts_.empty()) return std::nullopt;
  const std::uint64_t next_tick = due_counts_.begin()->first;
  const TimePoint due_at = origin_ + tick_ * next_tick;
  return due_at > now ? due_at - now : Duration::zero();
}

}  // namespace spi
