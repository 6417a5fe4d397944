// TimerWheel unit coverage: schedule/fire rounding, cancel, hashed-slot
// revolutions (the "cascade" case: entries sharing a bucket but due on
// different revolutions), until_next, reentrant callbacks.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <vector>

#include "concurrency/timer_wheel.hpp"

namespace spi {
namespace {

using namespace std::chrono_literals;

TimePoint at(Duration offset) { return TimePoint{} + offset; }

TEST(TimerWheelTest, FiresAfterDelayNeverBefore) {
  TimerWheel wheel(5ms, 16);
  int fired = 0;
  wheel.schedule(at(0ms), 12ms, [&] { ++fired; });
  EXPECT_EQ(wheel.advance(at(0ms)), 0u);
  EXPECT_EQ(wheel.advance(at(11ms)), 0u);  // 12ms rounds UP to tick 3 = 15ms
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(wheel.advance(at(15ms)), 1u);
  EXPECT_EQ(fired, 1);
  // One-shot: it never fires again.
  EXPECT_EQ(wheel.advance(at(200ms)), 0u);
  EXPECT_EQ(fired, 1);
}

TEST(TimerWheelTest, ZeroAndNegativeDelaysFireOnNextTick) {
  TimerWheel wheel(5ms, 16);
  int fired = 0;
  wheel.schedule(at(0ms), 0ms, [&] { ++fired; });
  wheel.schedule(at(0ms), -3ms, [&] { ++fired; });
  EXPECT_EQ(wheel.advance(at(5ms)), 2u);
  EXPECT_EQ(fired, 2);
}

TEST(TimerWheelTest, CancelPreventsFiring) {
  TimerWheel wheel(5ms, 16);
  int fired = 0;
  auto id = wheel.schedule(at(0ms), 10ms, [&] { ++fired; });
  EXPECT_EQ(wheel.size(), 1u);
  EXPECT_TRUE(wheel.cancel(id));
  EXPECT_EQ(wheel.size(), 0u);
  EXPECT_EQ(wheel.advance(at(100ms)), 0u);
  EXPECT_EQ(fired, 0);
  // Cancelling again (or cancelling nonsense) reports false.
  EXPECT_FALSE(wheel.cancel(id));
  EXPECT_FALSE(wheel.cancel(TimerWheel::kInvalidTimer));
}

TEST(TimerWheelTest, CancelOneOfManyInSameSlot) {
  TimerWheel wheel(5ms, 4);
  std::vector<int> fired;
  // All three hash into the same bucket (due ticks 2, 6, 10 mod 4 = 2).
  wheel.schedule(at(0ms), 10ms, [&] { fired.push_back(1); });
  auto second = wheel.schedule(at(0ms), 30ms, [&] { fired.push_back(2); });
  wheel.schedule(at(0ms), 50ms, [&] { fired.push_back(3); });
  EXPECT_TRUE(wheel.cancel(second));
  wheel.advance(at(60ms));
  EXPECT_EQ(fired, (std::vector<int>{1, 3}));
}

TEST(TimerWheelTest, LaterRevolutionStaysPutUntilItsTurn) {
  // The hashed-wheel "cascade" behaviour: two timers in one bucket, one
  // due this revolution and one due slots*tick later. The second must
  // survive the first's collection untouched.
  TimerWheel wheel(5ms, 4);  // revolution = 20ms
  std::vector<int> fired;
  wheel.schedule(at(0ms), 10ms, [&] { fired.push_back(1); });   // tick 2
  wheel.schedule(at(0ms), 30ms, [&] { fired.push_back(2); });   // tick 6
  wheel.advance(at(10ms));
  EXPECT_EQ(fired, (std::vector<int>{1}));
  EXPECT_EQ(wheel.size(), 1u);
  wheel.advance(at(25ms));  // tick 5: bucket revisited, entry not yet due
  EXPECT_EQ(fired, (std::vector<int>{1}));
  wheel.advance(at(30ms));
  EXPECT_EQ(fired, (std::vector<int>{1, 2}));
}

TEST(TimerWheelTest, FiresInTickOrderAcrossSlots) {
  TimerWheel wheel(5ms, 8);
  std::vector<int> fired;
  wheel.schedule(at(0ms), 25ms, [&] { fired.push_back(3); });
  wheel.schedule(at(0ms), 5ms, [&] { fired.push_back(1); });
  wheel.schedule(at(0ms), 15ms, [&] { fired.push_back(2); });
  wheel.advance(at(100ms));
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(TimerWheelTest, UntilNextReflectsEarliestPending) {
  TimerWheel wheel(5ms, 16);
  EXPECT_FALSE(wheel.until_next(at(0ms)).has_value());
  wheel.schedule(at(0ms), 40ms, [] {});
  wheel.schedule(at(0ms), 10ms, [] {});
  auto next = wheel.until_next(at(0ms));
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(*next, 10ms);
  wheel.advance(at(10ms));
  next = wheel.until_next(at(10ms));
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(*next, 30ms);
  wheel.advance(at(40ms));
  EXPECT_FALSE(wheel.until_next(at(40ms)).has_value());
}

TEST(TimerWheelTest, CallbackMayScheduleReentrantly) {
  TimerWheel wheel(5ms, 16);
  int chained = 0;
  wheel.schedule(at(0ms), 5ms, [&] {
    wheel.schedule(at(5ms), 5ms, [&] { ++chained; });
  });
  wheel.advance(at(5ms));
  EXPECT_EQ(chained, 0);
  wheel.advance(at(10ms));
  EXPECT_EQ(chained, 1);
}

TEST(TimerWheelTest, CallbackMayCancelReentrantly) {
  TimerWheel wheel(5ms, 16);
  int fired = 0;
  TimerWheel::TimerId victim =
      wheel.schedule(at(0ms), 25ms, [&] { ++fired; });
  wheel.schedule(at(0ms), 5ms, [&] { wheel.cancel(victim); });
  wheel.advance(at(5ms));  // fires the canceller
  EXPECT_EQ(wheel.size(), 0u);
  wheel.advance(at(100ms));
  EXPECT_EQ(fired, 0);
}

TEST(TimerWheelTest, SameBatchCancelCannotRetractCollectedTimer) {
  // advance() is collect-then-fire: once a tick span is collected, a
  // cancel issued by one of its callbacks cannot retract another timer
  // in the same batch. Drivers absorb such late fires with stale guards
  // (ConnectionFsm::on_timer).
  TimerWheel wheel(5ms, 16);
  int fired = 0;
  TimerWheel::TimerId victim =
      wheel.schedule(at(0ms), 25ms, [&] { ++fired; });
  wheel.schedule(at(0ms), 5ms, [&] { wheel.cancel(victim); });
  wheel.advance(at(100ms));  // one advance spans both ticks
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(wheel.size(), 0u);
}

TEST(TimerWheelTest, SurvivesLargeClockLeap) {
  // A huge gap between advances (test-clock leap, suspended laptop) must
  // not walk empty ticks one by one.
  TimerWheel wheel(1ms, 32);
  int fired = 0;
  wheel.schedule(at(0ms), 5ms, [&] { ++fired; });
  wheel.advance(at(std::chrono::hours(24)));
  EXPECT_EQ(fired, 1);
  // And scheduling after the leap still lands on future ticks.
  wheel.schedule(at(std::chrono::hours(24)), 2ms, [&] { ++fired; });
  wheel.advance(at(std::chrono::hours(24) + 2ms));
  EXPECT_EQ(fired, 2);
}

TEST(TimerWheelTest, ManyTimersAcrossRevolutions) {
  TimerWheel wheel(1ms, 8);  // tiny wheel: lots of hash collisions
  std::atomic<int> fired{0};
  constexpr int kTimers = 500;
  for (int i = 0; i < kTimers; ++i) {
    wheel.schedule(at(0ms), std::chrono::milliseconds(1 + i % 97),
                   [&] { fired.fetch_add(1); });
  }
  EXPECT_EQ(wheel.size(), static_cast<size_t>(kTimers));
  for (int step = 0; step <= 100; ++step) {
    wheel.advance(at(std::chrono::milliseconds(step)));
  }
  EXPECT_EQ(fired.load(), kTimers);
  EXPECT_EQ(wheel.size(), 0u);
}

}  // namespace
}  // namespace spi
