// Unit tests for the deterministic scheduler, timers and RNG.
#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "sim/rng.hpp"
#include "sim/scheduler.hpp"

namespace pfi::sim {
namespace {

TEST(Scheduler, StartsAtTimeZero) {
  Scheduler s;
  EXPECT_EQ(s.now(), 0);
}

TEST(Scheduler, RunsEventsInTimeOrder) {
  Scheduler s;
  std::vector<int> order;
  s.schedule(msec(30), [&] { order.push_back(3); });
  s.schedule(msec(10), [&] { order.push_back(1); });
  s.schedule(msec(20), [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), msec(30));
}

TEST(Scheduler, TiesBreakInInsertionOrder) {
  Scheduler s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    s.schedule(msec(5), [&order, i] { order.push_back(i); });
  }
  s.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Scheduler, NegativeDelayClampsToNow) {
  Scheduler s;
  s.schedule(msec(10), [] {});
  s.run();
  bool ran = false;
  s.schedule(-msec(5), [&] { ran = true; });
  s.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(s.now(), msec(10));
}

TEST(Scheduler, CancelPreventsExecution) {
  Scheduler s;
  bool ran = false;
  TimerId id = s.schedule(msec(10), [&] { ran = true; });
  EXPECT_TRUE(s.pending(id));
  EXPECT_TRUE(s.cancel(id));
  EXPECT_FALSE(s.pending(id));
  EXPECT_FALSE(s.cancel(id));  // second cancel is a no-op
  s.run();
  EXPECT_FALSE(ran);
}

TEST(Scheduler, RunUntilAdvancesClockEvenWhenIdle) {
  Scheduler s;
  s.run_until(sec(5));
  EXPECT_EQ(s.now(), sec(5));
}

TEST(Scheduler, RunUntilDoesNotFireLaterEvents) {
  Scheduler s;
  bool early = false;
  bool late = false;
  s.schedule(sec(1), [&] { early = true; });
  s.schedule(sec(10), [&] { late = true; });
  s.run_until(sec(5));
  EXPECT_TRUE(early);
  EXPECT_FALSE(late);
  s.run();
  EXPECT_TRUE(late);
}

TEST(Scheduler, EventsScheduledDuringRunFire) {
  Scheduler s;
  int fired = 0;
  s.schedule(msec(1), [&] {
    ++fired;
    s.schedule(msec(1), [&] { ++fired; });
  });
  s.run();
  EXPECT_EQ(fired, 2);
}

TEST(Scheduler, RunForIsRelative) {
  Scheduler s;
  s.run_until(sec(3));
  bool ran = false;
  s.schedule(sec(2), [&] { ran = true; });
  s.run_for(sec(1));
  EXPECT_FALSE(ran);
  s.run_for(sec(1));
  EXPECT_TRUE(ran);
  EXPECT_EQ(s.now(), sec(5));
}

TEST(Scheduler, EventBudgetStopsRunawayLoops) {
  Scheduler s;
  std::function<void()> loop = [&] { s.schedule(0, loop); };
  s.schedule(0, loop);
  const std::size_t fired = s.run(1000);
  EXPECT_EQ(fired, 1000u);
}

TEST(Scheduler, StaleIdNeverMatchesReusedSlot) {
  Scheduler s;
  const TimerId old = s.schedule(msec(1), [] {});
  s.run();
  // The fired event's slot is free; the next event takes it over.
  bool ran = false;
  const TimerId fresh = s.schedule(msec(1), [&] { ran = true; });
  EXPECT_NE(old, fresh);
  EXPECT_FALSE(s.pending(old));
  EXPECT_FALSE(s.cancel(old));
  EXPECT_TRUE(s.pending(fresh));
  s.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(s.stats().timers_cancelled, 0u);
}

TEST(Scheduler, CallbackMayCancelAnotherPendingEvent) {
  Scheduler s;
  bool victim_ran = false;
  TimerId victim = kInvalidTimer;
  s.schedule(msec(1), [&] { EXPECT_TRUE(s.cancel(victim)); });
  victim = s.schedule(msec(2), [&] { victim_ran = true; });
  s.run();
  EXPECT_FALSE(victim_ran);
  EXPECT_EQ(s.stats().events_dispatched, 1u);
  EXPECT_EQ(s.stats().timers_cancelled, 1u);
  EXPECT_EQ(s.queued(), 0u);
}

TEST(Scheduler, TiesKeepInsertionOrderAcrossSlotReuse) {
  Scheduler s;
  std::vector<int> order;
  // Free some slots in a scrambled order, then fill them with ties: the
  // slot an event lands in must not affect when it fires.
  std::vector<TimerId> ids;
  for (int i = 0; i < 6; ++i) ids.push_back(s.schedule(msec(1), [] {}));
  s.cancel(ids[4]);
  s.cancel(ids[1]);
  s.cancel(ids[3]);
  for (int i = 0; i < 8; ++i) {
    s.schedule(msec(5), [&order, i] { order.push_back(i); });
  }
  s.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(Scheduler, MoveOnlyClosureFiresOnce) {
  Scheduler s;
  int fired = 0;
  auto box = std::make_unique<int>(7);
  s.schedule(msec(1), [&fired, box = std::move(box)] { fired += *box; });
  s.run();
  EXPECT_EQ(fired, 7);
}

TEST(Scheduler, ClosureLargerThanInlineStorageFiresAndDiesOnce) {
  // Counts its live copies: every move leaves the source disarmed, so the
  // count drops to zero exactly when the last real copy is destroyed.
  struct Tally {
    int* live;
    explicit Tally(int* l) : live(l) { ++*live; }
    Tally(Tally&& o) noexcept : live(std::exchange(o.live, nullptr)) {}
    Tally(const Tally&) = delete;
    Tally& operator=(const Tally&) = delete;
    Tally& operator=(Tally&&) = delete;
    ~Tally() {
      if (live != nullptr) --*live;
    }
  };
  Scheduler s;
  int live = 0;
  int fired = 0;
  std::array<char, 2 * Callback::kInlineBytes> pad{};
  pad[1] = 1;
  s.schedule(msec(1), [&fired, pad, t = Tally{&live}] { fired += pad[1]; });
  // Grow the slab under the heap-held closure before it fires.
  for (int i = 0; i < 100; ++i) s.schedule(msec(2), [] {});
  EXPECT_EQ(live, 1);
  s.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(live, 0);
}

TEST(Scheduler, DestructionFreesPendingClosures) {
  // Run under ASan's leak checker, this also proves the heap-held closure
  // is released.
  auto shared = std::make_shared<int>(0);
  {
    Scheduler s;
    std::array<char, 2 * Callback::kInlineBytes> pad{};
    s.schedule(msec(1), [shared] { ++*shared; });
    s.schedule(msec(2), [shared, pad] { *shared += pad[0]; });
    const TimerId gone = s.schedule(msec(3), [shared] { ++*shared; });
    s.cancel(gone);
    EXPECT_EQ(shared.use_count(), 3);
  }
  EXPECT_EQ(shared.use_count(), 1);
  EXPECT_EQ(*shared, 0);
}

TEST(Timer, FiresOnce) {
  Scheduler s;
  Timer t{s};
  int fired = 0;
  t.arm(msec(5), [&] { ++fired; });
  EXPECT_TRUE(t.armed());
  s.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(t.armed());
}

TEST(Timer, RearmReplacesPrevious) {
  Scheduler s;
  Timer t{s};
  int which = 0;
  t.arm(msec(5), [&] { which = 1; });
  t.arm(msec(10), [&] { which = 2; });
  s.run();
  EXPECT_EQ(which, 2);
}

TEST(Timer, CallbackMayRearmItself) {
  Scheduler s;
  Timer t{s};
  int fired = 0;
  std::function<void()> tick = [&] {
    if (++fired < 3) t.arm(msec(1), tick);
  };
  t.arm(msec(1), tick);
  s.run();
  EXPECT_EQ(fired, 3);
}

TEST(Timer, DestructionCancels) {
  Scheduler s;
  bool ran = false;
  {
    Timer t{s};
    t.arm(msec(1), [&] { ran = true; });
  }
  s.run();
  EXPECT_FALSE(ran);
}

TEST(Timer, CancelIsIdempotent) {
  Scheduler s;
  Timer t{s};
  t.cancel();
  t.arm(msec(1), [] {});
  t.cancel();
  t.cancel();
  EXPECT_FALSE(t.armed());
  s.run();
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a{123};
  Rng b{123};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a{1};
  Rng b{2};
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng r{7};
  for (int i = 0; i < 1000; ++i) {
    const double d = r.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, UniformIntRespectsBounds) {
  Rng r{7};
  for (int i = 0; i < 1000; ++i) {
    const auto v = r.uniform_int(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(Rng, NormalHasRoughlyRightMoments) {
  Rng r{42};
  double sum = 0;
  double sumsq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = r.normal(10.0, 4.0);
    sum += x;
    sumsq += x * x;
  }
  const double mean = sum / n;
  const double var = sumsq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.3);
}

TEST(Rng, ExponentialMeanRoughlyRight) {
  Rng r{42};
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += r.exponential(3.0);
  EXPECT_NEAR(sum / n, 3.0, 0.15);
}

TEST(Rng, BernoulliProbabilityRoughlyRight) {
  Rng r{42};
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (r.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, BernoulliEdgeCases) {
  Rng r{42};
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.bernoulli(0.0));
    EXPECT_TRUE(r.bernoulli(1.0));
  }
}

// Property sweep: run_until(t) leaves the clock exactly at t for many t.
class SchedulerDeadlineSweep : public ::testing::TestWithParam<int> {};

TEST_P(SchedulerDeadlineSweep, ClockLandsOnDeadline) {
  Scheduler s;
  const Duration deadline = msec(GetParam());
  for (int i = 0; i < 20; ++i) s.schedule(msec(i * 7), [] {});
  s.run_until(deadline);
  EXPECT_EQ(s.now(), deadline);
}

INSTANTIATE_TEST_SUITE_P(Deadlines, SchedulerDeadlineSweep,
                         ::testing::Values(0, 1, 13, 70, 133, 1000));

}  // namespace
}  // namespace pfi::sim
