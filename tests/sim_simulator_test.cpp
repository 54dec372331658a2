#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <tuple>
#include <vector>

namespace rtpb::sim {
namespace {

TEST(Simulator, EventsFireInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(TimePoint{30}, [&] { order.push_back(3); });
  sim.schedule_at(TimePoint{10}, [&] { order.push_back(1); });
  sim.schedule_at(TimePoint{20}, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), TimePoint{30});
}

TEST(Simulator, TiesFireInSchedulingOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.schedule_at(TimePoint{100}, [&order, i] { order.push_back(i); });
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, ScheduleAfterUsesCurrentTime) {
  Simulator sim;
  TimePoint fired{};
  sim.schedule_after(millis(5), [&] {
    sim.schedule_after(millis(3), [&] { fired = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(fired, TimePoint::zero() + millis(8));
}

TEST(Simulator, CancelPreventsFiring) {
  Simulator sim;
  bool fired = false;
  EventHandle h = sim.schedule_at(TimePoint{10}, [&] { fired = true; });
  EXPECT_TRUE(h.pending());
  EXPECT_TRUE(h.cancel());
  EXPECT_FALSE(h.pending());
  EXPECT_FALSE(h.cancel());  // second cancel is a no-op
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(Simulator, CancelAfterFiringIsNoop) {
  Simulator sim;
  EventHandle h = sim.schedule_at(TimePoint{10}, [] {});
  sim.run();
  EXPECT_FALSE(h.pending());
  EXPECT_FALSE(h.cancel());
}

TEST(Simulator, RunUntilStopsAtDeadlineAndAdvancesClock) {
  Simulator sim;
  int count = 0;
  sim.schedule_at(TimePoint{10}, [&] { ++count; });
  sim.schedule_at(TimePoint{20}, [&] { ++count; });
  sim.schedule_at(TimePoint{30}, [&] { ++count; });
  sim.run_until(TimePoint{20});
  EXPECT_EQ(count, 2);  // events at the deadline fire
  EXPECT_EQ(sim.now(), TimePoint{20});
  sim.run_until(TimePoint{100});
  EXPECT_EQ(count, 3);
  EXPECT_EQ(sim.now(), TimePoint{100});  // clock reaches deadline even when idle
}

TEST(Simulator, StopHaltsRun) {
  Simulator sim;
  int count = 0;
  sim.schedule_at(TimePoint{1}, [&] {
    ++count;
    sim.stop();
  });
  sim.schedule_at(TimePoint{2}, [&] { ++count; });
  sim.run();
  EXPECT_EQ(count, 1);
}

TEST(Simulator, StepFiresExactlyOne) {
  Simulator sim;
  int count = 0;
  sim.schedule_at(TimePoint{1}, [&] { ++count; });
  sim.schedule_at(TimePoint{2}, [&] { ++count; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(count, 2);
  EXPECT_FALSE(sim.step());
}

TEST(Simulator, EventCounters) {
  Simulator sim;
  auto h = sim.schedule_at(TimePoint{5}, [] {});
  sim.schedule_at(TimePoint{6}, [] {});
  EXPECT_EQ(sim.pending_events(), 2u);
  h.cancel();
  sim.run();
  EXPECT_EQ(sim.fired_events(), 1u);
}

// ---- Kernel contract ------------------------------------------------------
//
// What callers may rely on about handles, counters and storage, whatever
// the kernel's internal layout.

TEST(Simulator, FiredHandleStaysInertAfterStorageReuse) {
  Simulator sim;
  EventHandle fired = sim.schedule_at(TimePoint{1}, [] {});
  EventHandle cancelled = sim.schedule_at(TimePoint{1}, [] {});
  EXPECT_TRUE(cancelled.cancel());
  sim.run();
  // New events may reuse whatever held the old ones; the stale handles
  // must neither see them as their own nor cancel them.
  int count = 0;
  EventHandle a = sim.schedule_at(TimePoint{2}, [&] { ++count; });
  EventHandle b = sim.schedule_at(TimePoint{2}, [&] { ++count; });
  EXPECT_FALSE(fired.pending());
  EXPECT_FALSE(fired.cancel());
  EXPECT_FALSE(cancelled.pending());
  EXPECT_FALSE(cancelled.cancel());
  EXPECT_TRUE(a.pending());
  EXPECT_TRUE(b.pending());
  sim.run();
  EXPECT_EQ(count, 2);
}

TEST(Simulator, PendingEventsCountsCancelledEntriesUntilPopped) {
  // Deletion is lazy: a cancelled event stays in the count until the run
  // reaches and discards it.  The explorer hashes this value into its
  // state hash, so the count is part of the contract.
  Simulator sim;
  sim.schedule_at(TimePoint{10}, [] {});
  EventHandle middle = sim.schedule_at(TimePoint{20}, [] {});
  sim.schedule_at(TimePoint{30}, [] {});
  EXPECT_TRUE(middle.cancel());
  EXPECT_EQ(sim.pending_events(), 3u);
  EXPECT_TRUE(sim.step());  // fires t=10
  EXPECT_EQ(sim.pending_events(), 2u);
  EXPECT_TRUE(sim.step());  // discards the cancelled t=20, fires t=30
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.fired_events(), 2u);
}

TEST(Simulator, ManyEventsScheduledFromACallbackFireInTimeThenSeqOrder) {
  Simulator sim;
  Rng rng(11);
  constexpr int kEvents = 5000;
  // (at, scheduling index) of every firing.
  std::vector<std::pair<std::int64_t, int>> fired;
  sim.schedule_at(TimePoint{1}, [&] {
    for (int i = 0; i < kEvents; ++i) {
      // Few distinct instants, so most events tie and must keep FIFO order.
      const std::int64_t at = 2 + rng.uniform(0, 40);
      sim.schedule_at(TimePoint{at}, [&fired, at, i] { fired.emplace_back(at, i); });
    }
  });
  sim.run();
  ASSERT_EQ(fired.size(), static_cast<std::size_t>(kEvents));
  EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end()));
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Simulator, DestroyingTheSimulatorDestroysPendingCaptures) {
  auto token = std::make_shared<int>(7);
  {
    Simulator sim;
    sim.schedule_at(TimePoint{10}, [token] {});
    EventHandle h = sim.schedule_at(TimePoint{20}, [token] {});
    EXPECT_EQ(token.use_count(), 3);
    // Cancelling releases the capture at once, not when the entry pops.
    EXPECT_TRUE(h.cancel());
    EXPECT_EQ(token.use_count(), 2);
  }
  EXPECT_EQ(token.use_count(), 1);
}

TEST(Simulator, CancelFromInsideTheEventsOwnCallbackReturnsFalse) {
  Simulator sim;
  EventHandle self;
  bool cancelled = true;
  bool pending = true;
  self = sim.schedule_at(TimePoint{5}, [&] {
    pending = self.pending();
    cancelled = self.cancel();
  });
  sim.run();
  EXPECT_FALSE(pending);
  EXPECT_FALSE(cancelled);
  EXPECT_EQ(sim.fired_events(), 1u);
}

TEST(PeriodicTimer, FiresAtFixedPeriod) {
  Simulator sim;
  std::vector<TimePoint> fires;
  PeriodicTimer timer(sim, millis(10), [&] { fires.push_back(sim.now()); });
  timer.start_at(TimePoint::zero() + millis(10));
  sim.run_until(TimePoint::zero() + millis(45));
  ASSERT_EQ(fires.size(), 4u);
  for (std::size_t i = 0; i < fires.size(); ++i) {
    EXPECT_EQ(fires[i], TimePoint::zero() + millis(10) * static_cast<std::int64_t>(i + 1));
  }
}

TEST(PeriodicTimer, StopFromCallback) {
  Simulator sim;
  int count = 0;
  PeriodicTimer timer(sim, millis(1), [&] {
    if (++count == 3) timer.stop();
  });
  timer.start();
  sim.run_until(TimePoint::zero() + millis(100));
  EXPECT_EQ(count, 3);
  EXPECT_FALSE(timer.running());
}

TEST(PeriodicTimer, RestartRearms) {
  Simulator sim;
  int count = 0;
  PeriodicTimer timer(sim, millis(10), [&] { ++count; });
  timer.start_at(TimePoint::zero() + millis(10));
  sim.run_until(TimePoint::zero() + millis(25));
  EXPECT_EQ(count, 2);
  timer.stop();
  sim.run_until(TimePoint::zero() + millis(50));
  EXPECT_EQ(count, 2);
  timer.start();  // re-arm at now + period
  sim.run_until(TimePoint::zero() + millis(70));
  EXPECT_EQ(count, 4);
}

TEST(Simulator, DeterministicRngStream) {
  Simulator a(99), b(99);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(a.rng().next_u64(), b.rng().next_u64());
}

TEST(Simulator, NextEventTimeTracksQueueHead) {
  Simulator sim;
  EXPECT_EQ(sim.next_event_time(), TimePoint::max());
  sim.schedule_at(TimePoint{30}, [] {});
  sim.schedule_at(TimePoint{10}, [] {});
  EXPECT_EQ(sim.next_event_time(), TimePoint{10});
  sim.run();
  EXPECT_EQ(sim.next_event_time(), TimePoint::max());
}

// ---- PeriodicTimer::set_period re-arm regression ------------------------
//
// set_period() used to only update the stored period, leaving the armed
// event at the OLD cadence: a loosened timer fired one extra fast beat, a
// tightened one waited out the old, longer period.  The fix re-arms the
// pending event at `cycle base + new period` (clamped to now).

TEST(PeriodicTimer, SetPeriodLoosensPendingFire) {
  Simulator sim;
  std::vector<TimePoint> fires;
  PeriodicTimer timer(sim, millis(10), [&] { fires.push_back(sim.now()); });
  timer.start_at(TimePoint::zero() + millis(10));
  sim.run_until(TimePoint::zero() + millis(25));  // fired at 10, 20; armed for 30
  ASSERT_EQ(fires.size(), 2u);
  timer.set_period(millis(20));
  EXPECT_EQ(timer.next_fire(), TimePoint::zero() + millis(40));  // base 20 + 20
  sim.run_until(TimePoint::zero() + millis(39));
  EXPECT_EQ(fires.size(), 2u);  // the old 30 ms beat must NOT fire
  sim.run_until(TimePoint::zero() + millis(45));
  ASSERT_EQ(fires.size(), 3u);
  EXPECT_EQ(fires.back(), TimePoint::zero() + millis(40));
}

TEST(PeriodicTimer, SetPeriodTightensPendingFire) {
  Simulator sim;
  std::vector<TimePoint> fires;
  PeriodicTimer timer(sim, millis(10), [&] { fires.push_back(sim.now()); });
  timer.start_at(TimePoint::zero() + millis(10));
  sim.run_until(TimePoint::zero() + millis(25));  // fired at 10, 20; armed for 30
  timer.set_period(millis(2));
  // base 20 + 2 = 22 is already past: clamp to now (25), then every 2 ms.
  EXPECT_EQ(timer.next_fire(), TimePoint::zero() + millis(25));
  sim.run_until(TimePoint::zero() + millis(30));
  std::vector<TimePoint> expect_tail{TimePoint::zero() + millis(25),
                                     TimePoint::zero() + millis(27),
                                     TimePoint::zero() + millis(29)};
  ASSERT_EQ(fires.size(), 5u);
  EXPECT_EQ(std::vector<TimePoint>(fires.begin() + 2, fires.end()), expect_tail);
}

TEST(PeriodicTimer, SetPeriodFromInsideCallback) {
  Simulator sim;
  std::vector<TimePoint> fires;
  PeriodicTimer timer(sim, millis(10), [&] {
    fires.push_back(sim.now());
    if (fires.size() == 1) timer.set_period(millis(5));
  });
  timer.start_at(TimePoint::zero() + millis(10));
  sim.run_until(TimePoint::zero() + millis(26));
  // First fire at 10 had already armed 20; set_period(5) re-arms to
  // base 10 + 5 = 15, then the 5 ms cadence holds: 15, 20, 25.
  EXPECT_EQ(fires, (std::vector<TimePoint>{
                       TimePoint::zero() + millis(10), TimePoint::zero() + millis(15),
                       TimePoint::zero() + millis(20), TimePoint::zero() + millis(25)}));
}

TEST(PeriodicTimer, SetPeriodAnchorsOnStartInstantNotFabricatedBase) {
  // A timer armed via start_at(first) where `first` is NOT one period
  // after the start has no fire to anchor on: the cycle base is the
  // start_at() instant itself.  Deriving it as next_fire - period would
  // fabricate base 7 - 10 = -3 here and re-arm at 17 instead of 24.
  Simulator sim;
  std::vector<TimePoint> fires;
  PeriodicTimer timer(sim, millis(10), [&] { fires.push_back(sim.now()); });
  sim.run_until(TimePoint::zero() + millis(4));
  timer.start_at(TimePoint::zero() + millis(7));  // first fire 3ms out, not 10
  timer.set_period(millis(20));
  EXPECT_EQ(timer.next_fire(), TimePoint::zero() + millis(24));  // base 4 + 20
  sim.run_until(TimePoint::zero() + millis(50));
  EXPECT_EQ(fires, (std::vector<TimePoint>{TimePoint::zero() + millis(24),
                                           TimePoint::zero() + millis(44)}));
}

TEST(PeriodicTimer, SetPeriodTighteningDelayedFirstFire) {
  // The dual direction: a deliberately LATE first fire (start_at far in
  // the future) tightened before it lands must re-arm at start + p, not
  // at (first - old_period) + p.
  Simulator sim;
  std::vector<TimePoint> fires;
  PeriodicTimer timer(sim, millis(5), [&] { fires.push_back(sim.now()); });
  timer.start_at(TimePoint::zero() + millis(20));  // base 0, old code: base 15
  timer.set_period(millis(2));
  EXPECT_EQ(timer.next_fire(), TimePoint::zero() + millis(2));  // base 0 + 2
  sim.run_until(TimePoint::zero() + millis(7));
  EXPECT_EQ(fires, (std::vector<TimePoint>{TimePoint::zero() + millis(2),
                                           TimePoint::zero() + millis(4),
                                           TimePoint::zero() + millis(6)}));
}

TEST(PeriodicTimer, SetPeriodWhileStoppedOnlyStoresIt) {
  Simulator sim;
  int count = 0;
  PeriodicTimer timer(sim, millis(10), [&] { ++count; });
  timer.set_period(millis(3));
  EXPECT_EQ(timer.period(), millis(3));
  EXPECT_EQ(timer.next_fire(), TimePoint::max());
  timer.start();
  sim.run_until(TimePoint::zero() + millis(10));
  EXPECT_EQ(count, 3);  // 3, 6, 9
}

// ---- run_until deadline boundary under a ChoicePolicy -------------------
//
// The parallel driver chops one run_until(end) into lookahead windows, so
// the boundary semantics must be exact and policy-invariant: every event
// with timestamp <= deadline fires, none beyond it, and the clock lands
// on the deadline.  A policy may reorder SAME-INSTANT ties only.

namespace {

/// pick_event returning 0 must reproduce the FIFO tie-break bit for bit.
class PickFirstPolicy : public ChoicePolicy {
 public:
  bool decide(const ChoiceContext& ctx, Rng& rng) override {
    return rng.bernoulli(ctx.probability);
  }
};

/// Adversarial tie-break: always fire the LAST-scheduled tie first.
class PickLastPolicy : public ChoicePolicy {
 public:
  bool decide(const ChoiceContext& ctx, Rng& rng) override {
    return rng.bernoulli(ctx.probability);
  }
  std::size_t pick_event(const std::vector<EventTag>& tags) override {
    return tags.size() - 1;
  }
};

}  // namespace

/// Records pending_events() each time it is asked to break a tie.
class CountingPolicy : public ChoicePolicy {
 public:
  explicit CountingPolicy(const Simulator& sim) : sim_(sim) {}
  bool decide(const ChoiceContext& ctx, Rng& rng) override {
    return rng.bernoulli(ctx.probability);
  }
  std::size_t pick_event(const std::vector<EventTag>& tags) override {
    seen.push_back(sim_.pending_events());
    return tags.size() - 1;
  }
  std::vector<std::size_t> seen;

 private:
  const Simulator& sim_;
};

TEST(Simulator, PendingEventsCountsTheTieSetWhileAPolicyPicks) {
  Simulator sim;
  CountingPolicy policy(sim);
  sim.set_choice_policy(&policy);
  sim.schedule_at(TimePoint{10}, [] {});
  EventHandle dropped = sim.schedule_at(TimePoint{10}, [] {});
  sim.schedule_at(TimePoint{10}, [] {});
  sim.schedule_at(TimePoint{20}, [] {});
  EXPECT_TRUE(dropped.cancel());
  // The cancelled tie is discarded while the tie set is gathered; the two
  // live ties and the later event are still pending while the policy picks.
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(sim.pending_events(), 2u);
  sim.run();
  EXPECT_EQ(policy.seen, (std::vector<std::size_t>{3}));
}

TEST(Simulator, RunUntilBoundaryWithPolicyFiresDeadlineEvents) {
  PickLastPolicy policy;
  Simulator sim;
  sim.set_choice_policy(&policy);
  std::vector<int> order;
  sim.schedule_at(TimePoint{10}, [&] { order.push_back(0); });
  for (int i = 1; i <= 3; ++i) {
    sim.schedule_at(TimePoint{20}, [&order, i] { order.push_back(i); });
  }
  sim.schedule_at(TimePoint{21}, [&] { order.push_back(99); });
  sim.run_until(TimePoint{20});
  // All deadline events fired (reordered within the instant), none past.
  EXPECT_EQ(order, (std::vector<int>{0, 3, 2, 1}));
  EXPECT_EQ(sim.now(), TimePoint{20});
  sim.run_until(TimePoint{30});
  EXPECT_EQ(order.back(), 99);
}

TEST(Simulator, RunUntilPickZeroPolicyMatchesPolicyFreeOrder) {
  auto script = [](Simulator& sim, std::vector<int>& order) {
    for (int i = 0; i < 4; ++i) {
      sim.schedule_at(TimePoint{10}, [&order, i, &sim] {
        order.push_back(i);
        // Nested same-instant scheduling: joins the tie set mid-flight.
        if (i == 1) sim.schedule_at(TimePoint{10}, [&order] { order.push_back(100); });
      });
    }
    sim.schedule_at(TimePoint{20}, [&order] { order.push_back(200); });
  };
  Simulator plain;
  std::vector<int> plain_order;
  script(plain, plain_order);
  plain.run_until(TimePoint{20});

  PickFirstPolicy policy;
  Simulator seamed;
  seamed.set_choice_policy(&policy);
  std::vector<int> seamed_order;
  script(seamed, seamed_order);
  seamed.run_until(TimePoint{20});

  EXPECT_EQ(seamed_order, plain_order);
  EXPECT_EQ(seamed.now(), plain.now());
  EXPECT_EQ(seamed.fired_events(), plain.fired_events());
}

TEST(Simulator, PolicyReordersOnlySameInstantEvents) {
  PickLastPolicy policy;
  Simulator sim;
  sim.set_choice_policy(&policy);
  std::vector<int> order;
  sim.schedule_at(TimePoint{30}, [&] { order.push_back(3); });
  sim.schedule_at(TimePoint{10}, [&] { order.push_back(1); });
  sim.schedule_at(TimePoint{20}, [&] { order.push_back(2); });
  sim.run();
  // Distinct instants: time order wins no matter how ties are broken.
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, WindowedRunUntilMatchesSingleRun) {
  // The Partition seam's contract: run_until(a); run_until(b) fires the
  // identical sequence as run_until(b).
  auto run = [](bool windowed, std::vector<TimePoint>& fires) -> TimePoint {
    Simulator sim;
    PeriodicTimer timer(sim, millis(7), [&fires, &sim] { fires.push_back(sim.now()); });
    timer.start_at(TimePoint::zero() + millis(7));
    if (windowed) {
      for (std::int64_t h = 13; h <= 100; h += 13) {
        sim.run_until(TimePoint::zero() + millis(h));
      }
    }
    sim.run_until(TimePoint::zero() + millis(100));
    return sim.now();
  };
  std::vector<TimePoint> whole_fires, windowed_fires;
  const TimePoint whole_now = run(false, whole_fires);
  const TimePoint windowed_now = run(true, windowed_fires);
  EXPECT_EQ(windowed_fires, whole_fires);
  EXPECT_EQ(windowed_now, whole_now);
}

// ---- The tie set across steps under a ChoicePolicy ------------------------
//
// A policy picks one member of the same-instant tie set per step; the
// members it did not pick stay pending for the next step.  These pin what
// callers see of that set: cancellation, nesting, clearing the policy,
// next_event_time() and stop().

TEST(Simulator, TieCancelledByPickedCallbackNeverFires) {
  Simulator sim;
  CountingPolicy policy(sim);  // fires the last-scheduled tie first
  sim.set_choice_policy(&policy);
  std::vector<int> order;
  EventHandle victim = sim.schedule_at(TimePoint{10}, [&] { order.push_back(0); });
  sim.schedule_at(TimePoint{10}, [&] { order.push_back(1); });
  sim.schedule_at(TimePoint{10}, [&] { order.push_back(2); });
  sim.schedule_at(TimePoint{10}, [&] {
    order.push_back(3);
    EXPECT_TRUE(victim.cancel());
  });
  sim.schedule_at(TimePoint{20}, [&] { order.push_back(99); });
  EXPECT_TRUE(sim.step());
  // Deletion is lazy: the cancelled tie still counts until the next step.
  EXPECT_EQ(sim.pending_events(), 4u);
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(sim.pending_events(), 2u);
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{3, 2, 1, 99}));
  // Second pick: ties {1, 2} plus the later event; the victim is gone.
  EXPECT_EQ(policy.seen, (std::vector<std::size_t>{5, 3}));
  EXPECT_EQ(sim.fired_events(), 4u);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Simulator, PickLastWithNestedSameInstantSchedulingIsPinned) {
  PickLastPolicy policy;
  Simulator sim;
  sim.set_choice_policy(&policy);
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) {
    sim.schedule_at(TimePoint{10}, [&order, &sim, i] {
      order.push_back(i);
      if (i == 1) sim.schedule_at(TimePoint{10}, [&order] { order.push_back(102); });
      if (i != 3) return;
      sim.schedule_at(TimePoint{10}, [&order, &sim] {
        order.push_back(100);
        sim.schedule_at(TimePoint{10}, [&order] { order.push_back(101); });
      });
    });
  }
  sim.schedule_at(TimePoint{20}, [&order] { order.push_back(200); });
  sim.run();
  // A nested same-instant event joins the tie set as its newest member,
  // so fire-last picks it next.
  EXPECT_EQ(order, (std::vector<int>{3, 100, 101, 2, 1, 102, 0, 200}));
  EXPECT_EQ(sim.now(), TimePoint{20});
}

TEST(Simulator, ClearingThePolicyInsideATieSetResumesFifo) {
  PickLastPolicy policy;
  Simulator sim;
  sim.set_choice_policy(&policy);
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) {
    sim.schedule_at(TimePoint{10}, [&order, i] { order.push_back(i); });
  }
  sim.schedule_at(TimePoint{10}, [&order, &sim] {
    order.push_back(4);
    sim.set_choice_policy(nullptr);
    sim.schedule_at(TimePoint{10}, [&order] { order.push_back(5); });
  });
  sim.schedule_at(TimePoint{20}, [&order] { order.push_back(200); });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(sim.choice_policy(), nullptr);
  EXPECT_EQ(sim.pending_events(), 6u);
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{4, 0, 1, 2, 3, 5, 200}));
  EXPECT_EQ(sim.fired_events(), 7u);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Simulator, NextEventTimeSeesTiesAPolicyHasNotPicked) {
  PickLastPolicy policy;
  Simulator sim;
  sim.set_choice_policy(&policy);
  std::vector<TimePoint> seen;
  for (int i = 0; i < 3; ++i) {
    sim.schedule_at(TimePoint{10}, [&seen, &sim] { seen.push_back(sim.next_event_time()); });
  }
  sim.schedule_at(TimePoint{20}, [] {});
  EXPECT_EQ(sim.next_event_time(), TimePoint{10});
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(sim.next_event_time(), TimePoint{10});
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(sim.next_event_time(), TimePoint{10});
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(sim.next_event_time(), TimePoint{20});
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(sim.next_event_time(), TimePoint::max());
  // Inside a callback, the ties not yet fired are still ahead of the clock.
  EXPECT_EQ(seen, (std::vector<TimePoint>{TimePoint{10}, TimePoint{10}, TimePoint{20}}));
}

/// A backup's watchdog pattern: each of 100 hops, 1 µs apart, cancels the
/// pending 5 µs watchdog and arms a new one, so every hop but the first
/// leaves one cancelled entry in the queue.
struct RearmLoop {
  Simulator& sim;
  EventHandle watchdog;
  int hops = 0;
  void hop() {
    watchdog.cancel();
    watchdog = sim.schedule_after(Duration{5'000}, [] {});
    if (++hops < 100) sim.schedule_after(Duration{1'000}, [this] { hop(); });
  }
};

TEST(Simulator, CancelledPopsCountsEachCancelledEntryOnceOnEveryPath) {
  PickLastPolicy policy;
  for (const bool with_policy : {false, true}) {
    for (const bool windowed : {false, true}) {
      Simulator sim;
      if (with_policy) sim.set_choice_policy(&policy);
      RearmLoop loop{sim, {}, 0};
      sim.schedule_at(TimePoint{0}, [&loop] { loop.hop(); });
      sim.run_until(TimePoint{2'500});
      // Hops at 0, 1 and 2 µs: the first two watchdogs are cancelled but
      // still queued, and the count leaves pending_events() alone.
      EXPECT_EQ(sim.pending_events(), 4u);
      EXPECT_EQ(sim.cancelled_pops(), 0u);
      if (windowed) {
        for (std::int64_t t = 2'500; t <= 120'000; t += 700) sim.run_until(TimePoint{t});
      } else {
        sim.run();
      }
      EXPECT_EQ(sim.pending_events(), 0u);
      EXPECT_EQ(sim.fired_events(), 101u);  // 100 hops and the last watchdog
      EXPECT_EQ(sim.cancelled_pops(), 99u) << "policy " << with_policy << " windowed " << windowed;
    }
  }
}

TEST(Simulator, StopInsideATieSetThenRunUntilResumes) {
  PickLastPolicy policy;
  Simulator sim;
  sim.set_choice_policy(&policy);
  std::vector<int> order;
  for (int i = 0; i < 3; ++i) {
    sim.schedule_at(TimePoint{10}, [&order, i] { order.push_back(i); });
  }
  sim.schedule_at(TimePoint{10}, [&order, &sim] {
    order.push_back(3);
    sim.stop();
  });
  sim.schedule_at(TimePoint{20}, [&order] { order.push_back(200); });
  sim.run_until(TimePoint{10});
  EXPECT_EQ(order, (std::vector<int>{3}));
  EXPECT_EQ(sim.now(), TimePoint{10});
  EXPECT_EQ(sim.pending_events(), 4u);
  sim.run_until(TimePoint{30});
  EXPECT_EQ(order, (std::vector<int>{3, 2, 1, 0, 200}));
  EXPECT_EQ(sim.now(), TimePoint{30});
  EXPECT_EQ(sim.fired_events(), 5u);
}

}  // namespace
}  // namespace rtpb::sim
