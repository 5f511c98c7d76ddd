// Unit tests for the discrete-event core: typed event queue ordering and
// cancellation, FIFO lanes, simulator clock/dispatch semantics.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "sim/event_queue.h"
#include "sim/simulator.h"

namespace netbatch::sim {
namespace {

// Builds a payload event of the given kind tagged with a payload id.
Event Tagged(std::uint16_t kind, std::uint32_t aux = 0) {
  Event ev;
  ev.kind = kind;
  ev.aux = aux;
  return ev;
}

TEST(EventQueueTest, PopsInTimeOrder) {
  EventQueue queue;
  queue.Schedule(30, Tagged(3));
  queue.Schedule(10, Tagged(1));
  queue.Schedule(20, Tagged(2));
  std::vector<int> fired;
  while (!queue.Empty()) fired.push_back(queue.Pop().kind);
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, TiesFireInScheduleOrder) {
  EventQueue queue;
  for (std::uint32_t i = 0; i < 10; ++i) {
    queue.Schedule(42, Tagged(7, i));
  }
  std::uint32_t expected = 0;
  while (!queue.Empty()) EXPECT_EQ(queue.Pop().aux, expected++);
  EXPECT_EQ(expected, 10u);
}

// The determinism contract across *kinds*: events of different types landing
// on the same tick fire in the order they were scheduled, not in any
// kind-dependent or heap-internal order.
TEST(EventQueueTest, MixedKindsAtEqualTickFireInScheduleOrder) {
  EventQueue queue;
  const std::uint16_t kinds[] = {5, 2, 9, 2, 5, 1};
  for (std::uint32_t i = 0; i < 6; ++i) {
    queue.Schedule(100, Tagged(kinds[i], i));
  }
  for (std::uint32_t i = 0; i < 6; ++i) {
    const Event ev = queue.Pop();
    EXPECT_EQ(ev.kind, kinds[i]);
    EXPECT_EQ(ev.aux, i);
  }
}

TEST(EventQueueTest, PayloadRoundTrips) {
  EventQueue queue;
  Event ev;
  ev.kind = 11;
  ev.stamp = 0xdeadbeefcafeull;
  ev.job = JobId(7);
  ev.pool = PoolId(3);
  ev.machine = MachineId(22);
  ev.aux = 99;
  queue.Schedule(5, ev);
  const Event out = queue.Pop();
  EXPECT_EQ(out.time, 5);
  EXPECT_EQ(out.kind, 11);
  EXPECT_EQ(out.stamp, 0xdeadbeefcafeull);
  EXPECT_EQ(out.job, JobId(7));
  EXPECT_EQ(out.pool, PoolId(3));
  EXPECT_EQ(out.machine, MachineId(22));
  EXPECT_EQ(out.aux, 99u);
}

TEST(EventQueueTest, CancelRemovesFromHeap) {
  EventQueue queue;
  const EventSeq seq = queue.Schedule(5, Tagged(1));
  queue.Schedule(6, Tagged(2));
  const std::optional<Event> removed = queue.Cancel(seq);
  ASSERT_TRUE(removed.has_value());
  EXPECT_EQ(removed->kind, 1);
  EXPECT_EQ(queue.LiveCount(), 1u);
  EXPECT_EQ(queue.Pop().kind, 2);
  EXPECT_TRUE(queue.Empty());
}

TEST(EventQueueTest, CancelAfterFireIsNoOp) {
  EventQueue queue;
  const EventSeq seq = queue.Schedule(1, Tagged(1));
  queue.Pop();
  EXPECT_FALSE(queue.Cancel(seq).has_value());  // must not corrupt bookkeeping
  EXPECT_TRUE(queue.Empty());
  queue.Schedule(2, Tagged(2));
  EXPECT_EQ(queue.LiveCount(), 1u);
}

TEST(EventQueueTest, CancelUnknownHandleIsNoOp) {
  EventQueue queue;
  EXPECT_FALSE(queue.Cancel(12345).has_value());
  EXPECT_FALSE(queue.Cancel(kNoEvent).has_value());
  EXPECT_TRUE(queue.Empty());
}

TEST(EventQueueTest, PeekTimeSeesEarliestLiveEvent) {
  EventQueue queue;
  const EventSeq early = queue.Schedule(1, Tagged(1));
  queue.Schedule(9, Tagged(2));
  queue.Cancel(early);
  EXPECT_EQ(queue.PeekTime(), 9);
}

TEST(EventQueueTest, StressRandomOperationsPreserveOrder) {
  EventQueue queue;
  Rng rng(99);
  std::vector<EventSeq> live;
  for (int i = 0; i < 5000; ++i) {
    const Ticks at = rng.UniformInt(0, 100000);
    live.push_back(queue.Schedule(at, Tagged(1)));
    if (rng.Bernoulli(0.3) && !live.empty()) {
      const std::size_t victim = rng.UniformIndex(live.size());
      queue.Cancel(live[victim]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
    }
  }
  Ticks last = -1;
  std::size_t popped = 0;
  std::uint64_t last_seq = 0;
  while (!queue.Empty()) {
    const Event fired = queue.Pop();
    EXPECT_GE(fired.time, last);
    if (fired.time == last) EXPECT_GT(fired.seq, last_seq);
    last = fired.time;
    last_seq = fired.seq;
    ++popped;
  }
  EXPECT_EQ(popped, live.size());
}

// Regression for the old callback queue's unbounded growth: cancelled
// entries below the heap top were never compacted, so schedule/cancel churn
// (a job suspended and resumed over and over re-arms its completion event
// each time) grew the heap with the *total* event count. The typed queue
// removes cancelled events eagerly; storage must stay proportional to the
// live events, not the 1M-event churn.
TEST(EventQueueTest, ScheduleCancelChurnKeepsMemoryBounded) {
  EventQueue queue;
  Rng rng(7);
  // A small persistent population of live events, far in the future.
  std::vector<EventSeq> live;
  for (int i = 0; i < 100; ++i) {
    live.push_back(queue.Schedule(1'000'000 + i, Tagged(1)));
  }
  constexpr int kChurn = 1'000'000;
  for (int i = 0; i < kChurn; ++i) {
    // Schedule far-future events and cancel them immediately: under lazy
    // cancellation none of these would ever reach the top and be dropped.
    const EventSeq seq =
        queue.Schedule(2'000'000 + rng.UniformInt(0, 1000), Tagged(2));
    ASSERT_TRUE(queue.Cancel(seq).has_value());
  }
  EXPECT_EQ(queue.LiveCount(), live.size());
  // Storage must be proportional to the ~100 live events (with slack for
  // capacity growth/high-water), nowhere near the 1M churned events.
  EXPECT_LT(queue.MemoryFootprintBytes(), 64u * 1024u);
  // The queue still drains correctly after the churn.
  std::size_t popped = 0;
  while (!queue.Empty()) {
    EXPECT_EQ(queue.Pop().kind, 1);
    ++popped;
  }
  EXPECT_EQ(popped, live.size());
}

// A dispatcher that records every typed event it receives.
class RecordingDispatcher : public EventDispatcher {
 public:
  void Dispatch(const Event& event) override { events.push_back(event); }
  std::vector<Event> events;
};

// Once lanes exist, live events no longer imply a live heap key: with
// every heap event cancelled and a lane still holding events, the queue
// must not go looking for a live heap top (it would shed keys past the end
// of the heap). Covers both the lingering-keys case (< 64 keys, no
// compaction) and the compacted case.
TEST(EventQueueTest, CancelAllHeapEventsWithLaneNonEmpty) {
  for (const int heap_events : {3, 100}) {
    EventQueue queue;
    std::vector<EventSeq> heap;
    for (int i = 0; i < heap_events; ++i) {
      heap.push_back(queue.Schedule(5 + i, Tagged(1)));
    }
    EXPECT_EQ(queue.ScheduleFifo(0, 500, Tagged(2, 7)), kNoEvent);
    for (const EventSeq handle : heap) {
      ASSERT_TRUE(queue.Cancel(handle).has_value());
    }
    EXPECT_EQ(queue.LiveCount(), 1u);
    EXPECT_EQ(queue.PeekTime(), 500);
    const Event lane_event = queue.Pop();
    EXPECT_EQ(lane_event.kind, 2);
    EXPECT_EQ(lane_event.aux, 7u);
    EXPECT_TRUE(queue.Empty());
    // Both sources keep working afterwards.
    queue.Schedule(900, Tagged(3));
    queue.ScheduleFifo(1, 800, Tagged(4));
    EXPECT_EQ(queue.Pop().kind, 4);
    EXPECT_EQ(queue.Pop().kind, 3);
    EXPECT_TRUE(queue.Empty());
  }
}

TEST(EventQueueTest, LaneEventsKeepTheirHeapRank) {
  EventQueue queue;
  queue.ScheduleFifo(0, 10, Tagged(1));  // seq 0
  queue.Schedule(10, Tagged(2));         // seq 1
  queue.ScheduleFifo(1, 10, Tagged(3));  // seq 2
  queue.ScheduleFifo(0, 10, Tagged(4));  // seq 3
  queue.Schedule(5, Tagged(5));          // seq 4
  std::vector<int> fired;
  while (!queue.Empty()) fired.push_back(queue.Pop().kind);
  EXPECT_EQ(fired, (std::vector<int>{5, 1, 2, 3, 4}));
  EXPECT_EQ(queue.LaneFallbacks(), 0u);
}

TEST(EventQueueTest, OutOfOrderLaneEventFallsBackToTheHeap) {
  EventQueue queue;
  queue.ScheduleFifo(0, 50, Tagged(1));
  // Earlier than the lane's newest event: queued on the heap, cancellable.
  const EventSeq handle = queue.ScheduleFifo(0, 20, Tagged(2));
  EXPECT_NE(handle, kNoEvent);
  EXPECT_EQ(queue.LaneFallbacks(), 1u);
  queue.ScheduleFifo(0, 30, Tagged(3));  // still behind 50: heap again
  EXPECT_EQ(queue.LaneFallbacks(), 2u);
  std::vector<int> fired;
  while (!queue.Empty()) fired.push_back(queue.Pop().kind);
  EXPECT_EQ(fired, (std::vector<int>{2, 3, 1}));
  // An empty lane takes any time.
  queue.ScheduleFifo(0, 10, Tagged(4));
  EXPECT_EQ(queue.LaneFallbacks(), 2u);
}

// The lanes are an optimisation, not a semantics change: a queue fed
// through two lanes (including times that must fall back to the heap) pops
// exactly what a heap-only queue given the same operations pops.
TEST(EventQueueTest, LanesMatchHeapOnlyQueueUnderRandomOperations) {
  EventQueue reference;
  EventQueue laned;
  Rng rng(2024);
  struct HeapHandles {
    EventSeq reference;
    EventSeq laned;
  };
  std::vector<HeapHandles> cancellable;
  Ticks now = 0;
  Ticks lane_time[EventQueue::kLaneCount] = {0, 0};
  std::uint32_t next_id = 0;
  auto same_state = [&] {
    ASSERT_EQ(reference.LiveCount(), laned.LiveCount());
    ASSERT_EQ(reference.Empty(), laned.Empty());
  };
  for (int step = 0; step < 200'000; ++step) {
    const int op = static_cast<int>(rng.UniformInt(0, 99));
    if (op < 35) {
      // An in-order stream event; 1 in 20 deliberately runs behind.
      const std::size_t lane = rng.UniformIndex(EventQueue::kLaneCount);
      Ticks at;
      if (rng.Bernoulli(0.05)) {
        at = std::max(now, lane_time[lane] - rng.UniformInt(1, 20));
      } else {
        lane_time[lane] =
            std::max(now, lane_time[lane]) + rng.UniformInt(0, 4);
        at = lane_time[lane];
      }
      const Event ev =
          Tagged(static_cast<std::uint16_t>(10 + lane), next_id++);
      reference.Schedule(at, ev);
      laned.ScheduleFifo(lane, at, ev);
    } else if (op < 60) {
      const Ticks at = now + rng.UniformInt(0, 60);
      const Event ev = Tagged(1, next_id++);
      cancellable.push_back(
          {reference.Schedule(at, ev), laned.Schedule(at, ev)});
    } else if (op < 70) {
      if (!cancellable.empty()) {
        const std::size_t victim = rng.UniformIndex(cancellable.size());
        const std::optional<Event> a =
            reference.Cancel(cancellable[victim].reference);
        const std::optional<Event> b =
            laned.Cancel(cancellable[victim].laned);
        ASSERT_EQ(a.has_value(), b.has_value());
        if (a.has_value()) {
          EXPECT_EQ(a->seq, b->seq);
          EXPECT_EQ(a->aux, b->aux);
        }
        cancellable[victim] = cancellable.back();
        cancellable.pop_back();
      }
    } else if (op < 80) {
      if (!reference.Empty()) {
        ASSERT_EQ(reference.PeekTime(), laned.PeekTime()) << "step " << step;
      }
    } else if (!reference.Empty()) {
      const Event a = reference.Pop();
      const Event b = laned.Pop();
      ASSERT_EQ(a.time, b.time) << "step " << step;
      ASSERT_EQ(a.seq, b.seq) << "step " << step;
      ASSERT_EQ(a.kind, b.kind) << "step " << step;
      ASSERT_EQ(a.aux, b.aux) << "step " << step;
      now = a.time;
    }
    ASSERT_NO_FATAL_FAILURE(same_state()) << "step " << step;
  }
  while (!reference.Empty()) {
    ASSERT_FALSE(laned.Empty());
    const Event a = reference.Pop();
    const Event b = laned.Pop();
    ASSERT_EQ(a.seq, b.seq);
    ASSERT_EQ(a.aux, b.aux);
  }
  EXPECT_TRUE(laned.Empty());
  EXPECT_GT(laned.LaneFallbacks(), 0u);
}

// Lane storage is a ring: a long stream with few events queued at a time
// reuses the same slots instead of growing with the total streamed.
TEST(EventQueueTest, LaneStreamKeepsMemoryBounded) {
  EventQueue queue;
  constexpr int kStream = 1'000'000;
  for (int i = 0; i < kStream; ++i) {
    queue.ScheduleFifo(0, i / 3, Tagged(1));
    if (queue.LiveCount() == 64) queue.Pop();
  }
  EXPECT_EQ(queue.LaneFallbacks(), 0u);
  EXPECT_GT(queue.MemoryFootprintBytes(), 0u);  // the ring is counted
  EXPECT_LT(queue.MemoryFootprintBytes(), 64u * 1024u);
  Ticks last = -1;
  while (!queue.Empty()) {
    const Event ev = queue.Pop();
    EXPECT_GE(ev.time, last);
    last = ev.time;
  }
}

TEST(SimulatorTest, TypedEventsReachDispatcherInOrder) {
  Simulator sim;
  RecordingDispatcher dispatcher;
  sim.set_dispatcher(&dispatcher);
  sim.ScheduleAt(20, Tagged(2));
  sim.ScheduleAt(10, Tagged(1));
  sim.ScheduleAfter(30, Tagged(3));
  sim.RunToCompletion();
  ASSERT_EQ(dispatcher.events.size(), 3u);
  EXPECT_EQ(dispatcher.events[0].kind, 1);
  EXPECT_EQ(dispatcher.events[1].kind, 2);
  EXPECT_EQ(dispatcher.events[2].kind, 3);
  EXPECT_EQ(sim.FiredEvents(), 3u);
}

// Typed events and one-shot callbacks at the same tick interleave purely by
// schedule order — the dispatch route does not affect determinism.
TEST(SimulatorTest, TypedAndCallbackEventsShareOneDeterministicOrder) {
  Simulator sim;
  RecordingDispatcher dispatcher;
  sim.set_dispatcher(&dispatcher);
  std::vector<int> order;
  sim.ScheduleAt(5, Tagged(1));
  sim.ScheduleAt(5, [&] { order.push_back(-1); });
  sim.ScheduleAt(5, Tagged(2));
  sim.ScheduleAt(5, [&] {
    order.push_back(static_cast<int>(dispatcher.events.size()));
  });
  sim.RunToCompletion();
  // Callback #1 fired after typed kind 1 (one typed event seen), callback #2
  // after both typed events.
  EXPECT_EQ(order, (std::vector<int>{-1, 2}));
  ASSERT_EQ(dispatcher.events.size(), 2u);
  EXPECT_EQ(dispatcher.events[0].kind, 1);
  EXPECT_EQ(dispatcher.events[1].kind, 2);
}

// Lane events reach the dispatcher in the same (time, seq) order as heap
// events scheduled around them.
TEST(SimulatorTest, LaneAndHeapEventsShareOneDeterministicOrder) {
  Simulator sim;
  RecordingDispatcher dispatcher;
  sim.set_dispatcher(&dispatcher);
  sim.ScheduleFifoAt(0, 5, Tagged(1));
  sim.ScheduleAt(5, Tagged(2));
  sim.ScheduleFifoAfter(1, 5, Tagged(3));
  sim.ScheduleAt(3, Tagged(4));
  sim.RunToCompletion();
  std::vector<int> kinds;
  for (const Event& ev : dispatcher.events) kinds.push_back(ev.kind);
  EXPECT_EQ(kinds, (std::vector<int>{4, 1, 2, 3}));
  EXPECT_EQ(sim.FiredEvents(), 4u);
  EXPECT_EQ(sim.LaneFallbacks(), 0u);
}

TEST(SimulatorTest, CancelledCallbackSlotIsRecycled) {
  Simulator sim;
  int fired = 0;
  const EventSeq seq = sim.ScheduleAt(10, [&] { ++fired; });
  sim.Cancel(seq);
  for (int i = 0; i < 1000; ++i) {
    sim.ScheduleAt(20 + i, [&] { ++fired; });
  }
  sim.RunToCompletion();
  EXPECT_EQ(fired, 1000);
}

TEST(SimulatorTest, ClockAdvancesMonotonically) {
  Simulator sim;
  std::vector<Ticks> times;
  sim.ScheduleAt(50, [&] { times.push_back(sim.Now()); });
  sim.ScheduleAt(10, [&] {
    times.push_back(sim.Now());
    sim.ScheduleAfter(15, [&] { times.push_back(sim.Now()); });
  });
  sim.RunToCompletion();
  EXPECT_EQ(times, (std::vector<Ticks>{10, 25, 50}));
  EXPECT_EQ(sim.Now(), 50);
  EXPECT_EQ(sim.FiredEvents(), 3u);
}

TEST(SimulatorTest, RunUntilStopsAtBoundary) {
  Simulator sim;
  int fired = 0;
  sim.ScheduleAt(10, [&] { ++fired; });
  sim.ScheduleAt(20, [&] { ++fired; });
  sim.ScheduleAt(21, [&] { ++fired; });
  sim.RunUntil(20);  // events at exactly the boundary still fire
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.PendingEvents(), 1u);
  sim.RunToCompletion();
  EXPECT_EQ(fired, 3);
}

TEST(SimulatorTest, RequestStopHaltsLoop) {
  Simulator sim;
  int fired = 0;
  sim.ScheduleAt(1, [&] {
    ++fired;
    sim.RequestStop();
  });
  sim.ScheduleAt(2, [&] { ++fired; });
  sim.RunToCompletion();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.PendingEvents(), 1u);
}

TEST(SimulatorTest, EventsScheduledDuringRunAreProcessed) {
  Simulator sim;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 5) sim.ScheduleAfter(1, chain);
  };
  sim.ScheduleAt(0, chain);
  sim.RunToCompletion();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(sim.Now(), 4);
}

}  // namespace
}  // namespace netbatch::sim
