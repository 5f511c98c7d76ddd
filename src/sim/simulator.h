// The simulation driver: a clock plus the event loop.
//
// Mirrors the role of ASCA's engine (paper §3.1): components schedule typed
// POD events, the driver pops them in deterministic (time, seq) order and
// hands each to the EventDispatcher, which switches on Event::kind. The hot
// path never allocates: an event is 48 bytes copied by value through a flat
// heap, or through a FIFO lane for streams scheduled in time order.
//
// For code that genuinely needs an ad-hoc closure (tests that inject a
// mid-run hook), ScheduleAt/ScheduleAfter also accept a one-shot
// std::function<void()>; those are parked in a slot-recycled side table and
// never reach the dispatcher. The engine's per-event path does not use them.
#pragma once

#include <functional>
#include <vector>

#include "common/check.h"
#include "common/time.h"
#include "sim/event_queue.h"

namespace netbatch::sim {

// Receives every typed event the Simulator pops. Implemented by the
// simulation engine as a single switch over Event::kind.
class EventDispatcher {
 public:
  virtual void Dispatch(const Event& event) = 0;

 protected:
  ~EventDispatcher() = default;
};

class Simulator {
 public:
  // Reserved Event::kind marking a one-shot callback event; handled by the
  // Simulator itself and never passed to the dispatcher.
  static constexpr std::uint16_t kCallbackKind = 0xffffu;

  Ticks Now() const { return now_; }

  // The dispatcher receives every typed event; must outlive the simulator.
  // Required before the first typed event fires.
  void set_dispatcher(EventDispatcher* dispatcher) {
    dispatcher_ = dispatcher;
  }

  // Schedules a typed event at absolute time `at` (must be >= Now()).
  EventSeq ScheduleAt(Ticks at, const Event& event);

  // Schedules a typed event `delay` ticks from now (delay >= 0).
  EventSeq ScheduleAfter(Ticks delay, const Event& event);

  // Like ScheduleAt/ScheduleAfter, but queues the event on FIFO lane `lane`
  // (< EventQueue::kLaneCount) when it is not earlier than the lane's newest
  // event. Firing order is unchanged; see EventQueue::ScheduleFifo. A lane
  // event cannot be cancelled (kNoEvent is returned for it).
  EventSeq ScheduleFifoAt(std::size_t lane, Ticks at, const Event& event);
  EventSeq ScheduleFifoAfter(std::size_t lane, Ticks delay,
                             const Event& event);

  // One-shot callback convenience (tests): `fn` fires once at the
  // given time. The callback is stored in a recycled slot, so steady-state
  // use does not grow memory.
  EventSeq ScheduleAt(Ticks at, std::function<void()> fn);
  EventSeq ScheduleAfter(Ticks delay, std::function<void()> fn);

  void Cancel(EventSeq seq);

  // Runs until the queue drains or the clock passes `until`
  // (events at exactly `until` still fire). Returns the final clock value.
  Ticks RunUntil(Ticks until);

  // Runs until the event queue is empty.
  Ticks RunToCompletion();

  // Stops the loop after the current event returns; used when the engine
  // detects quiescence.
  void RequestStop() { stop_requested_ = true; }

  // Pre-sizes the event heap (e.g. for the trace size).
  void Reserve(std::size_t events) { queue_.Reserve(events); }

  // Pre-sizes FIFO lane `lane` (e.g. the arrival lane for the trace size).
  void ReserveLane(std::size_t lane, std::size_t events) {
    queue_.ReserveLane(lane, events);
  }

  std::size_t PendingEvents() const { return queue_.LiveCount(); }
  std::uint64_t FiredEvents() const { return fired_events_; }
  std::size_t QueueMemoryBytes() const {
    return queue_.MemoryFootprintBytes();
  }
  // ScheduleFifo* calls that had to fall back to the heap.
  std::uint64_t LaneFallbacks() const { return queue_.LaneFallbacks(); }

 private:
  std::uint32_t AcquireCallbackSlot(std::function<void()> fn);
  void ReleaseCallbackSlot(std::uint32_t slot);

  Ticks now_ = 0;
  EventQueue queue_;
  EventDispatcher* dispatcher_ = nullptr;
  bool stop_requested_ = false;
  std::uint64_t fired_events_ = 0;

  // One-shot callback side table; slots are recycled after fire/cancel.
  std::vector<std::function<void()>> callbacks_;
  std::vector<std::uint32_t> free_slots_;
};

}  // namespace netbatch::sim
