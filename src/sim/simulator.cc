#include "sim/simulator.h"

#include <limits>
#include <utility>

namespace netbatch::sim {

EventSeq Simulator::ScheduleAt(Ticks at, const Event& event) {
  NETBATCH_CHECK(at >= now_, "cannot schedule an event in the past");
  NETBATCH_CHECK(event.kind != kCallbackKind,
                 "kind 0xffff is reserved for callback events");
  return queue_.Schedule(at, event);
}

EventSeq Simulator::ScheduleAfter(Ticks delay, const Event& event) {
  NETBATCH_CHECK(delay >= 0, "negative event delay");
  return ScheduleAt(now_ + delay, event);
}

EventSeq Simulator::ScheduleFifoAt(std::size_t lane, Ticks at,
                                   const Event& event) {
  NETBATCH_CHECK(at >= now_, "cannot schedule an event in the past");
  NETBATCH_CHECK(event.kind != kCallbackKind,
                 "kind 0xffff is reserved for callback events");
  return queue_.ScheduleFifo(lane, at, event);
}

EventSeq Simulator::ScheduleFifoAfter(std::size_t lane, Ticks delay,
                                      const Event& event) {
  NETBATCH_CHECK(delay >= 0, "negative event delay");
  return ScheduleFifoAt(lane, now_ + delay, event);
}

std::uint32_t Simulator::AcquireCallbackSlot(std::function<void()> fn) {
  if (!free_slots_.empty()) {
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    callbacks_[slot] = std::move(fn);
    return slot;
  }
  callbacks_.push_back(std::move(fn));
  return static_cast<std::uint32_t>(callbacks_.size() - 1);
}

void Simulator::ReleaseCallbackSlot(std::uint32_t slot) {
  callbacks_[slot] = nullptr;
  free_slots_.push_back(slot);
}

EventSeq Simulator::ScheduleAt(Ticks at, std::function<void()> fn) {
  NETBATCH_CHECK(at >= now_, "cannot schedule an event in the past");
  Event event;
  event.kind = kCallbackKind;
  event.aux = AcquireCallbackSlot(std::move(fn));
  return queue_.Schedule(at, event);
}

EventSeq Simulator::ScheduleAfter(Ticks delay, std::function<void()> fn) {
  NETBATCH_CHECK(delay >= 0, "negative event delay");
  return ScheduleAt(now_ + delay, std::move(fn));
}

void Simulator::Cancel(EventSeq seq) {
  const std::optional<Event> removed = queue_.Cancel(seq);
  if (removed.has_value() && removed->kind == kCallbackKind) {
    ReleaseCallbackSlot(removed->aux);
  }
}

Ticks Simulator::RunUntil(Ticks until) {
  stop_requested_ = false;
  while (!queue_.Empty() && !stop_requested_) {
    if (queue_.PeekTime() > until) break;
    const Event event = queue_.Pop();
    NETBATCH_CHECK(event.time >= now_, "event queue time went backwards");
    now_ = event.time;
    ++fired_events_;
    if (event.kind == kCallbackKind) {
      std::function<void()> fn = std::move(callbacks_[event.aux]);
      ReleaseCallbackSlot(event.aux);
      fn();
    } else {
      NETBATCH_CHECK(dispatcher_ != nullptr,
                     "typed event fired with no dispatcher attached");
      dispatcher_->Dispatch(event);
    }
  }
  return now_;
}

Ticks Simulator::RunToCompletion() {
  return RunUntil(std::numeric_limits<Ticks>::max());
}

}  // namespace netbatch::sim
