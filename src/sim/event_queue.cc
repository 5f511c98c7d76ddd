#include "sim/event_queue.h"

#include <algorithm>

#include "common/check.h"

namespace netbatch::sim {

void EventQueue::Stamp(Ticks at, Event& ev) {
  NETBATCH_CHECK(at >= 0 && at <= 0xffffffff,
                 "event time outside the queue's 2^32-tick range");
  NETBATCH_CHECK(next_seq_ <= 0xffffffffu, "event sequence counter wrapped");
  ev.time = at;
  ev.seq = next_seq_++;
}

EventSeq EventQueue::Schedule(Ticks at, Event ev) {
  std::uint32_t idx;
  if (!free_.empty()) {
    idx = free_.back();
    free_.pop_back();
  } else {
    NETBATCH_CHECK(payloads_.size() < 0xffffffffu,
                   "event handle table exhausted");
    idx = static_cast<std::uint32_t>(payloads_.size());
    payloads_.emplace_back();
    meta_.push_back(0);
  }
  Stamp(at, ev);
  ev.handle = idx;
  payloads_[idx] = ev;
  PushKey(Key{Rank(at, ev.seq), idx});
  ++live_;
  ++heap_live_;
  return (static_cast<EventSeq>(meta_[idx] >> 1) << 32) | idx;
}

EventSeq EventQueue::ScheduleFifo(std::size_t lane_index, Ticks at, Event ev) {
  NETBATCH_CHECK(lane_index < kLaneCount, "unknown event lane");
  Lane& lane = lanes_[lane_index];
  // Appending keeps the lane in rank order as long as `at` is not earlier
  // than the newest queued event (a later seq breaks the tie); anything
  // else would need a sift, which is what the heap is for.
  if (lane.count > 0 && at < lane.back_time) {
    ++lane_fallbacks_;
    return Schedule(at, ev);
  }
  Stamp(at, ev);
  ev.handle = kLaneHandle;
  lane.Push(ev);
  ++live_;
  return kNoEvent;
}

void EventQueue::Lane::Push(const Event& ev) {
  const std::size_t capacity = ring.capacity();
  if (count == capacity) Grow(std::max<std::size_t>(16, 2 * capacity));
  std::size_t tail = head + count;
  if (tail >= ring.capacity()) tail -= ring.capacity();
  // Slots past ring.size() have never held an event; appending constructs
  // them only when first reached, so a large ReserveLane() touches no
  // memory up front.
  if (tail == ring.size()) {
    ring.push_back(ev);
  } else {
    ring[tail] = ev;
  }
  if (count++ == 0) head_rank = Rank(ev.time, ev.seq);
  back_time = ev.time;
}

Event EventQueue::Lane::PopFront() {
  const Event out = ring[head];
  if (++head == ring.capacity()) head = 0;
  head_rank = --count == 0 ? kNoRank : Rank(ring[head].time, ring[head].seq);
  return out;
}

void EventQueue::Lane::Grow(std::size_t capacity) {
  std::vector<Event> next;
  next.reserve(capacity);
  for (std::size_t i = 0; i < count; ++i) {
    std::size_t from = head + i;
    if (from >= ring.capacity()) from -= ring.capacity();
    next.push_back(ring[from]);
  }
  ring = std::move(next);
  head = 0;
}

std::optional<Event> EventQueue::Cancel(EventSeq handle) {
  const std::uint32_t idx = static_cast<std::uint32_t>(handle);
  const std::uint32_t generation = static_cast<std::uint32_t>(handle >> 32);
  if (idx >= meta_.size()) return std::nullopt;  // unknown / kNoEvent
  if ((meta_[idx] >> 1) != generation || Cancelled(idx)) {
    return std::nullopt;  // already fired or cancelled
  }
  const Event removed = payloads_[idx];
  meta_[idx] |= kCancelledBit;
  --live_;
  --heap_live_;
  ++cancelled_in_heap_;
  MaybeCompact();
  return removed;
}

std::size_t EventQueue::EarliestSource() {
  std::uint64_t best_rank = kNoRank;
  // With every heap key cancelled the heap has no top worth looking at (and
  // shedding would run off its end), however many lane events are live.
  if (heap_live_ > 0) {
    if (cancelled_in_heap_ > 0) DropCancelledTop();
    best_rank = heap_[kRoot].rank;
  }
  std::size_t best = kLaneCount;
  for (std::size_t lane = 0; lane < kLaneCount; ++lane) {
    if (lanes_[lane].head_rank < best_rank) {
      best = lane;
      best_rank = lanes_[lane].head_rank;
    }
  }
  return best;
}

Ticks EventQueue::PeekTime() {
  NETBATCH_CHECK(live_ > 0, "PeekTime() on empty event queue");
  const std::size_t source = EarliestSource();
  const std::uint64_t rank =
      source == kLaneCount ? heap_[kRoot].rank : lanes_[source].head_rank;
  return static_cast<Ticks>(rank >> 32);
}

Event EventQueue::Pop() {
  NETBATCH_CHECK(live_ > 0, "Pop() on empty event queue");
  const std::size_t source = EarliestSource();
  --live_;
  if (source < kLaneCount) return lanes_[source].PopFront();
  // Overlap the payload fetch with the sift-down the key pop is about to do.
  __builtin_prefetch(&payloads_[heap_[kRoot].handle]);
  const Key top = PopTopKey();
  const Event out = payloads_[top.handle];
  ReleaseHandle(top.handle);
  --heap_live_;
  return out;
}

void EventQueue::PushKey(Key key) {
  if (heap_.empty()) heap_.resize(kRoot);  // burn the pre-root slots once
  heap_.push_back(key);
  SiftUp(heap_.size() - 1);
}

EventQueue::Key EventQueue::PopTopKey() {
  const Key top = heap_[kRoot];
  const std::size_t last = heap_.size() - 1;
  if (last > kRoot) {
    heap_[kRoot] = heap_[last];
    heap_.pop_back();
    SiftDown(kRoot);
  } else {
    heap_.pop_back();
  }
  return top;
}

void EventQueue::DropCancelledTop() {
  while (Cancelled(heap_[kRoot].handle)) {
    ReleaseHandle(PopTopKey().handle);
    --cancelled_in_heap_;
  }
}

void EventQueue::ReleaseHandle(std::uint32_t handle) {
  // Bump the generation, clearing the cancelled bit.
  meta_[handle] = (meta_[handle] | kCancelledBit) + 1;
  free_.push_back(handle);
}

void EventQueue::MaybeCompact() {
  if (cancelled_in_heap_ <= heap_live_ || heap_.size() - kRoot < 64) return;
  std::size_t kept = kRoot;
  for (std::size_t slot = kRoot; slot < heap_.size(); ++slot) {
    const Key key = heap_[slot];
    if (Cancelled(key.handle)) {
      ReleaseHandle(key.handle);
    } else {
      heap_[kept++] = key;
    }
  }
  heap_.resize(kept);
  cancelled_in_heap_ = 0;
  // Rebuild the heap property bottom-up (Floyd), starting at the parent of
  // the last key; pop order stays deterministic because the rank packs the
  // (time, seq) total order.
  if (kept > kRoot + 1) {
    for (std::size_t slot = (kept - 1) / 4 + 3; slot-- > kRoot;) {
      SiftDown(slot);
    }
  }
  if (heap_.capacity() > 4 * (heap_.size() + 64)) heap_.shrink_to_fit();
}

void EventQueue::Reserve(std::size_t events) {
  heap_.reserve(events + kRoot);
  payloads_.reserve(events);
  meta_.reserve(events);
  free_.reserve(events);
}

void EventQueue::ReserveLane(std::size_t lane, std::size_t events) {
  NETBATCH_CHECK(lane < kLaneCount, "unknown event lane");
  if (events > lanes_[lane].ring.capacity()) lanes_[lane].Grow(events);
}

std::size_t EventQueue::MemoryFootprintBytes() const {
  std::size_t lane_bytes = 0;
  for (const Lane& lane : lanes_) {
    lane_bytes += lane.ring.capacity() * sizeof(Event);
  }
  return lane_bytes + heap_.capacity() * sizeof(Key) +
         payloads_.capacity() * sizeof(Event) +
         meta_.capacity() * sizeof(std::uint32_t) +
         free_.capacity() * sizeof(std::uint32_t);
}

void EventQueue::SiftUp(std::size_t slot) {
  const Key moving = heap_[slot];
  while (slot > kRoot) {
    const std::size_t parent = slot / 4 + 2;
    if (moving.rank >= heap_[parent].rank) break;
    heap_[slot] = heap_[parent];
    slot = parent;
  }
  heap_[slot] = moving;
}

void EventQueue::SiftDown(std::size_t slot) {
  const std::size_t n = heap_.size();
  const Key moving = heap_[slot];
  while (true) {
    const std::size_t first = 4 * slot - 8;  // children of `slot`
    if (first >= n) break;
    // The grandchildren of `slot` are 16 contiguous keys (4 aligned cache
    // lines); pull them in while we scan the children.
    const std::size_t grand = 4 * first - 8;
    if (grand < n) {
      const char* g = reinterpret_cast<const char*>(&heap_[grand]);
      __builtin_prefetch(g);
      __builtin_prefetch(g + 64);
      __builtin_prefetch(g + 128);
      __builtin_prefetch(g + 192);
    }
    // Branchless best-child scan: random keys make "is this child smaller"
    // a coin flip, so a branchy scan eats mispredicts; single-word rank
    // compares let the compiler emit conditional moves.
    std::size_t best = first;
    std::uint64_t best_rank = heap_[first].rank;
    const std::size_t end = std::min(first + 4, n);
    for (std::size_t c = first + 1; c < end; ++c) {
      const std::uint64_t rank = heap_[c].rank;
      const bool smaller = rank < best_rank;
      best = smaller ? c : best;
      best_rank = smaller ? rank : best_rank;
    }
    if (best_rank >= moving.rank) break;
    heap_[slot] = heap_[best];
    slot = best;
  }
  heap_[slot] = moving;
}

}  // namespace netbatch::sim
